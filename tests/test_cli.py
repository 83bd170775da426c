import csv
import json

import numpy as np
import pytest

from netadmm import cli, ppca
from netadmm.data import generate_rigid_measurements

# small but nontrivial run so CLI tests stay fast
FAST = [
    "--nodes", "6",
    "--samples", "120",
    "--ambient-dim", "8",
    "--latent-dim", "2",
    "--max-iterations", "80",
    "--seed", "1",
]


def _run_cli(args):
    return cli.main([str(a) for a in args])


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(["run", "--scheme", "fixed", *FAST, "--output-dir", out])
    assert code == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert (summary["outcome"], summary["message"]) == ("converged", "")
    assert summary["config"]["scheme"] == "fixed"
    assert summary["config"]["num_nodes"] == 6
    assert "max_angle_deg" in summary


def test_run_exit_two_on_iteration_cap(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        ["run", "--scheme", "fixed", *FAST, "--max-iterations", "2", "--output-dir", out]
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["outcome"], summary["iterations"], summary["converged"]) == ("cap", 2, False)
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 2


def _strict_json(path):
    # the file's JSON, refusing the NaN and Infinity tokens that JSON lacks
    def refuse(token):
        raise ValueError(f"{path} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _explode_first_run(monkeypatch, factor=1e13):
    # The first D-PPCA group that the CLI builds reports its objectives
    # times ``factor`` from their fourth call on (iteration 2), so its run
    # diverges there.
    make_factory = ppca.make_dppca_factory
    built = []

    class ExplodingNodes(ppca.DppcaNodes):
        calls = 0

        def objectives(self):
            self.calls += 1
            return super().objectives() * (factor if self.calls > 3 else 1.0)

    def factory(latent_dim):
        def build(shards, rngs, graph):
            nodes = make_factory(latent_dim)(shards, rngs, graph)
            built.append(nodes)
            if len(built) > 1:
                return nodes
            return ExplodingNodes(nodes.stats, nodes.theta, graph)

        return build

    monkeypatch.setattr(cli.ppca, "make_dppca_factory", factory)


@pytest.mark.parametrize("factor", [1e13, np.nan], ids=["huge", "nan"])
def test_run_that_diverges_writes_artifacts_and_exits_one(tmp_path, monkeypatch, capsys, factor):
    # The summary is strict JSON: a NaN objective is written as null.
    _explode_first_run(monkeypatch, factor)
    out = tmp_path / "out"
    code = _run_cli(["run", "--scheme", "fixed", *FAST, "--output-dir", out])
    assert code == 1
    summary = _strict_json(out / "summary.json")
    assert summary["outcome"] == "diverged" and summary["converged"] is False
    assert summary["message"].startswith("objective diverged at iteration 2: ")
    if np.isnan(factor):
        assert summary["final"]["objective"] is None
    else:
        assert summary["final"]["objective"] > 1e12
    assert summary["iterations"] == 3 and "max_angle_deg" not in summary
    rows = (out / "trace.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]
    captured = capsys.readouterr()
    assert captured.err == f"error: {summary['message']}\n" and captured.out == ""


def test_run_rejects_zero_nodes(tmp_path, capsys):
    code = _run_cli(["run", "--nodes", "0", "--output-dir", tmp_path])
    assert code == 1
    assert "num_nodes must be >= 1" in capsys.readouterr().err


def test_nap_summary_reports_bounded_ceilings(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(["run", "--scheme", "nap", *FAST, "--output-dir", out])
    assert code in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    ceilings = list(summary["budget"]["ceilings"].values())
    assert ceilings and all(c <= 2.0 for c in ceilings)
    assert summary["budget"]["max_ceiling"] <= 2.0


def test_run_idempotent_traces(tmp_path):
    out = tmp_path / "out"
    args = ["run", "--scheme", "vp", *FAST, "--output-dir", out]
    assert _run_cli(args) == 0
    first = (out / "trace.csv").read_bytes()
    assert _run_cli(args) == 0
    assert (out / "trace.csv").read_bytes() == first


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment\n"
        "scheme = vp\n"
        "num_nodes = 6\n"
        "num_samples = 120\n"
        "ambient_dim = 8\n"
        "latent_dim = 2\n"
        "max_iterations = 80\n"
    )
    out = tmp_path / "out"
    code = _run_cli(
        ["run", "--config", cfg_file, "--scheme", "fixed", "--output-dir", out]
    )
    assert code in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["scheme"] == "fixed"  # flag beats file
    assert summary["config"]["num_nodes"] == 6  # file beats default


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("learning_rate = 3\n")
    code = _run_cli(["run", "--config", cfg_file])
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,line",
    [
        ("sfm", "num_samples = 7"),
        ("run", "jobs = 2"),
        ("sweep", "schemes = fixed,vp"),
        ("run", "alpha = 0.25"),
    ],
    ids=["synthetic-key-under-sfm", "sweep-key-under-run", "removed-list-key", "published-constant"],
)
def test_config_file_rejects_a_key_that_its_command_does_not_take(tmp_path, capsys, command, line):
    # the same keys as the command's flags, so the file cannot set what no flag can
    meas = tmp_path / "meas.csv"
    _write_measurements(meas)
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text(f"max_iterations = 3\n{line}\n")
    out = tmp_path / "out"
    args = [command, "--config", cfg_file, "--output-dir", out]
    assert _run_cli([*args, "--measurements", meas] if command == "sfm" else args) == 1
    key = line.split(" = ")[0]
    assert f"{cfg_file}:2: unknown {command} config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("scheme vp\n")
    code = _run_cli(["run", "--config", cfg_file])
    assert code == 1
    assert "key = value" in capsys.readouterr().err


def test_config_file_reports_where_a_value_does_not_parse(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("scheme = vp\n\neta0 = abc\n")
    code = _run_cli(["run", "--config", cfg_file])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg_file}:3: eta0: could not convert string to float: 'abc'" in err


def test_config_file_ignores_byte_order_mark(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbfscheme = vp\nnum_nodes = 6\n")
    assert cli.load_config_file(cfg_file, "run") == {"scheme": "vp", "num_nodes": 6}

def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    code = _run_cli(["run", "--scheme", "fixed", *FAST])
    assert code == 0
    assert (tmp_path / "envout" / "summary.json").exists()


def test_sweep_grid_and_aggregates(tmp_path):
    out = tmp_path / "sweep"
    code = _run_cli(
        [
            "sweep",
            "--scheme", "fixed,vp",
            "--topology", "complete",
            "--nodes", "6",
            "--seed", "1,2",
            "--samples", "120",
            "--ambient-dim", "8",
            "--latent-dim", "2",
            "--max-iterations", "80",
            "--output-dir", out,
        ]
    )
    assert code == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert len(comparison["cells"]) == 2
    for cell in comparison["cells"]:
        assert cell["runs"] == 2
        assert cell["errors"] == []
    csv_lines = (out / "comparison.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[0].startswith("scheme,topology,num_nodes")
    # per-cell artifacts exist alongside the aggregate table
    assert (out / "fixed_complete_n6_seed1" / "trace.csv").exists()
    assert (out / "vp_complete_n6_seed2" / "summary.json").exists()


def test_sweep_grid_keys_take_lists(tmp_path):
    # scheme, nodes and seed as lists, topology at its one default; seeds
    # vary fastest and are aggregated within each row
    out = tmp_path / "sweep"
    data_flags = ["--samples", "120", "--ambient-dim", "8", "--latent-dim", "2"]
    args = ["sweep", "--scheme", "fixed,vp", "--nodes", "6,8", "--seed", "1,2", *data_flags]
    assert _run_cli([*args, "--max-iterations", "40", "--output-dir", out]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    config = comparison["config"]
    assert (config["scheme"], config["topology"], config["num_nodes"], config["seed"]) == (
        ["fixed", "vp"], ["complete"], [6, 8], [1, 2],
    )
    assert set(config) == {key for key in SURFACE if "sweep" in _commands_of(key)}
    cells = [(c["scheme"], c["topology"], c["num_nodes"], c["runs"]) for c in comparison["cells"]]
    assert cells == [
        ("fixed", "complete", 6, 2), ("fixed", "complete", 8, 2),
        ("vp", "complete", 6, 2), ("vp", "complete", 8, 2),
    ]
    with (out / "comparison.csv").open(newline="") as fh:
        assert tuple(next(csv.reader(fh))) == cli.COMPARISON_COLUMNS
    for scheme in ("fixed", "vp"):
        for n in (6, 8):
            for seed in (1, 2):
                summary = json.loads((out / f"{scheme}_complete_n{n}_seed{seed}" / "summary.json").read_text())
                echoed = summary["config"]
                assert (echoed["scheme"], echoed["num_nodes"], echoed["seed"]) == (scheme, n, seed)
                assert set(echoed) == {key for key in SURFACE if "run" in _commands_of(key)}


def test_sweep_single_cell_matches_run(tmp_path):
    run_out = tmp_path / "single"
    sweep_out = tmp_path / "sweep"
    assert _run_cli(["run", "--scheme", "fixed", *FAST, "--output-dir", run_out]) == 0
    assert (
        _run_cli(
            [
                "sweep",
                "--scheme", "fixed",
                "--seed", "1",
                *FAST,
                "--output-dir", sweep_out,
            ]
        )
        == 0
    )
    cell = sweep_out / "fixed_complete_n6_seed1"
    assert (cell / "trace.csv").read_bytes() == (run_out / "trace.csv").read_bytes()
    assert (sweep_out / "comparison.csv").exists()


def test_sweep_all_six_schemes_one_row_each(tmp_path):
    out = tmp_path / "sweep"
    code = _run_cli(
        [
            "sweep",
            "--scheme", "fixed,vp,ap,nap,vp_ap,vp_nap",
            "--seed", "1",
            "--nodes", "6",
            "--samples", "120",
            "--ambient-dim", "8",
            "--latent-dim", "2",
            "--max-iterations", "60",
            "--output-dir", out,
        ]
    )
    assert code == 0
    csv_lines = (out / "comparison.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 6
    assert [line.split(",")[0] for line in csv_lines[1:]] == [
        "fixed", "vp", "ap", "nap", "vp_ap", "vp_nap",
    ]


def test_sweep_parallel_jobs_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = [
        "sweep",
        "--scheme", "fixed,vp",
        "--seed", "1",
        *FAST,
    ]
    assert _run_cli([*base, "--output-dir", serial]) == 0
    assert _run_cli([*base, "--jobs", "2", "--output-dir", parallel]) == 0
    for cell in ("fixed_complete_n6_seed1", "vp_complete_n6_seed1"):
        assert (serial / cell / "trace.csv").read_bytes() == (
            parallel / cell / "trace.csv"
        ).read_bytes()


@pytest.mark.parametrize("source", ["flag-0", "flag-minus-5", "file-0"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, source):
    # as a flag and as the config-file key, before any cell runs
    if source == "file-0":
        path = tmp_path / "sweep.cfg"
        path.write_text("jobs = 0\n")
        extra = ["--config", path]
    else:
        extra = ["--jobs", "0" if source == "flag-0" else "-5"]
    out = tmp_path / "sweep"
    flags = ["--scheme", "fixed", "--seed", "1", "--max-iterations", "3", "--nodes", "4"]
    code = _run_cli(["sweep", *flags, "--samples", "40", *extra, "--output-dir", out])
    assert code == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _flag_or_file(tmp_path, source, key, flag, value):
    # the setting as a command-line flag or as a config-file key
    if source == "flag":
        return [flag, value]
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = {value}\n")
    return ["--config", path]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "key,flag,value,repeated",
    [
        ("scheme", "--scheme", "fixed,vp,fixed", "'fixed'"),
        ("topology", "--topology", "ring,ring", "'ring'"),
        ("num_nodes", "--nodes", "4,6,4", "4"),
        ("seed", "--seed", "1,1", "1"),
    ],
)
def test_sweep_rejects_a_repeated_value(tmp_path, capsys, source, key, flag, value, repeated):
    # a repeated value would run one cell twice into the same directory
    out = tmp_path / "sweep"
    extra = _flag_or_file(tmp_path, source, key, flag, value)
    code = _run_cli(["sweep", *extra, "--max-iterations", "3", "--output-dir", out])
    assert code == 1
    assert f"{key} list repeats {repeated}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "key,flag,bound",
    [("eta0", "--eta0", "> 0"), ("budget", "--budget", "> 0"), ("convergence_tol", "--tol", ">= 0")],
)
def test_run_rejects_an_infinite_penalty_setting(tmp_path, capsys, source, key, flag, bound):
    out = tmp_path / "out"
    extra = _flag_or_file(tmp_path, source, key, flag, "inf")
    code = _run_cli(["run", "--scheme", "nap", *FAST, *extra, "--output-dir", out])
    assert code == 1
    assert f"{key} must be finite and {bound}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_empty_scheme_list(tmp_path, capsys):
    code = _run_cli(["sweep", "--scheme", "", "--output-dir", tmp_path])
    assert code == 1
    assert "scheme list must not be empty" in capsys.readouterr().err


def test_sweep_records_per_cell_errors(tmp_path):
    # 200 samples cannot be split across 300 nodes: the cell fails, the
    # sweep still completes and reports the error
    out = tmp_path / "sweep"
    code = _run_cli(
        [
            "sweep",
            "--scheme", "fixed",
            "--nodes", "6,300",
            "--seed", "1",
            "--samples", "120",
            "--ambient-dim", "8",
            "--latent-dim", "2",
            "--max-iterations", "40",
            "--output-dir", out,
        ]
    )
    assert code == 0
    cells = json.loads((out / "comparison.json").read_text())["cells"]
    by_nodes = {c["num_nodes"]: c for c in cells}
    assert by_nodes[6]["errors"] == []
    assert by_nodes[300]["errors"]


def test_sweep_records_a_diverged_cell_and_aggregates_the_rest(tmp_path, monkeypatch):
    # The first cell (seed 1) diverges: its message goes under the row's
    # errors, its artifacts stay, and seed 2 is aggregated alone.
    _explode_first_run(monkeypatch)
    out = tmp_path / "sweep"
    assert _run_cli(["sweep", "--scheme", "fixed", *FAST, "--seed", "1,2", "--output-dir", out]) == 0
    (row,) = json.loads((out / "comparison.json").read_text())["cells"]
    diverged = json.loads((out / "fixed_complete_n6_seed1" / "summary.json").read_text())
    assert diverged["outcome"] == "diverged"
    assert row["errors"] == [diverged["message"]]
    assert (out / "fixed_complete_n6_seed1" / "trace.csv").exists()
    seed2 = json.loads((out / "fixed_complete_n6_seed2" / "summary.json").read_text())
    assert row["runs"] == 1 and row["median_iterations"] == seed2["iterations"]
    assert row["all_converged"] is (seed2["outcome"] == "converged")


def _write_measurements(path, frames=12, points=40, seed=2):
    np.savetxt(path, generate_rigid_measurements(frames, points, 0.01, seed=seed), delimiter=",")


def test_sfm_reports_angles(tmp_path):
    meas = tmp_path / "meas.csv"
    _write_measurements(meas)
    out = tmp_path / "sfm"
    code = _run_cli(
        [
            "sfm",
            "--measurements", meas,
            "--scheme", "fixed",
            "--max-iterations", "400",
            "--output-dir", out,
        ]
    )
    assert code in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["num_nodes"] == 5  # five cameras by default
    assert summary["measurements"]["num_frames"] == 12
    assert summary["max_angle_deg"] < 5.0


def test_sfm_rejects_more_nodes_than_frames(tmp_path, capsys):
    meas = tmp_path / "meas.csv"
    _write_measurements(meas, frames=3)
    code = _run_cli(
        ["sfm", "--measurements", meas, "--nodes", "4", "--output-dir", tmp_path]
    )
    assert code == 1
    assert "frames" in capsys.readouterr().err


def test_sweep_row_reports_its_worst_angle(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert _run_cli(["sweep", "--scheme", "fixed", *FAST, "--seed", "1,2,3", "--output-dir", out]) == 0
    (row,) = json.loads((out / "comparison.json").read_text())["cells"]
    angles = [
        json.loads((out / f"fixed_complete_n6_seed{seed}" / "summary.json").read_text())["max_angle_deg"]
        for seed in (1, 2, 3)
    ]
    assert row["worst_max_angle_deg"] == max(angles)
    assert row["median_max_angle_deg"] == sorted(angles)[1]
    assert f"worst {max(angles):.2f} deg" in capsys.readouterr().out


def test_sfm_requires_measurements(tmp_path, capsys):
    code = _run_cli(["sfm", "--output-dir", tmp_path])
    assert code == 1
    assert "measurements" in capsys.readouterr().err


def _exit_code(args):
    try:
        return _run_cli(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args,message",
    [
        (["run", "--scheme", "bogus"], "scheme must be one of"),
        (["run", "--scheme", "fixed,vp"], "scheme must be one of"),
        (["run", "--nodes", "abc"], "argument --nodes: invalid int value"),
        (["sweep", "--nodes", "6,abc"], "argument --nodes: invalid int value: '6,abc'"),
        (["run", "--bogus-flag", "1"], "unrecognized arguments: --bogus-flag"),
        (["sweep", "--measurements", "tracks.csv"], "unrecognized arguments: --measurements"),
        (["run", "--mu", "5"], "unrecognized arguments: --mu"),
        (["run", "--seed", "-1"], "error: seed must be >= 0"),
        (["run", "--data-seed", "-1"], "error: data seed must be >= 0"),
    ],
    ids=[
        "bad-scheme",
        "list-under-run",
        "bad-int",
        "bad-int-in-list",
        "unknown-flag",
        "flag-of-other-command",
        "published-constant",
        "negative-seed",
        "negative-data-seed",
    ],
)
def test_usage_errors_exit_one(tmp_path, capsys, args, message):
    # exit code 2 means "iteration cap reached", so a usage error must not use it
    assert _exit_code([*args, "--output-dir", tmp_path]) == 1
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert _exit_code(["run", "--help"]) == 0
    assert "--tol" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--nodes", "6,0"], "num_nodes must be >= 1"),
        (["--scheme", "fixed,bogus"], "scheme must be one of"),
        (["--samples", "0"], "num_samples must be >= 1"),
        (["--noise-variance", "nan"], "noise_variance must be finite and >= 0"),
        (["--noise-variance", "inf"], "noise_variance must be finite and >= 0"),
        (["--seed=-1,2"], "seed must be >= 0"),
        (["--topology", "complete,ring", "--nodes", "6,2"], "ring graph needs n >= 3, got 2"),
        (["--topology", "cluster", "--nodes", "4,5"], "cluster graph needs even n >= 4, got 5"),
    ],
    ids=[
        "zero-nodes",
        "bad-scheme",
        "zero-samples",
        "nan-noise-variance",
        "inf-noise-variance",
        "negative-seed",
        "small-ring",
        "odd-cluster",
    ],
)
def test_sweep_fails_before_any_cell_on_a_value_no_run_accepts(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    code = _run_cli(["sweep", "--seed", "1", *FAST, *flags, "--output-dir", out])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# The config surface: every key with its flag, default, and a sample
# value as text and as echoed. Keys, flags and defaults must not drift.
SURFACE = {
    "scheme": ("--scheme", "fixed", "vp", "vp"),
    "topology": ("--topology", "complete", "ring", "ring"),
    "num_nodes": ("--nodes", 20, "6", 6),
    "seed": ("--seed", 1, "3", 3),
    "max_iterations": ("--max-iterations", 300, "40", 40),
    "convergence_tol": ("--tol", 1e-3, "1e-4", 1e-4),
    "eta0": ("--eta0", 10.0, "3", 3.0),
    "t_max": ("--t-max", 50, "20", 20),
    "budget": ("--budget", 1.0, "2", 2.0),
    "num_samples": ("--samples", 500, "120", 120),
    "ambient_dim": ("--ambient-dim", 20, "8", 8),
    "latent_dim": ("--latent-dim", 5, "2", 2),
    "noise_variance": ("--noise-variance", 0.2, "0.1", 0.1),
    "data_seed": ("--data-seed", 0, "4", 4),
    "measurements": ("--measurements", None, "tracks.csv", "tracks.csv"),
    "output_dir": ("--output-dir", "runs", "elsewhere", "elsewhere"),
    "jobs": ("--jobs", 1, "2", 2),
}
SWEEP_ONLY = {"jobs"}
SYNTHETIC = {"num_samples", "ambient_dim", "latent_dim", "noise_variance", "data_seed"}


def _commands_of(key):
    # the subcommands that take the key as a flag
    if key in SWEEP_ONLY:
        return ("sweep",)
    if key == "measurements":
        return ("sfm",)
    return ("run", "sweep") if key in SYNTHETIC else ("run", "sweep", "sfm")


def test_config_surface_keys_flags_and_defaults(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    assert set(cli.SETTINGS) == set(SURFACE)
    for command in ("run", "sweep", "sfm"):
        defaults = {k: v[1] for k, v in SURFACE.items() if command in _commands_of(k)}
        assert cli.ExperimentConfig().echo(command) == defaults
    parser = cli.build_parser()
    for key, (flag, _, text, _) in SURFACE.items():
        for command in ("run", "sweep", "sfm"):
            if command not in _commands_of(key):
                with pytest.raises(SystemExit):
                    parser.parse_args([command, flag, text])
            else:
                assert getattr(parser.parse_args([command, flag, text]), key) is not None


@pytest.mark.parametrize("key", sorted(SYNTHETIC))
def test_sfm_rejects_the_synthetic_data_flags(tmp_path, capsys, key):
    # sfm's data is the measurement file: a synthetic-data flag would be
    # echoed in its summary while describing no data that the run read
    meas = tmp_path / "meas.csv"
    _write_measurements(meas)
    flag, _, text, _ = SURFACE[key]
    out = tmp_path / "sfm"
    assert _exit_code(["sfm", "--measurements", meas, flag, text, "--output-dir", out]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", list(SURFACE))
def test_config_key_by_file_equals_key_by_flag(tmp_path, monkeypatch, key):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    # under every command that takes the key; sweep takes a grid key as a list
    flag, default, text, echoed = SURFACE[key]
    parser = cli.build_parser()
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    for command in _commands_of(key):
        by_file = cli.resolve_config(parser.parse_args([command, "--config", str(cfg_file)]))
        by_flag = cli.resolve_config(parser.parse_args([command, flag, text]))
        assert by_file == by_flag
        cfg, grid = by_flag
        if command == "sweep" and key in cli.GRID:
            assert (cfg, grid) == (cli.ExperimentConfig(), {key: (echoed,)})
        else:
            assert grid == {} and cfg != cli.ExperimentConfig()
            assert cfg.echo(command) == {**cli.ExperimentConfig().echo(command), key: echoed}


def test_config_none_and_empty_values():
    assert cli.SETTINGS["measurements"].parse("none") is None
    assert cli.SETTINGS["measurements"].parse("") is None
    assert cli.build_parser().parse_args(["sweep", "--scheme", ""]).scheme == ()


def test_summary_config_echoes_every_key(tmp_path):
    # every key of the summary's command, and no other
    out = tmp_path / "out"
    assert _run_cli(["run", *FAST, "--max-iterations", "3", "--output-dir", out]) in (0, 2)
    echoed = json.loads((out / "summary.json").read_text())["config"]
    assert set(echoed) == {key for key in SURFACE if "run" in _commands_of(key)}
    assert len(echoed) == 15
    meas = tmp_path / "meas.csv"
    _write_measurements(meas)
    sfm_out = tmp_path / "sfm"
    assert _run_cli(["sfm", "--measurements", meas, "--max-iterations", "3", "--output-dir", sfm_out]) in (0, 2)
    echoed = json.loads((sfm_out / "summary.json").read_text())["config"]
    assert set(echoed) == {key for key in SURFACE if "sfm" in _commands_of(key)}
    assert len(echoed) == 11 and not SYNTHETIC & set(echoed)
    assert echoed["num_nodes"] == 5


def test_summary_holds_each_fact_once(tmp_path):
    # The top-level keys of a budgeted run's, an sfm run's and a quadratic
    # run's summary. The seed is only in the config echo and the exhausted
    # edge count only in final.
    from netadmm import engine, metrics

    common = {"config", "iterations", "converged", "outcome", "message", "final", "m_step"}
    angles = {"max_angle_deg", "per_node_angle_deg", "consensus_gap_deg"}
    out = tmp_path / "nap"
    assert _run_cli(["run", "--scheme", "nap", *FAST, "--output-dir", out]) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == common | angles | {"budget"}
    assert set(summary["budget"]) == {"ceilings", "max_ceiling"}
    assert summary["config"]["seed"] == 1
    assert set(summary["final"]) == {
        "objective", "max_primal", "max_dual", "eta_min", "eta_max", "eta_mean", "exhausted_edges",
    }
    meas = tmp_path / "meas.csv"
    _write_measurements(meas)
    out = tmp_path / "sfm"
    args = ["sfm", "--measurements", meas, "--max-iterations", "5", "--output-dir", out]
    assert _run_cli(args) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == common | angles | {"measurements"}
    assert "path" not in summary["measurements"]  # the config echo holds it
    cfg = engine.RunConfig(num_nodes=3, scheme="ap", max_iterations=5)
    centers = np.random.default_rng(0).normal(size=(3, 2))
    result = engine.run(cfg, lambda shards, rngs, graph: engine.QuadraticNodes(shards, graph), centers)
    assert set(metrics.run_report(result)) == common


def test_sweep_comparison_csv_rows_carry_the_json_cells(tmp_path):
    out = tmp_path / "sweep"
    args = ["sweep", "--scheme", "fixed,vp", *FAST, "--nodes", "6,300", "--seed", "1,2"]
    assert _run_cli([*args, "--output-dir", out]) == 0
    cells = json.loads((out / "comparison.json").read_text())["cells"]
    with (out / "comparison.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["num_nodes"] for row in rows] == ["6", "300", "6", "300"]
    for row, cell in zip(rows, cells, strict=True):
        assert row.pop("errors") == "; ".join(cell["errors"])
        for key in ("median_max_angle_deg", "worst_max_angle_deg"):
            angle = row.pop(key)
            if key in cell:
                assert float(angle) == pytest.approx(cell[key], rel=1e-11)
            else:
                assert angle == ""
        assert row.pop("runs") == str(cell["runs"])
        assert row == {key: str(cell.get(key, "")) for key in row}
