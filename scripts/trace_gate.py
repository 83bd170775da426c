"""Reference traces of the CLI and the engine, and a comparison of two sets of them.

The reference set is 31 runs. 29 are ``netadmm run`` at the CLI defaults
(20 nodes, 500 x 20 synthetic data, M = 5, eta0 = 10, 300 iterations,
tolerance 1e-3, ranking at the edge midpoints):

- all six schemes on complete(20) and ring(20), run seeds 1 and 2;
- vp, vp_ap and vp_nap on cluster(20) at eta0 = 3, run seed 1;
- vp_nap on cluster(20), run seed 3, configured only by the ``key = value``
  file ``CONFIG_TEXT``, which ``write`` puts in the run's directory. Its
  keys take a string, a float and an int;
- fixed on complete(20), run seed 1, on noiseless data
  (``--noise-variance 0``): each node's 25 samples span only the 5-d
  subspace, so its 20 x 20 scatter is singular and ``ppca.shard_stats``
  takes its symmetric square root instead of the Cholesky factor.

One is ``netadmm sfm`` with vp_ap on complete(5), reading the CSV
``SFM_FILE``, which ``write`` puts in the run's directory: the 80 x 200
matrix of ``data.generate_rigid_measurements(40, 200, noise_sigma=0.01,
seed=5)`` written with ``%.17g``, so it passes through the CSV loader.

The last, ``QUADRATIC_RUN``, checks the engine's quadratic oracle rather
than the CLI: ``engine.QuadraticNodes`` at the centers of
``demos/02_quadratic_consensus.py`` (8 draws of ``normal(size=3)`` from
``default_rng(0)``), ap on complete(8), eta0 = 10, no stopping rule
(tolerance 0), 200 iterations, through ``engine.run``,
``metrics.run_report`` and ``metrics.write_run``, the CLI's writer.

Write a set, one directory per run holding ``trace.csv`` and
``summary.json``::

    python scripts/trace_gate.py write OUT_DIR [--src SRC_DIR]

``--src`` puts another checkout's ``src`` first on the import path, so
the same script writes the set of another commit with the same library
API. A commit from before ``metrics.write_run`` has its set written by
its own copy of this script, run in a checkout of it (a ``git worktree``).
Compare two sets::

    python scripts/trace_gate.py compare BASE_DIR NEW_DIR [--rtol 1e-9]

The comparison reports, per run, whether the traces are byte-identical,
whether they have the same rows (iteration count) and converged flags,
and the largest relative difference of any numeric field. It exits 1
when a run is missing, rows or flags differ, or a field differs by more
than ``--rtol`` relative. It also reads the ``m_step`` block of each run's
``summary.json`` (precision steps, cap hits and ridge retries) and prints
both sides' counts on a run's line when they differ, and the number of
such runs on the total line. Where both summaries hold the angles
``max_angle_deg``, ``per_node_angle_deg`` and ``consensus_gap_deg`` (the
quadratic run has none), it prints their largest absolute difference in
degrees on the run's line, and the largest over all runs on the total
line. Neither the counts nor the angles fail anything. It prints both sides'
``outcome`` (how the run ended) on a run's line when they differ, and fails
the run when both summaries hold one and they differ; a summary written
before runs had an outcome holds none. Summaries are read as strict JSON:
a run whose ``summary.json`` holds ``NaN`` or ``Infinity``, which JSON
does not have, fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

SCHEMES = ("fixed", "vp", "ap", "nap", "vp_ap", "vp_nap")
CONFIG_RUN, CONFIG_FILE = "vp_nap_cluster_file", "run.cfg"
SFM_RUN, SFM_FILE = "sfm_vp_ap", "tracks.csv"
QUADRATIC_RUN = "quadratic_ap_complete"
ANGLES = ("max_angle_deg", "per_node_angle_deg", "consensus_gap_deg")
CONFIG_TEXT = """\
scheme = vp_nap
topology = cluster
eta0 = 3
seed = 3
"""


def reference_runs() -> list[tuple[str, list[str] | None]]:
    """The reference runs as (directory name, ``netadmm`` command and flags).

    The command is None for ``QUADRATIC_RUN``, which is no CLI run.
    """
    runs = [
        (
            f"{scheme}_{topology}_{seed}",
            ["run", "--scheme", scheme, "--topology", topology, "--seed", str(seed)],
        )
        for scheme in SCHEMES
        for topology in ("complete", "ring")
        for seed in (1, 2)
    ]
    runs += [
        (
            f"{scheme}_cluster_eta3",
            ["run", "--scheme", scheme, "--topology", "cluster", "--eta0", "3"],
        )
        for scheme in ("vp", "vp_ap", "vp_nap")
    ]
    runs.append((CONFIG_RUN, ["run", "--config", CONFIG_FILE]))
    runs.append(("fixed_complete_noiseless", ["run", "--scheme", "fixed", "--noise-variance", "0"]))
    runs.append((SFM_RUN, ["sfm", "--scheme", "vp_ap", "--nodes", "5", "--measurements", SFM_FILE]))
    runs.append((QUADRATIC_RUN, None))
    return runs


def _quadratic_run(run_dir: Path) -> str:
    # QUADRATIC_RUN's trace and summary; returns a one-line report.
    import numpy as np

    from netadmm import engine, metrics, penalty

    rng = np.random.default_rng(0)
    centers = [rng.normal(size=3) for _ in range(8)]
    config = engine.RunConfig(
        topology="complete", num_nodes=8, scheme="ap", penalty=penalty.PenaltyConfig(eta0=10.0),
        max_iterations=200, convergence_tol=0.0,
    )
    result = engine.run(config, lambda shards, rngs, graph: engine.QuadraticNodes(shards, graph), centers)
    metrics.write_run(run_dir, result, metrics.run_report(result, config=dataclasses.asdict(config)))
    return f"{len(result.records)} iterations, objective {result.records[-1].objective:.12g}"


def write(out_dir: Path, src: Path | None) -> None:
    src = src if src is not None else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    import numpy as np

    from netadmm import cli, data

    for name, args in reference_runs():
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
        if args is None:
            print(f"{name}: {_quadratic_run(run_dir)}")
            continue
        if name == CONFIG_RUN:
            (run_dir / CONFIG_FILE).write_text(CONFIG_TEXT)
        if name == SFM_RUN:
            tracks = data.generate_rigid_measurements(40, 200, noise_sigma=0.01, seed=5)
            np.savetxt(run_dir / SFM_FILE, tracks, delimiter=",", fmt="%.17g")
        args = [str(run_dir / a) if a in (CONFIG_FILE, SFM_FILE) else a for a in args]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main([*args, "--output-dir", str(run_dir)])
        print(f"{name}: exit {code}: {printed.getvalue().strip()}")


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _field_diff(base: str, new: str) -> float:
    a, b = float(base), float(new)
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _refuse_constant(token: str):
    raise ValueError(f"summary.json holds {token}")


def _summary(run_dir: Path) -> dict:
    # The run's summary, or {} without one; ValueError unless strict JSON.
    path = run_dir / "summary.json"
    return json.loads(path.read_text(), parse_constant=_refuse_constant) if path.exists() else {}


def _angle_diff(base: dict, new: dict) -> float | None:
    # Largest absolute difference, in degrees, of the angles both summaries
    # hold; None when they share none. Per-node lists of unequal length
    # differ by inf.
    diffs = []
    for key in (k for k in ANGLES if k in base and k in new):
        u, v = (base[key], new[key]) if key == "per_node_angle_deg" else ([base[key]], [new[key]])
        diffs += [abs(x - y) for x, y in zip(u, v)] if len(u) == len(v) else [math.inf]
    return max(diffs, default=None)


def compare(base_dir: Path, new_dir: Path, rtol: float) -> bool:
    """Print one line per run and a total; true when every run passes."""
    ok, identical, worst, counts_differ = True, 0, (0.0, ""), 0
    angles_worst, angle_runs = (0.0, ""), 0
    runs = [name for name, _ in reference_runs()]
    for name in runs:
        base, new = base_dir / name / "trace.csv", new_dir / name / "trace.csv"
        if not (base.exists() and new.exists()):
            print(f"{name}: missing trace")
            ok = False
            continue
        notes = ""
        try:
            base_summary, new_summary = _summary(base_dir / name), _summary(new_dir / name)
        except ValueError as exc:
            print(f"{name}: {exc}  FAIL")
            ok = False
            continue
        base_counts, new_counts = base_summary.get("m_step"), new_summary.get("m_step")
        if base_counts != new_counts:
            counts_differ += 1
            notes = f"; m_step {base_counts} -> {new_counts}"
        base_outcome, new_outcome = base_summary.get("outcome"), new_summary.get("outcome")
        same_outcome = None in (base_outcome, new_outcome) or base_outcome == new_outcome
        if base_outcome != new_outcome:
            notes += f"; outcome {base_outcome} -> {new_outcome}"
        angle_diff = _angle_diff(base_summary, new_summary)
        if angle_diff is not None:
            angle_runs += 1
            notes += f"; angles {angle_diff:.3g} deg"
            if angle_diff > angles_worst[0]:
                angles_worst = (angle_diff, f" in {name}")
        if base.read_bytes() == new.read_bytes():
            identical += 1
            ok &= same_outcome
            print(f"{name}: byte-identical{notes}" + ("" if same_outcome else "  FAIL"))
            continue
        b_rows, n_rows = _rows(base), _rows(new)
        header = b_rows[0]
        flag = header.index("converged")
        same_rows = len(b_rows) == len(n_rows) and b_rows[0] == n_rows[0]
        same_flags = same_rows and all(x[flag] == y[flag] for x, y in zip(b_rows, n_rows))
        run_worst, column = 0.0, ""
        if same_rows:
            for x, y in zip(b_rows[1:], n_rows[1:]):
                for k, (u, v) in enumerate(zip(x, y)):
                    if k != flag and _field_diff(u, v) > run_worst:
                        run_worst, column = _field_diff(u, v), header[k]
        if run_worst > worst[0]:
            worst = (run_worst, f"{name} {column}")
        passed = same_rows and same_flags and run_worst <= rtol and same_outcome
        ok &= passed
        print(
            f"{name}: rows {len(b_rows) - 1} -> {len(n_rows) - 1}, "
            f"flags {'same' if same_flags else 'DIFFER'}, worst field {run_worst:.3g} ({column})"
            + notes
            + ("" if passed else "  FAIL")
        )
    print(
        f"{identical} of {len(runs)} byte-identical; worst relative field difference "
        f"{worst[0]:.3g}{' in ' + worst[1] if worst[1] else ''}; "
        f"largest angle difference {angles_worst[0]:.3g} deg{angles_worst[1]} "
        f"over {angle_runs} runs; "
        f"M-step counts differ in {counts_differ}; {'PASS' if ok else 'FAIL'}"
    )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write the 31 reference traces")
    p_write.add_argument("out_dir", type=Path)
    p_write.add_argument("--src", type=Path, help="import netadmm from this src directory")
    p_compare = sub.add_parser("compare", help="compare two sets of reference traces")
    p_compare.add_argument("base_dir", type=Path)
    p_compare.add_argument("new_dir", type=Path)
    p_compare.add_argument("--rtol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out_dir, args.src)
        return 0
    return 0 if compare(args.base_dir, args.new_dir, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
