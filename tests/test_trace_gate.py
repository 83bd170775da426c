import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_gate.py"
_spec = importlib.util.spec_from_file_location("trace_gate", _SCRIPT)
trace_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_gate)

HEADER = "t,objective,max_primal,max_dual,eta_min,eta_max,eta_mean,converged\n"
ROWS = "0,100.5,0.25,0.5,10,10,10,0\n1,99.25,0.125,0.25,10,10,10,1\n"
M_STEP = {"cycles": 40, "cap_hits": 0, "ridge": 0}


def _write_set(root: Path, body: str = ROWS, changed: str | None = None) -> Path:
    for name, _ in trace_gate.reference_runs():
        run = root / name
        run.mkdir(parents=True)
        text = changed if changed is not None and name == "ap_complete_1" else body
        (run / "trace.csv").write_text(HEADER + text)
        (run / "summary.json").write_text(json.dumps({"m_step": M_STEP}))
    return root


def test_reference_set_has_31_runs():
    names = [name for name, _ in trace_gate.reference_runs()]
    assert len(names) == len(set(names)) == 31


@pytest.mark.parametrize(
    "changed,passes,summary",
    [
        (None, True, "31 of 31 byte-identical"),
        (ROWS.replace("99.25", "99.2500000001"), True, "30 of 31 byte-identical"),
        (ROWS.replace("99.25", "99.26"), False, "worst relative field difference 0.000101"),
        (ROWS.replace(",1\n", ",0\n"), False, "30 of 31"),
        (ROWS.splitlines(keepends=True)[0], False, "30 of 31"),
    ],
    ids=["identical", "within-rtol", "field-off", "flag-off", "row-missing"],
)
def test_compare_gates_rows_flags_and_fields(tmp_path, capsys, changed, passes, summary):
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new", changed=changed)
    assert trace_gate.compare(base, new, rtol=1e-9) is passes
    out = capsys.readouterr().out
    assert summary in out and "M-step counts differ in 0;" in out


def test_compare_fails_on_missing_run(tmp_path):
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new")
    (new / "vp_cluster_eta3" / "trace.csv").unlink()
    assert trace_gate.compare(base, new, rtol=1e-9) is False


@pytest.mark.parametrize(
    "changed", [None, ROWS.replace("99.25", "99.2500000001")], ids=["identical", "within-rtol"]
)
def test_compare_reports_m_step_counts_without_failing(tmp_path, capsys, changed):
    # Counts that moved, or a summary gone, are printed on the run's line
    # and counted on the total line; they fail nothing.
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new", changed=changed)
    moved = {**M_STEP, "cycles": 41, "cap_hits": 2}
    for name in ("ap_complete_1", "sfm_vp_ap"):
        (new / name / "summary.json").write_text(json.dumps({"m_step": moved}))
    (new / "vp_cluster_eta3" / "summary.json").unlink()
    assert trace_gate.compare(base, new, rtol=1e-9) is True
    *runs, total = capsys.readouterr().out.splitlines()
    by_run = dict(line.split(": ", 1) for line in runs)
    assert by_run["sfm_vp_ap"] == f"byte-identical; m_step {M_STEP} -> {moved}"
    assert by_run["ap_complete_1"].endswith(f"; m_step {M_STEP} -> {moved}")
    assert by_run["vp_cluster_eta3"] == f"byte-identical; m_step {M_STEP} -> None"
    assert by_run["fixed_complete_1"] == "byte-identical"
    assert total.endswith("M-step counts differ in 3; PASS")


def test_compare_reports_angle_differences_without_failing(tmp_path, capsys):
    # Angles that both summaries hold are compared by their largest
    # absolute difference; a summary without them adds nothing.
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new")
    angles = {"max_angle_deg": 2.0, "per_node_angle_deg": [1.0, 2.0], "consensus_gap_deg": 3.0}
    moved = {**angles, "per_node_angle_deg": [1.0, 2.5], "consensus_gap_deg": 2.75}
    for name, new_angles in (("vp_ring_1", moved), ("sfm_vp_ap", angles)):
        (base / name / "summary.json").write_text(json.dumps({"m_step": M_STEP, **angles}))
        (new / name / "summary.json").write_text(json.dumps({"m_step": M_STEP, **new_angles}))
    (new / "ap_ring_2" / "summary.json").write_text(json.dumps({"m_step": M_STEP, **angles}))
    assert trace_gate.compare(base, new, rtol=1e-9) is True
    *runs, total = capsys.readouterr().out.splitlines()
    by_run = dict(line.split(": ", 1) for line in runs)
    assert by_run["vp_ring_1"] == "byte-identical; angles 0.5 deg"
    assert by_run["sfm_vp_ap"] == "byte-identical; angles 0 deg"
    assert by_run["ap_ring_2"] == "byte-identical"
    assert "; largest angle difference 0.5 deg in vp_ring_1 over 2 runs; " in total
    assert total.endswith("M-step counts differ in 0; PASS")


def test_compare_fails_on_an_outcome_that_both_summaries_hold_and_that_differs(tmp_path, capsys):
    # A summary without an outcome (written before runs had one) is noted
    # and passes; two outcomes that differ fail the run, even on an
    # identical trace.
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new")
    for name, (before, after) in {
        "fixed_ring_1": (None, "cap"),
        "vp_ring_1": ("converged", "converged"),
        "ap_ring_1": ("converged", "diverged"),
    }.items():
        for root, outcome in ((base, before), (new, after)):
            summary = {"m_step": M_STEP} if outcome is None else {"m_step": M_STEP, "outcome": outcome}
            (root / name / "summary.json").write_text(json.dumps(summary))
    assert trace_gate.compare(base, new, rtol=1e-9) is False
    *runs, total = capsys.readouterr().out.splitlines()
    by_run = dict(line.split(": ", 1) for line in runs)
    assert by_run["fixed_ring_1"] == "byte-identical; outcome None -> cap"
    assert by_run["vp_ring_1"] == "byte-identical"
    assert by_run["ap_ring_1"] == "byte-identical; outcome converged -> diverged  FAIL"
    assert total.startswith("31 of 31 byte-identical;") and total.endswith("; FAIL")


def test_compare_fails_on_a_summary_that_is_not_strict_json(tmp_path, capsys):
    # JSON has no NaN: a summary that holds one fails its run.
    base = _write_set(tmp_path / "base")
    new = _write_set(tmp_path / "new")
    (new / "vp_ring_1" / "summary.json").write_text('{"m_step": {}, "final": {"objective": NaN}}')
    assert trace_gate.compare(base, new, rtol=1e-9) is False
    *runs, total = capsys.readouterr().out.splitlines()
    by_run = dict(line.split(": ", 1) for line in runs)
    assert by_run["vp_ring_1"] == "summary.json holds NaN  FAIL"
    assert by_run["ap_ring_1"] == "byte-identical"
    assert total.startswith("30 of 31 byte-identical;") and total.endswith("; FAIL")
