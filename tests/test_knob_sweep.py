import importlib.util
from pathlib import Path

import netadmm as nd

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "knob_sweep.py"
_spec = importlib.util.spec_from_file_location("knob_sweep", _SCRIPT)
knob_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(knob_sweep)


def test_sweep_runs_a_cell_and_marks_removed_knobs():
    # Three ap iterations on complete(20) at eta0 = 10: the hook reads every
    # node's W through the group each iteration, and a removed
    # PenaltyConfig field reads "removed".
    sweep = knob_sweep.Sweep(nd)
    out = sweep.run("ap", ("complete", 10.0, 3), {}, 1)
    assert isinstance(out, tuple) and len(out) == 3
    reached, eta_min, eta_max = out
    assert reached is None and 0 < eta_min <= eta_max
    assert sweep.run("ap", ("complete", 10.0, 3), {"eval_point": "neighbor"}, 1) == "removed"
