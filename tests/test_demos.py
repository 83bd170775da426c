"""Every demo runs end to end (03 and 04 take a few seconds each)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_topologies_and_penalties.py",
        "02_quadratic_consensus.py",
        "03_distributed_ppca.py",
        "04_structure_from_motion.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
