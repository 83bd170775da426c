import numpy as np
import pytest
from scipy.linalg import subspace_angles as scipy_subspace_angles

from netadmm.engine import IterationRecord
from netadmm.metrics import (
    aggregate_reports,
    angle_report,
    consensus_gap_deg,
    lower_median,
    run_report,
    speedup,
    subspace_angle,
)


def _record(t, converged):
    return IterationRecord(t, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, converged)


def test_identical_subspaces():
    A = np.random.default_rng(0).normal(size=(6, 3))
    assert subspace_angle(A, A) == pytest.approx(0.0, abs=1e-10)


def test_orthogonal_lines():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_angle(e1, e2) == pytest.approx(90.0)


def test_diagonal_line():
    e1 = np.array([[1.0], [0.0]])
    diag = np.array([[1.0], [1.0]])
    assert subspace_angle(e1, diag) == pytest.approx(45.0)


def test_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.normal(size=(8, 3))
        B = rng.normal(size=(8, 3))
        assert subspace_angle(A, B) == pytest.approx(subspace_angle(B, A), abs=1e-10)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert subspace_angle(A @ q, B) == pytest.approx(subspace_angle(A, B), abs=1e-10)


def test_matches_scipy_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.normal(size=(10, 4))
        B = rng.normal(size=(10, 4))
        expected = np.degrees(scipy_subspace_angles(A, B).max())
        assert subspace_angle(A, B) == pytest.approx(expected, abs=1e-8)


def test_angle_scaling_invariance_and_clamping():
    A = np.random.default_rng(3).normal(size=(5, 2))
    # scaled copies of the same basis can push cosines past 1 numerically
    assert subspace_angle(A, 3.0 * A) == pytest.approx(0.0, abs=1e-10)


def test_rank_deficient_rejected():
    A = np.ones((4, 2))
    with pytest.raises(ValueError, match="rank deficient"):
        subspace_angle(A, np.eye(4)[:, :2])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="ambient"):
        subspace_angle(np.eye(4)[:, :2], np.eye(5)[:, :2])
    with pytest.raises(ValueError, match="2-d"):
        subspace_angle(np.ones(4), np.eye(4)[:, :1])


def test_angle_report_max():
    ref = np.eye(4)[:, :2]
    bases = [ref, np.eye(4)[:, 1:3]]
    report = angle_report(bases, ref)
    assert report.per_node_angle_deg[0] == pytest.approx(0.0, abs=1e-10)
    assert report.max_angle_deg == pytest.approx(90.0)


def test_run_report_convergence_index():
    records = [_record(0, False), _record(1, False), _record(2, True), _record(3, True)]
    ref = np.eye(3)[:, :1]
    out = run_report(records, [ref], ref)
    assert out["iterations"] == 3
    assert out["converged"] is True
    assert out["max_angle_deg"] == pytest.approx(0.0, abs=1e-10)


def test_run_report_never_converges():
    records = [_record(t, False) for t in range(5)]
    ref = np.eye(3)[:, :1]
    out = run_report(records, [ref], ref)
    assert out["iterations"] == 5
    assert out["converged"] is False


def test_consensus_gap_is_largest_pairwise_angle():
    # three planes through e1 in R^4: the second column turned by +30 and
    # -30 degrees from e2 toward e3, so the nodes at +-30 are 60 apart
    # while each is only 30 degrees from the first node
    e1, e2, e3 = np.eye(4)[:, :3].T
    turn = np.radians(30.0)

    def plane(angle):
        return np.column_stack([e1, np.cos(angle) * e2 + np.sin(angle) * e3])

    rng = np.random.default_rng(4)
    bases = [plane(0.0), 2.5 * plane(turn), plane(-turn) @ rng.normal(size=(2, 2))]
    assert consensus_gap_deg(bases) == pytest.approx(60.0, abs=1e-9)
    assert consensus_gap_deg(bases[:2]) == pytest.approx(30.0, abs=1e-9)
    assert consensus_gap_deg(bases[:1]) == 0.0
    records = [_record(0, True)]
    report = run_report(records, bases, plane(0.0))
    assert report["consensus_gap_deg"] == pytest.approx(60.0, abs=1e-9)
    assert report["max_angle_deg"] == pytest.approx(30.0, abs=1e-9)


def test_lower_median():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0
    assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert lower_median([5.0]) == 5.0
    with pytest.raises(ValueError):
        lower_median([])


def test_aggregate_reports_medians_and_filter():
    reports = [
        {"iterations": 10, "max_angle_deg": 2.0, "converged": True},
        {"iterations": 30, "max_angle_deg": 4.0, "converged": True},
        {"iterations": 20, "max_angle_deg": 88.0, "converged": True},
    ]
    agg = aggregate_reports(reports)
    assert agg["median_iterations"] == 20
    assert agg["median_max_angle_deg"] == 4.0
    filtered = aggregate_reports(reports, angle_filter_deg=15.0)
    assert filtered["runs"] == 2
    assert filtered["filtered_out"] == 1
    assert filtered["median_iterations"] == 10


def test_speedup_quoted_values():
    assert speedup(100, 59.8) == pytest.approx(40.2)
    assert speedup(100, 62.7) == pytest.approx(37.3)
    assert speedup(7, 7) == 0.0
    assert speedup(100, 50) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        speedup(0, 10)
