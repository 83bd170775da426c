from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import subspace_angles as scipy_subspace_angles

from netadmm.engine import IterationRecord, RunResult
from netadmm.metrics import (
    aggregate_reports,
    consensus_gap_deg,
    largest_angles_deg,
    lower_median,
    run_report,
    subspace_angle,
)
from netadmm.penalty import PenaltyConfig, PenaltyScheduler
from netadmm.topology import build_complete


def _record(t, converged):
    return IterationRecord(t, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, converged)


def _result(outcome="converged", records=None, bases=()):
    # A RunResult under an unbudgeted scheme whose node group holds only what
    # run_report reads: one basis per node and no M-step counts.
    records = [_record(0, outcome == "converged")] if records is None else records
    scheduler = PenaltyScheduler("fixed", build_complete(max(len(bases), 1)), PenaltyConfig())
    nodes = SimpleNamespace(params=SimpleNamespace(W=np.array(bases)), m_step_counts=lambda: (0, 0, 0))
    return RunResult(records, nodes, scheduler, outcome)


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
    # the rank test is relative to the basis's own scale
    tiny = 1e-11 * np.eye(4)[:, :2]
    assert subspace_angle(tiny, np.eye(4)[:, 1:3]) == pytest.approx(90.0)


def test_rank_deficient_rejected():
    A = np.ones((4, 2))
    with pytest.raises(ValueError, match="rank deficient"):
        subspace_angle(A, np.eye(4)[:, :2])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="ambient"):
        subspace_angle(np.eye(4)[:, :2], np.eye(5)[:, :2])
    with pytest.raises(ValueError, match="column count"):
        subspace_angle(np.eye(4)[:, :2], np.eye(4)[:, :1])
    with pytest.raises(ValueError, match="2-d"):
        subspace_angle(np.ones(4), np.eye(4)[:, :1])
    # three columns in the plane: R has two diagonal entries, both nonzero
    wide = np.random.default_rng(8).normal(size=(2, 2, 3))
    with pytest.raises(ValueError, match="no more columns than rows"):
        subspace_angle(*wide)


def test_run_report_max():
    ref = np.eye(4)[:, :2]
    out = run_report(_result(bases=[ref, np.eye(4)[:, 1:3]]), ref)
    assert out["per_node_angle_deg"][0] == pytest.approx(0.0, abs=1e-10)
    assert out["max_angle_deg"] == pytest.approx(90.0)


def test_run_report_convergence_index():
    # The engine stops at the first converged record, so the count is the
    # result's number of records.
    records = [_record(0, False), _record(1, False), _record(2, True)]
    ref = np.eye(3)[:, :1]
    out = run_report(_result("converged", records, [ref]), ref)
    assert (out["iterations"], out["converged"], out["outcome"]) == (3, True, "converged")
    assert out["max_angle_deg"] == pytest.approx(0.0, abs=1e-10)


def test_run_report_never_converges():
    records = [_record(t, False) for t in range(5)]
    ref = np.eye(3)[:, :1]
    out = run_report(_result("cap", records, [ref]), ref)
    assert (out["iterations"], out["converged"], out["outcome"]) == (5, False, "cap")
    assert out["max_angle_deg"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("outcome", ["diverged", "error"])
def test_run_report_scores_no_angles_after_a_failed_run(outcome):
    # The bases of a run that diverged may be NaN; they are not scored.
    records = [_record(t, False) for t in range(4)]
    ref = np.eye(3)[:, :1]
    out = run_report(_result(outcome, records, [np.full((3, 1), np.nan)]), ref)
    assert (out["iterations"], out["converged"], out["outcome"]) == (4, False, outcome)
    assert not {"max_angle_deg", "per_node_angle_deg", "consensus_gap_deg"} & set(out)


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
    report = run_report(_result(bases=bases), plane(0.0))
    assert report["consensus_gap_deg"] == pytest.approx(60.0, abs=1e-9)
    assert report["max_angle_deg"] == pytest.approx(30.0, abs=1e-9)


def test_largest_angles_match_scipy_on_stacks():
    rng = np.random.default_rng(5)
    for J in (1, 5, 20):
        for D in (3, 20, 200):
            for M in (m for m in (1, 3, 5) if m <= D):
                a, b = rng.normal(size=(2, J, D, M))
                pairs = largest_angles_deg(a, b)
                against_first = largest_angles_deg(a, b[0])
                assert pairs.shape == against_first.shape == (J,)
                for k in range(J):
                    expected = np.degrees(scipy_subspace_angles(a[k], b[k]).max())
                    assert pairs[k] == pytest.approx(expected, abs=1e-8)
                    expected = np.degrees(scipy_subspace_angles(a[k], b[0]).max())
                    assert against_first[k] == pytest.approx(expected, abs=1e-8)


def test_consensus_gap_matches_pairwise_angles():
    rng = np.random.default_rng(6)
    center = rng.normal(size=(10, 3))
    bases = [center + 0.3 * rng.normal(size=(10, 3)) for _ in range(7)]
    pairwise = max(subspace_angle(bases[i], bases[j]) for i in range(7) for j in range(i + 1, 7))
    assert consensus_gap_deg(bases) == pytest.approx(pairwise, abs=1e-12)


def test_collapsed_stack_member_is_named():
    stack = np.random.default_rng(7).normal(size=(5, 6, 2))
    stack[3, :, 1] = 2.0 * stack[3, :, 0]
    with pytest.raises(ValueError, match=r"basis\[3\] is rank deficient"):
        consensus_gap_deg(stack)
    with pytest.raises(ValueError, match=r"first basis\[3\] is rank deficient"):
        largest_angles_deg(stack, stack[0])
    with pytest.raises(ValueError, match=r"second basis\[3\] is rank deficient"):
        largest_angles_deg(stack[0], stack)
    with pytest.raises(ValueError, match=r"first basis\[3\] is rank deficient"):
        run_report(_result(bases=stack), stack[0])


def test_lower_median():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0
    assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert lower_median([5.0]) == 5.0
    with pytest.raises(ValueError):
        lower_median([])


def test_aggregate_reports_medians():
    # An 88-degree run counts in the medians like any other, and the worst
    # angle reports what the lower median hides.
    reports = [
        {"iterations": 10, "max_angle_deg": 2.0, "converged": True},
        {"iterations": 30, "max_angle_deg": 4.0, "converged": True},
        {"iterations": 20, "max_angle_deg": 88.0, "converged": False},
    ]
    assert aggregate_reports(reports) == {
        "runs": 3,
        "median_iterations": 20,
        "median_max_angle_deg": 4.0,
        "worst_max_angle_deg": 88.0,
        "all_converged": False,
    }
    assert aggregate_reports([]) == {"runs": 0}
