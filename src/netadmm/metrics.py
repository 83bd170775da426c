"""Evaluation metrics: subspace angles, run reports, speed-up figures."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .engine import iterations_to_convergence

__all__ = [
    "SubspaceAngleReport",
    "subspace_angle",
    "angle_report",
    "consensus_gap_deg",
    "run_report",
    "lower_median",
    "aggregate_reports",
    "speedup",
]


def _orthonormalize(basis: np.ndarray, label: str) -> np.ndarray:
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError(f"{label} must be a 2-d basis matrix")
    q, r = np.linalg.qr(basis)
    # Rank check via the triangular factor; a collapsed column means the
    # input does not span a subspace of its nominal dimension.
    diag = np.abs(np.diag(r))
    if np.any(diag < 1e-10 * max(1.0, diag.max(initial=0.0))):
        raise ValueError(f"{label} is rank deficient")
    return q


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between two column spans, in degrees.

    Both inputs are orthonormalized with QR; the angle is
    ``arccos`` of the smallest singular value of ``Qa.T @ Qb``, clamped
    to [0, 90]. Below 45 degrees the equivalent sine form (largest
    singular value of ``Qb`` minus its projection onto ``Qa``) is used
    instead, which stays accurate where arccos loses half the precision.
    Symmetric in its arguments and invariant to right-multiplication by
    any orthogonal matrix.
    """
    qa = _orthonormalize(a, "first basis")
    qb = _orthonormalize(b, "second basis")
    if qa.shape[0] != qb.shape[0]:
        raise ValueError("bases live in different ambient dimensions")
    overlap = qa.T @ qb
    cos_largest = np.clip(np.linalg.svd(overlap, compute_uv=False).min(), -1.0, 1.0)
    if cos_largest**2 > 0.5:
        residual = qb - qa @ overlap
        sin_largest = np.clip(np.linalg.svd(residual, compute_uv=False).max(), 0.0, 1.0)
        angle = np.degrees(np.arcsin(sin_largest))
    else:
        angle = np.degrees(np.arccos(cos_largest))
    return float(np.clip(angle, 0.0, 90.0))


@dataclass(frozen=True)
class SubspaceAngleReport:
    """Per-node subspace errors against a reference basis."""

    per_node_angle_deg: tuple[float, ...]
    max_angle_deg: float


def angle_report(bases: Sequence[np.ndarray], reference: np.ndarray) -> SubspaceAngleReport:
    """Angles of every node's basis against a common reference."""
    angles = tuple(subspace_angle(basis, reference) for basis in bases)
    return SubspaceAngleReport(angles, max(angles))


def consensus_gap_deg(bases: Sequence[np.ndarray]) -> float:
    """Largest principal angle between any two node subspaces, in degrees.

    0 for a single node. Unlike the angles to a reference, this shows
    whether the nodes agree with each other.
    """
    return max((subspace_angle(a, b) for a, b in combinations(bases, 2)), default=0.0)


def run_report(records, node_bases: Sequence[np.ndarray], reference: np.ndarray) -> dict:
    """Summarize one completed run.

    ``records`` is the engine's iteration stream (objects with ``t`` and
    ``converged`` attributes). Iterations-to-convergence counts completed
    iterations up to the first converged one; a run that never converges
    reports the full iteration count and ``converged: False``.
    ``consensus_gap_deg`` is the largest pairwise angle between the
    nodes' final subspaces: a run can stop "converged" with its nodes
    far apart.
    """
    report = angle_report(node_bases, reference)
    return {
        "iterations": iterations_to_convergence(records),
        "converged": any(record.converged for record in records),
        "max_angle_deg": report.max_angle_deg,
        "per_node_angle_deg": list(report.per_node_angle_deg),
        "consensus_gap_deg": consensus_gap_deg(node_bases),
    }


def lower_median(values: Sequence[float]) -> float:
    """Median using the lower of the two middle order statistics."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def aggregate_reports(reports: Sequence[dict], angle_filter_deg: float | None = None) -> dict:
    """Aggregate per-seed run reports into medians.

    ``angle_filter_deg`` drops runs whose max angle exceeds the threshold
    before aggregating (useful for screening degenerate instances);
    the number of dropped runs is reported. With no run left there are
    no medians: only ``runs`` (0) and ``filtered_out``.
    """
    kept = list(reports)
    if angle_filter_deg is not None:
        kept = [r for r in kept if r["max_angle_deg"] <= angle_filter_deg]
    summary = {"runs": len(kept), "filtered_out": len(reports) - len(kept)}
    if kept:
        summary["median_iterations"] = lower_median([r["iterations"] for r in kept])
        summary["median_max_angle_deg"] = lower_median([r["max_angle_deg"] for r in kept])
        summary["all_converged"] = all(r["converged"] for r in kept)
    return summary


def speedup(baseline_iters: float, candidate_iters: float) -> float:
    """Percent reduction in iterations relative to a baseline."""
    if baseline_iters <= 0:
        raise ValueError("baseline iteration count must be positive")
    return 100.0 * (baseline_iters - candidate_iters) / baseline_iters
