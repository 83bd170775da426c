"""Evaluation metrics and run artifacts: subspace angles, run reports, sweep aggregates.

Every angle is the largest principal angle between QR-orthonormalized
bases, atan2(σ_max(Qb − Qa Qaᵀ Qb), σ_min(Qaᵀ Qb)), accurate at 0 and at
90 degrees; :func:`largest_angles_deg` scores whole stacks in one call.

A run's :class:`RunResult` becomes its summary in :func:`run_report`, and
:func:`write_run` writes its artifacts through :func:`write_artifact`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import RunResult

__all__ = [
    "largest_angles_deg",
    "subspace_angle",
    "consensus_gap_deg",
    "run_report",
    "TRACE_COLUMNS",
    "write_artifact",
    "write_run",
    "lower_median",
    "aggregate_reports",
]

#: the fields of an ``engine.IterationRecord`` that ``trace.csv`` holds, in column order
TRACE_COLUMNS = (
    "t", "objective", "max_primal", "max_dual", "eta_min", "eta_max", "eta_mean", "converged"
)


def _orthonormalize(bases, label: str) -> np.ndarray:
    # Q of each basis in a (..., D, M) stack. A basis whose R has a diagonal
    # entry at most 1e-10 of its largest, at any scale, spans fewer than M
    # dimensions; the first such member of a stack is named by its index.
    bases = np.asarray(bases, dtype=float)
    if bases.ndim < 2 or bases.shape[-1] > bases.shape[-2]:
        raise ValueError(f"{label} must be a 2-d matrix with no more columns than rows, or a stack")
    q, r = np.linalg.qr(bases)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    collapsed = np.argwhere(diag.min(axis=-1) <= 1e-10 * diag.max(axis=-1))
    if len(collapsed):
        raise ValueError(f"{label}{collapsed[0].tolist() if q.ndim > 2 else ''} is rank deficient")
    return q


def _angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    # The module's atan2 form on orthonormal stacks of equal shape.
    overlap = np.swapaxes(qa, -1, -2) @ qb
    sine = np.linalg.svd(qb - qa @ overlap, compute_uv=False)[..., 0]
    cosine = np.linalg.svd(overlap, compute_uv=False)[..., -1]
    return np.degrees(np.arctan2(sine, cosine))


def largest_angles_deg(a, b) -> np.ndarray:
    """Largest principal angle between span(a) and span(b), in degrees.

    ``a`` and ``b`` are D x M bases, or stacks (..., D, M) of them whose
    leading axes broadcast to the shape of the result. Symmetric in its
    arguments and invariant to right-multiplying either by an invertible
    matrix, so to its scale.
    """
    qa, qb = _orthonormalize(a, "first basis"), _orthonormalize(b, "second basis")
    if qa.shape[-2:] != qb.shape[-2:]:
        raise ValueError("bases differ in ambient dimension or in column count")
    return _angles(qa, qb)


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spans of two bases, in degrees."""
    return float(largest_angles_deg(a, b))


def consensus_gap_deg(bases: Sequence[np.ndarray]) -> float:
    """Largest principal angle between any two node subspaces, in degrees.

    0 for a single node. Unlike the angles to a reference, this shows
    whether the nodes agree with each other.
    """
    q = _orthonormalize(bases, "basis")
    i, j = np.triu_indices(len(q), 1)
    return float(_angles(q[i], q[j]).max(initial=0.0))


def run_report(result: RunResult, reference: np.ndarray | None = None, config: dict | None = None) -> dict:
    """The summary of one run, each fact once, with ``config`` echoed as given.

    ``final`` holds the last record's metrics (None without records), a
    non-finite one as None so the summary is strict JSON; a diverged run's
    ``message`` names it. ``m_step`` holds the node group's
    ``m_step_counts()``, and ``budget`` a budgeted scheme's final ceilings.
    With a ``reference``, a run that converged or reached its cap scores the
    nodes' final bases, the (J, D, M) stack ``result.nodes.params.W`` (a
    failed run's may not be finite), against it in one call and reports
    their consensus gap, the largest pairwise angle: a run can stop
    "converged" with its nodes far apart.
    """
    last = vars(result.records[-1]) if result.records else {}
    final = {k: v if math.isfinite(v) else None for k, v in last.items() if k not in ("t", "converged")}
    report = {
        "config": config,
        "iterations": result.iterations,
        "converged": result.converged,
        "outcome": result.outcome,
        "message": result.message,
        "final": final or None,
        "m_step": dict(zip(("cycles", "cap_hits", "ridge"), result.nodes.m_step_counts())),
    }
    ceilings = result.scheduler.budget_ceilings()
    if ceilings.size:
        sources, targets = result.scheduler.graph.edge_arrays()
        report["budget"] = {
            "ceilings": {f"{i}->{j}": c for i, j, c in zip(sources, targets, ceilings.tolist())},
            "max_ceiling": float(ceilings.max()),
        }
    if reference is not None and result.outcome in ("converged", "cap"):
        bases = result.nodes.params.W
        angles = largest_angles_deg(bases, reference)
        report["max_angle_deg"] = float(angles.max())
        report["per_node_angle_deg"] = angles.tolist()
        report["consensus_gap_deg"] = consensus_gap_deg(bases)
    return report


def write_artifact(path: str | Path, content) -> None:
    """Write ``content`` to ``path`` atomically, through a temporary file that replaces it.

    A ``.json`` path gets strict JSON with sorted keys: a NaN or an infinity
    raises instead of writing a token that JSON lacks. Any other path gets
    the rows ``content`` as CSV, each float to 12 significant digits.
    """
    path = Path(path)
    if path.suffix == ".json":
        text = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        csv.writer(buffer).writerows(
            [format(value, ".12g") if isinstance(value, float) else value for value in row]
            for row in content
        )
        text = buffer.getvalue()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_run(out_dir: str | Path, result: RunResult, summary: dict) -> None:
    """Write a run's trace as ``trace.csv`` and ``summary`` as ``summary.json`` into ``out_dir``.

    One trace row of ``TRACE_COLUMNS`` per record, its flag as 0 or 1; ``out_dir`` is made if missing.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[vars(record)[name] for name in TRACE_COLUMNS] for record in result.records]
    rows = [[int(value) if isinstance(value, bool) else value for value in row] for row in rows]
    write_artifact(out_dir / "trace.csv", [TRACE_COLUMNS, *rows])
    write_artifact(out_dir / "summary.json", summary)


def lower_median(values: Sequence[float]) -> float:
    """Median using the lower of the two middle order statistics."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def aggregate_reports(reports: Sequence[dict]) -> dict:
    """Aggregate per-seed run reports into medians; with no report, only ``runs`` (0).

    ``worst_max_angle_deg`` is the largest ``max_angle_deg`` of the reports,
    which a median can hide.
    """
    summary = {"runs": len(reports)}
    if reports:
        angles = [r["max_angle_deg"] for r in reports]
        summary["median_iterations"] = lower_median([r["iterations"] for r in reports])
        summary["median_max_angle_deg"] = lower_median(angles)
        summary["worst_max_angle_deg"] = max(angles)
        summary["all_converged"] = all(r["converged"] for r in reports)
    return summary
