"""Oracles and checks computed with numpy alone, apart from netadmm.

The centralized PPCA solution is known in closed form (Tipping & Bishop,
1999): its projection spans the top principal subspace of the pooled
sample covariance. Every benchmark run is scored against that subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: a run is accurate once every node's subspace is this close to the oracle
ACCURACY_DEG = 0.5

#: RunConfig.convergence_tol that the relative-objective rule cannot meet
#: unless the objective repeats bit for bit; check_run catches that case
UNREACHABLE_TOL = 1e-300


def covariance_oracle(pooled: np.ndarray, latent_dim: int) -> np.ndarray:
    """Top-M eigenvectors of the pooled, centered sample covariance (D x M)."""
    centered = pooled - pooled.mean(axis=1, keepdims=True)
    values, vectors = np.linalg.eigh(centered @ centered.T / pooled.shape[1])
    if not values[-latent_dim] > 1.5 * values[-latent_dim - 1]:
        raise AssertionError("covariance oracle has no clear eigengap at M")
    return vectors[:, ::-1][:, :latent_dim]


def structure_oracle(measurements: np.ndarray) -> np.ndarray:
    """Rank-3 right singular subspace of the row-centered measurements (N x 3)."""
    centered = measurements - measurements.mean(axis=1, keepdims=True)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    if not singular[2] > 10.0 * singular[3]:
        raise AssertionError("measurement matrix is not close to rank 3")
    return vt[:3].T


def largest_angles_deg(reference: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Largest principal angle between span(reference) and each span(bases[k]).

    ``reference`` is orthonormal (D x M) or a stack of them; ``bases`` is
    a stack (..., D, M) of arbitrary full-rank bases. The angle is
    atan2 of the sine (norm of the part of the basis outside the
    reference) and the cosine (smallest singular value of the overlap),
    accurate at both ends. A rank-deficient basis spans no M-dim
    subspace and scores 90 degrees.
    """
    q, r = np.linalg.qr(bases)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    collapsed = diag.min(axis=-1) <= 1e-10 * diag.max(axis=-1)
    overlap = np.swapaxes(reference, -1, -2) @ q
    outside = q - reference @ overlap
    sine = np.linalg.svd(outside, compute_uv=False)[..., 0]
    cosine = np.linalg.svd(overlap, compute_uv=False)[..., -1]
    return np.where(collapsed, 90.0, np.degrees(np.arctan2(sine, cosine)))


def consensus_gap_deg(bases: np.ndarray) -> float:
    """Largest pairwise angle between the node subspaces bases[i] (J x D x M)."""
    q = np.linalg.qr(bases)[0]
    gap = 0.0
    for i in range(len(q) - 1):
        gap = max(gap, float(largest_angles_deg(q[i], q[i + 1 :]).max()))
    return gap


def accuracy_iteration(angles: np.ndarray) -> int | None:
    """Iterations needed until every node stays within ACCURACY_DEG.

    ``angles[t, i]`` is node i's angle to the oracle after iteration t.
    Returns k such that rows k-1, k, ... are all within the angle and
    row k-2 is not (k counts completed iterations), or None when the
    last row is not within it.
    """
    within = (angles <= ACCURACY_DEG).all(axis=1)
    if not within[-1]:
        return None
    misses = np.flatnonzero(~within)
    return int(misses[-1]) + 2 if misses.size else 1


@dataclass
class RunCheck:
    """Outcome of one fixed-budget engine.run call."""

    scheme: str
    error: str | None = None
    problems: tuple[str, ...] = ()
    iters_to_tol: int = 0
    final_deg: float = math.nan
    gap_deg: float = math.nan

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def check_run(scheme: str, budget: int, records, per_iteration_bases, oracle) -> RunCheck:
    """Score one completed run against the oracle.

    ``records`` are the run's IterationRecords and
    ``per_iteration_bases[t]`` the node projections (J x D x M) after
    iteration t, as seen by the trace hook.
    """
    problems = []
    if len(records) != budget or len(per_iteration_bases) != budget:
        problems.append(f"ran {len(records)} of {budget} budgeted iterations")
    etas = np.array([[r.eta_min, r.eta_max] for r in records])
    if not (np.all(np.isfinite(etas)) and np.all(etas > 0)):
        problems.append("a recorded penalty is not finite and > 0")
    bases = np.asarray(per_iteration_bases)
    angles = largest_angles_deg(oracle, bases)
    final = bases[-1]
    check = RunCheck(
        scheme,
        final_deg=float(angles[-1].max()),
        gap_deg=consensus_gap_deg(final),
    )
    if not check.final_deg <= ACCURACY_DEG:
        problems.append(f"final angle {check.final_deg:.3g} deg exceeds {ACCURACY_DEG} deg")
    reached = accuracy_iteration(angles)
    if reached is None:
        problems.append("never stays within the accuracy angle")
    else:
        check.iters_to_tol = reached
    check.problems = tuple(problems)
    return check
