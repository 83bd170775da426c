"""Probabilistic PCA: centralized EM and the consensus node model.

The generative model is ``x = W z + mu + noise`` with ``z ~ N(0, I)``
and isotropic noise of precision ``a``. ``centralized_em`` fits it by
expectation maximization on pooled data and serves as the single-node
oracle for the distributed variant.

In the distributed variant every node keeps its own parameter copy and
augments the expected complete-data objective with multiplier and
penalty terms that pull it toward the midpoints of its neighbors' last
broadcasts. The M-step cycles the three closed-form block updates
(mean, then projection, then precision, each against the freshest other
blocks) until the block values stop moving, i.e. to a stationary point
of the node's augmented Lagrangian; with no neighbors and zero
multipliers this is exactly the centralized M-step.

Every step works on a shard's sufficient statistics, the sample-covariance
form of Tipping & Bishop (1999): the count ``n``, the mean ``x̄`` and a
factor ``F`` with ``F Fᵀ = Σ (x_n − x̄)(x_n − x̄)ᵀ``. ``F`` is the centred
shard when N ≤ D and the triangular QR factor when N > D, so once the
shard is reduced no step touches a D x N array, and one E-step, M-step
cycle or likelihood costs O(D·M·min(D, N)).
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .engine import ConsensusModel, NodeGroup
from .topology import Graph

_EPS = float(np.finfo(float).eps)

__all__ = [
    "ParamView",
    "PpcaParams",
    "ShardStats",
    "LatentMoments",
    "DppcaMultipliers",
    "shard_stats",
    "unpack",
    "initial_params",
    "e_step",
    "negative_log_likelihood",
    "MStep",
    "m_step",
    "consensus_m_step",
    "multiplier_step",
    "consensus_multiplier_step",
    "centralized_em",
    "DppcaNodes",
    "DppcaModel",
    "make_dppca_factory",
]


class ParamView(NamedTuple):
    """Parameters ``(W, mu, a)`` as the kernel reads them, unvalidated.

    A leading batch axis is allowed: ``W`` K x D x M, ``mu`` K x D and
    ``a`` of length K hold K parameter sets.
    """

    W: np.ndarray
    mu: np.ndarray
    a: float | np.ndarray

    def to_vector(self) -> np.ndarray:
        """Flatten one parameter set as ``vec(W)``, then ``mu``, then ``a``."""
        return np.concatenate([self.W.ravel(), self.mu, [self.a]])


class PpcaParams(ParamView):
    """Validated parameters: projection ``W`` (D x M), mean ``mu``, precision ``a``."""

    __slots__ = ()

    def __new__(cls, W, mu, a) -> "PpcaParams":
        W = np.asarray(W, dtype=float)
        mu = np.asarray(mu, dtype=float)
        a = float(a)
        if W.ndim != 2 or mu.ndim != 1 or W.shape[0] != mu.shape[0]:
            raise ValueError("W must be D x M and mu length D")
        if W.shape[0] < W.shape[1] or W.shape[1] < 1:
            raise ValueError("need ambient dim >= latent dim >= 1")
        if not a > 0:
            raise ValueError("noise precision a must be > 0")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(mu))):
            raise ValueError("parameters must be finite")
        return super().__new__(cls, W, mu, a)

    @staticmethod
    def from_vector(vec: np.ndarray, ambient_dim: int, latent_dim: int) -> "PpcaParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (_vector_size(ambient_dim, latent_dim),):
            raise ValueError("flat parameter vector has wrong length")
        return PpcaParams(*unpack(vec, ambient_dim, latent_dim))


def _vector_size(ambient_dim: int, latent_dim: int) -> int:
    return ambient_dim * latent_dim + ambient_dim + 1


def unpack(vecs: np.ndarray, ambient_dim: int, latent_dim: int) -> ParamView:
    """Views of flat parameter vectors, one per row of ``vecs`` (or one vector).

    The inverse of ``PpcaParams.to_vector`` without copies or checks:
    a (K, P) stack gives ``W`` K x D x M, ``mu`` K x D and ``a`` (K,).
    """
    dm = ambient_dim * latent_dim
    lead = vecs.shape[:-1]
    return ParamView(
        vecs[..., :dm].reshape(lead + (ambient_dim, latent_dim)),
        vecs[..., dm : dm + ambient_dim],
        vecs[..., -1] if lead else float(vecs[-1]),
    )


class ShardStats(NamedTuple):
    """Sufficient statistics of a D x N shard for the PPCA likelihood.

    ``factor`` (D x min(D, N)) satisfies
    ``factor @ factor.T = Σ (x_n − mean)(x_n − mean)ᵀ``, and ``scatter``
    is its squared Frobenius norm ``Σ |x_n − mean|²``.
    """

    n: int
    mean: np.ndarray
    factor: np.ndarray
    scatter: float


def shard_stats(data: np.ndarray) -> ShardStats:
    """Check a D x N shard and reduce it to its statistics.

    Raises ``ValueError`` when the shard is not 2-d, is empty or holds
    non-finite values.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"shard must be a 2-d D x N array, got shape {data.shape}")
    if data.size == 0:
        raise ValueError(f"shard is empty, shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("shard holds non-finite values")
    d, n = data.shape
    mean = data.mean(axis=1)
    centred = data - mean[:, None]
    # Centred samples on the rows of the QR input: R^T R = centred centred^T.
    factor = centred if n <= d else np.ascontiguousarray(np.linalg.qr(centred.T, mode="r").T)
    return ShardStats(n, mean, factor, float(np.sum(centred**2)))


class LatentMoments(NamedTuple):
    """Posterior latent moments of a shard, summed over its samples.

    ``cov`` is the posterior covariance shared by all samples (M x M),
    ``sum_ez`` is ``Σ E[z_n]``, ``sum_ezz`` is ``Σ E[z_n z_nᵀ]`` and
    ``sum_cez`` is ``Σ (x_n − x̄) E[z_n]ᵀ``, the cross moment of the
    centred samples (``Σ x_n E[z_n]ᵀ = sum_cez + x̄ sum_ezᵀ``). Keeping
    it centred avoids cancellation when the data sit far from the origin.
    """

    cov: np.ndarray
    sum_ez: np.ndarray
    sum_ezz: np.ndarray
    sum_cez: np.ndarray


class DppcaMultipliers(NamedTuple):
    """Lagrange multipliers of one node, one per parameter block."""

    lam: np.ndarray
    gamma: np.ndarray
    beta: float

    @staticmethod
    def zeros(ambient_dim: int, latent_dim: int) -> "DppcaMultipliers":
        return DppcaMultipliers(
            np.zeros((ambient_dim, latent_dim)), np.zeros(ambient_dim), 0.0
        )


def initial_params(data: np.ndarray, latent_dim: int, rng: np.random.Generator) -> PpcaParams:
    """Random projection (scaled Gaussian), data-mean offset, unit precision."""
    d = data.shape[0]
    w = rng.standard_normal((d, latent_dim)) / np.sqrt(latent_dim)
    return PpcaParams(w, data.mean(axis=1), 1.0)


# Named tuples of stacked nodes, field by field. Stacked parameters are
# unvalidated views, whatever they came from.
def _kind(nt) -> type:
    return ParamView if isinstance(nt, ParamView) else type(nt)


def _lead(nt):
    return _kind(nt)(*(np.asarray(f)[None] for f in nt))


def _take(nt, rows):
    return _kind(nt)(*(f[rows] for f in nt))


def _concat(nts):
    return _kind(nts[0])(*(np.concatenate(f) for f in zip(*nts)))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Inner products over the last axis; a row-by-column product runs one
    # BLAS dot per row, the dot ``np.vdot`` and ``np.vecdot`` run.
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


# ``np.vecdot`` (numpy >= 2) gives the same dots at less call overhead,
# which counts in the M-step's block cycles.
_inner = getattr(np, "vecdot", _row_dots)


def _vdot(x: np.ndarray, y: np.ndarray, block_ndim: int) -> np.ndarray:
    # Inner products of the trailing ``block_ndim`` axes (contiguous blocks).
    flat = x.shape[: x.ndim - block_ndim] + (-1,)
    return _inner(x.reshape(flat), y.reshape(flat))


def e_step(params: ParamView, stats: ShardStats) -> LatentMoments:
    """Posterior latent moments given current parameters, summed over the shard.

    The posterior of ``z`` given ``x`` is Gaussian with mean
    ``Minv W^T (x - mu)`` and covariance ``Minv / a`` where
    ``M = W^T W + I / a``. With ``E = Minv Wᵀ F`` and
    ``e = Minv Wᵀ (x̄ − mu)`` the sums are ``Σ E[z_n] = n e``,
    ``Σ E[z_n z_nᵀ] = n Minv / a + E Eᵀ + n e eᵀ`` and
    ``Σ (x_n − x̄) E[z_n]ᵀ = F Eᵀ``.

    ``params`` and ``stats`` may hold J nodes on a leading axis, and so
    does the result. Zero columns of a padded ``factor`` add exact zeros.
    """
    w, a = params.W, np.asarray(params.a, dtype=float)[..., None, None]
    m = w.shape[-1]
    wt = np.swapaxes(w, -1, -2)
    m_mat = wt @ w + np.eye(m) / a
    if not np.all(np.isfinite(m_mat)):
        raise np.linalg.LinAlgError("latent normal equations are not finite")
    k = stats.factor.shape[-1]
    rhs = np.concatenate(
        [
            wt @ stats.factor,
            wt @ (stats.mean - params.mu)[..., None],
            np.broadcast_to(np.eye(m), m_mat.shape),
        ],
        axis=-1,
    )
    try:
        sol = np.linalg.solve(m_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "latent normal equations are numerically singular"
        ) from exc
    ez_factor, ez_mean, cov = sol[..., :k], sol[..., k], sol[..., k + 1 :] / a
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    n = np.asarray(stats.n, dtype=float)[..., None, None]
    return LatentMoments(
        cov,
        n[..., 0] * ez_mean,
        n * cov
        + ez_factor @ np.swapaxes(ez_factor, -1, -2)
        + n * (ez_mean[..., :, None] * ez_mean[..., None, :]),
        stats.factor @ np.swapaxes(ez_factor, -1, -2),
    )


def negative_log_likelihood(params: ParamView, stats: ShardStats) -> float | np.ndarray:
    """Negative marginal log-likelihood of the shard under the model.

    The marginal of each sample is ``N(mu, C)`` with ``C = W Wᵀ + I/a``;
    this is the local objective both the ranking penalties and the
    convergence check consume. With ``G = Wᵀ W + I/a`` (M x M), the
    determinant lemma gives ``logdet C = (M − D) log a + logdet G``, and
    for any ``y``, ``yᵀ C⁻¹ y = a |y − W z|² + |z|²`` at ``z = G⁻¹ Wᵀ y``
    (Woodbury). Applied to the columns of ``F`` and to ``√n (x̄ − mu)``
    this sums squares, free of cancellation.

    ``params`` may hold a batch of K parameter sets (see ``ParamView``),
    scored against one shard's ``stats`` or, row by row, against K
    stacked ones; the result is then an array of K values.
    """
    w, mu = params.W, params.mu
    a = np.asarray(params.a, dtype=float)
    d, m = w.shape[-2:]
    wt = np.swapaxes(w, -1, -2)
    gram = wt @ w + np.eye(m) / a[..., None, None]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("marginal covariance is not positive definite") from exc
    n = np.asarray(stats.n, dtype=float)
    factor = np.broadcast_to(stats.factor, w.shape[:-2] + stats.factor.shape[-2:])
    y = np.concatenate([factor, (np.sqrt(n)[..., None] * (stats.mean - mu))[..., None]], axis=-1)
    z = np.linalg.solve(gram, wt @ y)
    y -= w @ z
    quad = a * _vdot(y, y, 2) + _vdot(z, z, 2)
    log_diag = np.log(np.diagonal(chol, axis1=-2, axis2=-1))
    logdet = (m - d) * np.log(a) + 2.0 * np.sum(log_diag, axis=-1)
    nll = 0.5 * (n * d * math.log(2.0 * math.pi) + n * logdet + quad)
    return float(nll) if nll.ndim == 0 else nll


# The block updates take one node's arrays, or J nodes' arrays stacked on
# a leading axis.


def _mu_update(
    moments: LatentMoments,
    stats: ShardStats,
    w: np.ndarray,
    a: float | np.ndarray,
    gamma: np.ndarray,
    eta_sum: float | np.ndarray,
    mu_anchor: np.ndarray,
) -> np.ndarray:
    # mu = [a sum_n (x_n - W E[z_n]) - 2 gamma + sum_j eta_ij (mu_i + mu_j)]
    #      / (N a + 2 sum_j eta_ij)
    n = np.asarray(stats.n, dtype=float)[..., None]
    a = np.asarray(a, dtype=float)[..., None]
    data_term = a * (n * stats.mean - (w @ moments.sum_ez[..., None])[..., 0])
    return (data_term - 2.0 * gamma + mu_anchor) / (n * a + 2.0 * np.asarray(eta_sum)[..., None])


def _cross_moment(moments: LatentMoments, stats: ShardStats, mu: np.ndarray) -> np.ndarray:
    # sum_n (x_n - mu) E[z_n]^T
    return moments.sum_cez + (stats.mean - mu)[..., :, None] @ moments.sum_ez[..., None, :]


def _inverse(lhs: np.ndarray) -> np.ndarray:
    # Inverse of each symmetric M x M system; a singular one is retried
    # with a small ridge and a warning.
    try:
        return np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        pass
    m = lhs.shape[-1]
    flat = lhs.reshape(-1, m, m)
    out = np.empty_like(flat)
    for k, mat in enumerate(flat):
        try:
            out[k] = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            ridge = 1e-10 * max(1.0, float(np.trace(mat)) / m)
            warnings.warn(
                "projection normal equations singular; retrying with ridge "
                f"{ridge:.3e}",
                RuntimeWarning,
            )
            out[k] = np.linalg.inv(mat + ridge * np.eye(m))
    return out.reshape(lhs.shape)


def _w_update(
    moments: LatentMoments,
    cross: np.ndarray,
    a: float | np.ndarray,
    lam: np.ndarray,
    eta_sum: float | np.ndarray,
    w_anchor: np.ndarray,
) -> np.ndarray:
    # W [a sum_n E[z z^T] + 2 sum_j eta_ij I] =
    #     a sum_n (x_n - mu) E[z_n]^T - 2 lambda + sum_j eta_ij (W_i + W_j)
    m = moments.sum_ezz.shape[-1]
    a = np.asarray(a, dtype=float)[..., None, None]
    lhs = a * moments.sum_ezz + (2.0 * np.asarray(eta_sum))[..., None, None] * np.eye(m)
    rhs = a * cross - 2.0 * lam + w_anchor
    # lhs is symmetric, so W = rhs lhs^-1; an M x M inverse and one
    # product cost a fraction of a solve against D right-hand sides.
    return rhs @ _inverse(lhs)


def _expected_residual(
    moments: LatentMoments, stats: ShardStats, cross: np.ndarray, w: np.ndarray, mu: np.ndarray
) -> float | np.ndarray:
    # sum_n E |x_n - W z_n - mu|^2 under the posterior moments,
    #   scatter + n |x̄ - mu|^2 - 2 <W, cross> + <W, W sum_ezz>.
    # Floored at relative epsilon: near-perfect reconstructions cancel to
    # rounding noise of unstable sign, and the precision update needs a
    # positive value (the precision then saturates instead of overflowing).
    offset = stats.mean - mu
    energy = stats.scatter + stats.n * _inner(offset, offset)
    total = energy + _vdot(w, w @ moments.sum_ezz - 2.0 * cross, 2)
    return np.maximum(total, _EPS * (1.0 + energy))


def _a_update(
    residual: float | np.ndarray,
    num_samples: int | np.ndarray,
    ambient_dim: int,
    beta_mult: float | np.ndarray,
    eta_sum: float | np.ndarray,
    a_anchor: float | np.ndarray,
) -> float | np.ndarray:
    # Stationarity in a is the scalar quadratic
    #   (2 eta_sum) a^2 + (residual/2 + 2 beta - a_anchor) a - N D / 2 = 0,
    # which has exactly one positive root whenever eta_sum > 0. With no
    # positive stationary point (eta_sum = 0 and b <= 0) it falls back to
    # the maximum-likelihood noise update.
    nd_half = 0.5 * np.asarray(num_samples, dtype=float) * ambient_dim
    b = 0.5 * residual + 2.0 * beta_mult - a_anchor
    a2 = 2.0 * np.asarray(eta_sum, dtype=float)
    quadratic = a2 > 0
    root = (-b + np.sqrt(b * b + 4.0 * a2 * nd_half)) / np.where(quadratic, 2.0 * a2, 1.0)
    if quadratic.all():
        return root
    linear = np.logical_not(quadratic) & (b > 0)
    if np.any(np.logical_not(quadratic | linear) & (residual <= 0)):
        raise ValueError("degenerate data: zero expected reconstruction residual")
    fallback = np.where(linear, nd_half / np.where(linear, b, 1.0), 2.0 * nd_half / residual)
    return np.where(quadratic, root, fallback)[()]


# Neighbor terms of J nodes at once. ``own`` holds the nodes' flat
# parameters (J x P, in the layout of ``PpcaParams.to_vector``);
# ``inbox[s, i]`` is the broadcast node i receives over its s-th edge and
# ``eta[s, i]`` that edge's penalty, both zero past the node's degree (see
# ``Graph.neighbor_rows``). The edge terms are summed over the slots in order.
# Both kernels build the terms in ``inbox``, which they overwrite: at 20
# nodes every further (S, J, P) temporary cost as much as the whole sum.


def _anchors(own: np.ndarray, inbox: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Each node's sum_j eta_ij (theta_i + theta_j), flat, and its sum_j eta_ij.
    terms = np.add(own, inbox, out=inbox)
    terms *= eta[..., None]
    return terms.sum(axis=0), eta.sum(axis=0)


def multiplier_step(
    multipliers: DppcaMultipliers, own: np.ndarray, inbox: np.ndarray, eta: np.ndarray
) -> DppcaMultipliers:
    """Dual ascent of J nodes at once: penalty-weighted consensus errors, halved.

    Each multiplier gains ``(1/2) Σ_j η_ij (own_block − neighbor_block)``,
    evaluated at the current round's broadcasts; all three blocks use the
    same form. ``multipliers`` holds the J nodes on a leading axis, and
    ``own``, ``inbox`` and ``eta`` are laid out as for the anchors of the
    M-step (flat own parameters, broadcasts and penalties per edge slot);
    ``inbox`` is overwritten.
    """
    terms = np.subtract(own, inbox, out=inbox)
    terms *= eta[..., None]
    step = unpack(0.5 * terms.sum(axis=0), *multipliers.lam.shape[-2:])
    return DppcaMultipliers(
        multipliers.lam + step.W, multipliers.gamma + step.mu, multipliers.beta + step.a
    )


class MStep(NamedTuple):
    """Outcome of a stacked M-step: the new parameters, each node's block
    cycles, and which nodes stopped at ``max_cycles`` without converging."""

    params: ParamView
    cycles: np.ndarray
    capped: np.ndarray


def m_step(
    moments: LatentMoments,
    stats: ShardStats,
    params: ParamView,
    multipliers: DppcaMultipliers,
    anchor: ParamView,
    eta_sum: np.ndarray,
    max_cycles: int = 500,
    tol: float = 1e-12,
) -> MStep:
    """Minimize J nodes' augmented Lagrangians over (mu, W, a) at once.

    Every argument holds the J nodes on a leading axis. ``anchor`` is
    each node's ``Σ_j η_ij (θ_i + θ_j)`` in parameter layout, summed over
    its neighbors from its entry parameters and their broadcasts, and
    ``eta_sum`` its ``Σ_j η_ij``. The three block updates are closed forms
    (the precision block via the positive root of its stationarity
    quadratic) and are cycled, each consuming the freshest other blocks.
    A node stops, and its rows freeze, once no block moved by more than
    ``tol`` relatively in its last cycle or after ``max_cycles`` cycles;
    the cycles run only over the nodes still active. With no neighbors
    and zero multipliers a node's update is the centralized EM M-step.

    Raises ``ValueError`` when a block turns non-finite, e.g. from a
    non-finite neighbor broadcast. Warns with ``RuntimeWarning`` when a
    node stops at ``max_cycles``.
    """
    w, mu, a = params.W.copy(), params.mu.copy(), np.array(params.a, dtype=float)
    stats = stats._replace(n=np.asarray(stats.n, dtype=float))
    cycles = np.zeros(len(a), dtype=int)
    d = mu.shape[-1]
    # What a cycle reads, and the entry values with their squared norms,
    # restricted to the nodes still active.
    active = np.arange(len(a))
    fixed = (moments, stats, multipliers, anchor, eta_sum)
    cur = (w, mu, a, _vdot(w, w, 2), _inner(mu, mu))
    for _ in range(max_cycles):
        mo, st, mult, anc, es = fixed
        w_old, mu_old, a_old, w_sq, mu_sq = cur
        mu_new = _mu_update(mo, st, w_old, a_old, mult.gamma, es, anc.mu)
        cross = _cross_moment(mo, st, mu_new)
        w_new = _w_update(mo, cross, a_old, mult.lam, es, anc.W)
        residual = _expected_residual(mo, st, cross, w_new, mu_new)
        a_new = _a_update(residual, st.n, d, mult.beta, es, anc.a)
        w_diff, mu_diff = w_new - w_old, mu_new - mu_old
        w_new_sq, mu_new_sq = _vdot(w_new, w_new, 2), _inner(mu_new, mu_new)
        delta = np.maximum(
            np.maximum(
                np.sqrt(_inner(mu_diff, mu_diff)) / (1.0 + np.sqrt(mu_sq)),
                np.sqrt(_vdot(w_diff, w_diff, 2)) / (1.0 + np.sqrt(w_sq)),
            ),
            np.abs(a_new - a_old) / (1.0 + np.abs(a_old)),
        )
        cycles[active] += 1
        done = delta < tol
        if not (done | np.isfinite(delta)).all():
            raise ValueError("M-step produced non-finite parameters")
        cur = (w_new, mu_new, a_new, w_new_sq, mu_new_sq)
        if done.any():
            rows = active[done]
            w[rows], mu[rows], a[rows] = w_new[done], mu_new[done], a_new[done]
            keep = np.logical_not(done)
            active = active[keep]
            if not active.size:
                break
            fixed = tuple(_take(x, keep) if isinstance(x, tuple) else x[keep] for x in fixed)
            cur = tuple(x[keep] for x in cur)
    capped = np.zeros(len(a), dtype=bool)
    if active.size:
        w[active], mu[active], a[active] = cur[:3]
        capped[active] = True
        warnings.warn(
            f"M-step stopped at max_cycles={max_cycles} on {active.size} node(s) "
            "before converging",
            RuntimeWarning,
        )
    return MStep(ParamView(w, mu, a), cycles, capped)


def consensus_m_step(
    moments: LatentMoments,
    stats: ShardStats,
    params: ParamView,
    multipliers: DppcaMultipliers,
    neighbors: np.ndarray,
    eta: Sequence[float] | np.ndarray,
    max_cycles: int = 500,
    tol: float = 1e-12,
) -> ParamView:
    """Minimize one node's augmented Lagrangian over (mu, W, a).

    ``neighbors`` holds the neighbors' broadcasts as rows (K x P, in the
    layout of ``PpcaParams.to_vector``) and ``eta`` their K penalties.
    Consensus anchors are the midpoints of the entry parameters and the
    neighbors' broadcasts and stay fixed throughout. This runs
    :func:`m_step` on a stack of one node; see there for the cycling,
    its stopping rule and its errors.
    """
    anchor, eta_sum = _anchors(*_inbox_of_one(params, neighbors, eta))
    out = m_step(
        *map(_lead, (moments, stats, params, multipliers)),
        unpack(anchor, *params.W.shape),
        eta_sum,
        max_cycles,
        tol,
    ).params
    return ParamView(out.W[0], out.mu[0], float(out.a[0]))


def consensus_multiplier_step(
    params: ParamView,
    neighbors: np.ndarray,
    eta: Sequence[float] | np.ndarray,
    multipliers: DppcaMultipliers,
) -> DppcaMultipliers:
    """Dual ascent of one node: :func:`multiplier_step` on a stack of one.

    ``neighbors`` holds the current round's broadcasts as rows and ``eta``
    their penalties, as in ``consensus_m_step``.
    """
    lam, gamma, beta = multiplier_step(
        _lead(multipliers), *_inbox_of_one(params, neighbors, eta)
    )
    return DppcaMultipliers(lam[0], gamma[0], float(beta[0]))


def _inbox_of_one(params: ParamView, neighbors: np.ndarray, eta) -> tuple:
    # One node's own vector, broadcasts (copied) and penalties in the slot layout.
    eta = np.asarray(eta, dtype=float)[:, None]
    return params.to_vector()[None], np.array(neighbors, dtype=float)[:, None], eta


def centralized_em(
    data: np.ndarray,
    latent_dim: int,
    init: PpcaParams | None = None,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
) -> PpcaParams:
    """Fit PPCA on pooled data by EM.

    Runs a fixed number of iterations; each M-step exactly minimizes the
    expected complete-data objective, so the data log-likelihood never
    decreases. Requires finite 2-d data with more samples than latent
    dimensions and nonzero variance about the mean.
    """
    stats = shard_stats(data)
    d, n = stats.mean.shape[0], stats.n
    if n <= latent_dim:
        raise ValueError(f"need more samples than latent dimensions, got {n} <= {latent_dim}")
    if stats.scatter == 0.0:
        raise ValueError("degenerate data: zero variance about the mean")
    if init is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        init = initial_params(np.asarray(data, dtype=float), latent_dim, rng)
    params: ParamView = init
    no_multipliers = DppcaMultipliers.zeros(d, latent_dim)
    no_neighbors = np.empty((0, _vector_size(d, latent_dim)))
    for _ in range(iterations):
        moments = e_step(params, stats)
        params = consensus_m_step(moments, stats, params, no_multipliers, no_neighbors, [])
    return PpcaParams(*params)


class DppcaNodes(NodeGroup):
    """Statistics, parameters and multipliers of J D-PPCA nodes on a leading axis.

    Shard factors narrower than the widest are padded with zero columns.
    Each phase runs the stacked kernels once for all nodes, on the
    broadcasts and penalties laid out by edge slot (``Graph.neighbor_rows``
    and ``Graph.by_slot``).
    """

    def __init__(
        self,
        stats: ShardStats,
        params: ParamView,
        multipliers: DppcaMultipliers,
        max_cycles: int,
        graph: Graph,
    ):
        self.stats, self.params, self.multipliers = stats, params, multipliers
        self.max_cycles, self.graph = max_cycles, graph
        # per node: M-step block cycles and steps stopped at max_cycles
        self.counts = np.zeros((graph.num_nodes, 2), dtype=int)

    @classmethod
    def of(cls, models: Sequence["DppcaModel"], graph: Graph) -> "DppcaNodes":
        """Stack the models' rows into one group and point each model at its row."""
        parts = [(m._nodes, m._rows) for m in models]
        width = max(nodes.stats.factor.shape[-1] for nodes, _ in parts)

        def padded(stats: ShardStats) -> ShardStats:
            pad = width - stats.factor.shape[-1]
            return stats._replace(factor=np.pad(stats.factor, ((0, 0), (0, 0), (0, pad))))

        stats = _concat([padded(_take(nodes.stats, rows)) for nodes, rows in parts])
        params = _concat([_take(nodes.params, rows) for nodes, rows in parts])
        mults = _concat([_take(nodes.multipliers, rows) for nodes, rows in parts])
        group = cls(stats, params, mults, models[0].max_cycles, graph)
        group.counts = np.concatenate([nodes.counts[rows] for nodes, rows in parts])
        for i, model in enumerate(models):
            model._nodes, model._rows = group, slice(i, i + 1)
        return group

    def params_matrix(self) -> np.ndarray:
        p = self.params
        return np.concatenate([p.W.reshape(len(p.a), -1), p.mu, p.a[:, None]], axis=1)

    def objectives(self) -> np.ndarray:
        return negative_log_likelihood(self.params, self.stats)

    def m_step_counts(self) -> tuple[int, int]:
        return tuple(self.counts.sum(axis=0).tolist())

    def _inbox(self, theta: np.ndarray, eta: np.ndarray) -> tuple:
        return theta, self.graph.neighbor_rows(theta), self.graph.by_slot(eta)

    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        self.step_rows(slice(None), *_anchors(*self._inbox(theta, eta)))

    def multiplier_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        self.multipliers = multiplier_step(self.multipliers, *self._inbox(theta, eta))

    def neighbor_objectives(self, nodes: Sequence[int], points: np.ndarray) -> np.ndarray:
        stats = _take(self.stats, np.repeat(nodes, self.graph.degrees[nodes]))
        return negative_log_likelihood(unpack(points, *self.params.W.shape[1:]), stats)

    def step_rows(self, rows: slice, anchor: np.ndarray, eta_sum: np.ndarray) -> None:
        """E-step and M-step of the nodes ``rows`` against flat anchors, one row each."""
        stats, params = _take(self.stats, rows), _take(self.params, rows)
        mults = _take(self.multipliers, rows)
        anchor = unpack(anchor, *params.W.shape[1:])
        out = m_step(e_step(params, stats), stats, params, mults, anchor, eta_sum, self.max_cycles)
        for field, new in zip(self.params, out.params):
            field[rows] = new
        self.counts[rows] += np.stack([out.cycles, out.capped], axis=1)


class DppcaModel(ConsensusModel):
    """One node's PPCA model for the consensus engine.

    Reduces its shard to ``ShardStats`` on construction and keeps no D x N
    array. Its statistics, parameters and multipliers are the rows
    ``_rows`` of a :class:`DppcaNodes`: a group of its own until the engine
    stacks a run's nodes (:meth:`group`), so ``params`` and ``multipliers``
    return copies of the node's current values. The per-node methods run
    the stacked kernels on those rows; the engine's grouped phases run them
    on all rows at once and do not call the per-node methods. Flattening
    follows ``PpcaParams.to_vector``.
    """

    #: block cycles one M-step may run per node
    max_cycles = 500

    def __init__(self, shard: np.ndarray, latent_dim: int, rng: np.random.Generator):
        stats = shard_stats(shard)
        params = initial_params(np.asarray(shard, dtype=float), latent_dim, rng)
        mults = DppcaMultipliers.zeros(*params.W.shape)
        alone = Graph(1, ((),))
        self._nodes = DppcaNodes(*map(_lead, (stats, params, mults)), self.max_cycles, alone)
        self._rows = slice(0, 1)

    @classmethod
    def group(cls, models: Sequence["DppcaModel"], graph: Graph) -> DppcaNodes:
        return DppcaNodes.of(models, graph)

    @property
    def params(self) -> ParamView:
        w, mu, a = _take(self._nodes.params, self._rows)
        return ParamView(w[0].copy(), mu[0].copy(), float(a[0]))

    @property
    def multipliers(self) -> DppcaMultipliers:
        lam, gamma, beta = _take(self._nodes.multipliers, self._rows)
        return DppcaMultipliers(lam[0].copy(), gamma[0].copy(), float(beta[0]))

    def m_step_counts(self) -> tuple[int, int]:
        """This node's M-step block cycles and its steps stopped at ``max_cycles``."""
        return tuple(self._nodes.counts[self._rows].sum(axis=0).tolist())

    def params_vector(self) -> np.ndarray:
        return self.params.to_vector()

    def objective(self, params: np.ndarray | None = None) -> float:
        vec = self.params_vector() if params is None else np.asarray(params, dtype=float)
        return self.objectives(vec[None])[0]

    def objectives(self, params: np.ndarray) -> list[float]:
        stats = _take(self._nodes.stats, self._rows)
        return negative_log_likelihood(unpack(params, *self.params.W.shape), stats).tolist()

    def _inbox(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]):
        # Neighbor broadcasts as rows, and their penalties.
        size = _vector_size(*self._nodes.params.W.shape[1:])
        vecs = np.array(list(neighbors.values()), dtype=float).reshape(len(neighbors), size)
        return vecs, np.fromiter((eta[j] for j in neighbors), float, len(neighbors))

    def local_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        inbox = _inbox_of_one(self.params, *self._inbox(neighbors, eta))
        self._nodes.step_rows(self._rows, *_anchors(*inbox))

    def multiplier_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        new = consensus_multiplier_step(self.params, *self._inbox(neighbors, eta), self.multipliers)
        for field, value in zip(self._nodes.multipliers, new):
            field[self._rows] = value


def make_dppca_factory(latent_dim: int):
    """Model factory for :func:`netadmm.engine.run`.

    Raises ``ValueError`` naming the node when its shard is not a finite,
    non-empty 2-d array.
    """

    def factory(node_id: int, shard: np.ndarray, rng: np.random.Generator) -> DppcaModel:
        try:
            return DppcaModel(shard, latent_dim, rng)
        except ValueError as exc:
            raise ValueError(f"node {node_id}: {exc}") from exc

    return factory
