"""Probabilistic PCA: centralized EM and the consensus node model.

The generative model is ``x = W z + mu + noise`` with ``z ~ N(0, I)``
and isotropic noise of precision ``a``. ``centralized_em`` fits it by
expectation maximization on pooled data and serves as the single-node
oracle for the distributed variant.

In the distributed variant every node keeps its own parameter copy and
augments the expected complete-data objective with multiplier and
penalty terms that pull it toward the midpoints of its neighbors' last
broadcasts. The M-step finds a stationary point of the node's augmented
Lagrangian: for a fixed noise precision the projection and the mean solve
one linear system on the augmented latent ``[z; 1]``, and a secant
iteration on the precision alone finds the precision that its own
stationarity condition returns. With no neighbors and zero multipliers
this is exactly the centralized M-step.

Every step works on a shard's sufficient statistics, the sample-covariance
form of Tipping & Bishop (1999): the count ``n``, the mean ``x̄`` and a
factor ``F`` with ``F Fᵀ = Σ (x_n − x̄)(x_n − x̄)ᵀ``. ``F`` is the centred
shard when N ≤ D and the triangular QR factor when N > D, so once the
shard is reduced no step touches a D x N array: one E-step or likelihood
costs O(D·M·min(D, N)), and one precision step of the M-step O(D·M²).
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .engine import ConsensusModel, NodeGroup
from .topology import Graph

_EPS = float(np.finfo(float).eps)
# A node stops its precision steps once its expected residual falls below
# this fraction of its data's energy about mu, i.e. once its noise variance
# 1/a is this small relative to the data's. The residual is then a
# cancellation of terms of the energy's size, whose rounding the precision
# inherits, so its change need not fall below tol: on exact rank-M data the
# steps would run to max_cycles. The benchmark workloads stay above 9e-5.
_NOISE_FLOOR = math.sqrt(_EPS)
# Bytes of one (rows, D, min(D, N) + 1) array in a batch of ranking
# likelihoods: the batch is scored in chunks of at most this size, so its
# memory stays flat as the number of ranking edges grows with J². The
# benchmark workloads' batches (at most 1.3 MB) fit in one chunk.
_NLL_BATCH_BYTES = 8 << 20

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
# which counts in the M-step's precision steps.
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


def _inverse(lhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Inverses of a stack of symmetric systems, and which of them were
    # singular: those are retried with a small ridge and a warning.
    ridged = np.zeros(len(lhs), dtype=bool)
    try:
        return np.linalg.inv(lhs), ridged
    except np.linalg.LinAlgError:
        pass
    size = lhs.shape[-1]
    out = np.empty_like(lhs)
    for k, mat in enumerate(lhs):
        try:
            out[k] = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            ridge = 1e-10 * max(1.0, float(np.trace(mat)) / size)
            warnings.warn(
                f"M-step normal equations singular; retrying with ridge {ridge:.3e}",
                RuntimeWarning,
            )
            out[k] = np.linalg.inv(mat + ridge * np.eye(size))
            ridged[k] = True
    return out, ridged


def _expected_residual(
    moments: LatentMoments, stats: ShardStats, w: np.ndarray, offset: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # sum_n E |x_n - W z_n - mu|^2 under the posterior moments, with
    # offset = mu - x̄ and cross = sum_n (x_n - mu) E[z_n]^T:
    #   energy - 2 <W, cross> + <W, W sum_ezz>,
    # and the data's energy about mu, scatter + n |offset|^2.
    # Floored at relative epsilon: near-perfect reconstructions cancel to
    # rounding noise of unstable sign, and the precision update needs a
    # positive value (the precision then saturates instead of overflowing).
    energy = stats.scatter + stats.n * _inner(offset, offset)
    cross = moments.sum_cez - offset[..., :, None] * moments.sum_ez[..., None, :]
    total = energy + _vdot(w, w @ moments.sum_ezz - 2.0 * cross, 2)
    return np.maximum(total, _EPS * (1.0 + energy)), energy


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
    """Outcome of a stacked M-step: the new parameters, each node's
    precision steps, which nodes stopped at ``max_cycles`` without
    converging, and which needed the ridge retry of a singular system."""

    params: ParamView
    cycles: np.ndarray
    capped: np.ndarray
    ridge: np.ndarray


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
    """Minimize J nodes' augmented Lagrangians over (W, mu, a) at once.

    Every argument holds the J nodes on a leading axis. ``anchor`` is
    each node's ``Σ_j η_ij (θ_i + θ_j)`` in parameter layout, summed over
    its neighbors from its entry parameters and their broadcasts, and
    ``eta_sum`` its ``Σ_j η_ij``.

    For a fixed precision ``a`` the stationarity conditions of W and mu
    are one linear system in ``[W mu]``, the M-step of Tipping & Bishop
    (1999) on the augmented latent ``[z; 1]``: ``[W mu] K = R`` with
    ``K = a Σ E[[z; 1][z; 1]ᵀ] + 2 Σ_j η_ij I``, one (M+1) x (M+1) matrix
    for all D rows. The precision's own stationarity quadratic at
    ``(W(a), mu(a))`` gives ``g(a)``, and only this scalar map is iterated:
    secant steps on ``g(a) − a``, or the plain step ``g(a)`` where the
    secant step is not positive and finite. A node stops, and its rows
    freeze, once ``|g(a) − a| < tol (1 + |a|)``, once its expected
    residual is below √ε of its energy about mu (its noise variance is then
    at rounding level relative to the data's), or after ``max_cycles``
    steps; the steps run only over the nodes still active. A node returns
    ``(W(a), mu(a), g(a))`` of its last step, so the result depends on the
    entry precision but not on the entry W and mu. With no neighbors and
    zero multipliers a node's update is the centralized EM M-step.

    Raises ``ValueError`` when the parameters turn non-finite, e.g. from a
    non-finite neighbor broadcast. Warns with ``RuntimeWarning`` when a
    node stops at ``max_cycles`` and when a singular ``K`` is retried with
    a ridge.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    num, d, m = params.W.shape
    eta_sum = np.asarray(eta_sum, dtype=float)
    # The a-independent parts of K = a gram + 2 eta I and of R. R is taken
    # about the shard mean, mu = x̄ + nu, which removes x̄ from its data part:
    #   [W nu] K = a [sum_cez, 0] + [A_W - 2 lam, A_mu - 2 gamma - 2 eta x̄].
    gram = np.empty((num, m + 1, m + 1))
    gram[:, :m, :m] = moments.sum_ezz
    gram[:, :m, m] = gram[:, m, :m] = moments.sum_ez
    gram[:, m, m] = stats.n
    pull = np.concatenate(
        [
            anchor.W - 2.0 * multipliers.lam,
            (anchor.mu - 2.0 * multipliers.gamma - 2.0 * eta_sum[:, None] * stats.mean)[..., None],
        ],
        axis=-1,
    )
    w, mu, a = np.empty_like(params.W), np.empty_like(params.mu), np.empty(num)
    cycles = np.zeros(num, dtype=int)
    capped, ridge = np.zeros(num, dtype=bool), np.zeros(num, dtype=bool)
    # What a step reads, restricted to the nodes still active, and the
    # secant state: the current precision, the previous one and its g - a.
    active = np.arange(num)
    fixed = (moments, stats, gram, pull, eta_sum, multipliers.beta, anchor.a)
    a_cur = np.array(params.a, dtype=float)
    a_prev = f_prev = np.full(num, np.nan)
    for _ in range(max_cycles):
        mo, st, gr, pl, es, beta, a_anc = fixed
        inv, ridged = _inverse(a_cur[:, None, None] * gr + 2.0 * es[:, None, None] * np.eye(m + 1))
        rhs = pl.copy()
        rhs[..., :m] += a_cur[:, None, None] * mo.sum_cez
        # K is symmetric, so [W nu] = R K^-1: one (M+1) x (M+1) inverse and
        # one product cost a fraction of a solve against D right-hand sides.
        sol = rhs @ inv
        w_new, nu = sol[..., :m], sol[..., m]
        residual, energy = _expected_residual(mo, st, w_new, nu)
        a_new = _a_update(residual, st.n, d, beta, es, a_anc)
        f_cur = a_new - a_cur
        cycles[active] += 1
        ridge[active] |= ridged
        if not np.isfinite(f_cur).all():
            raise ValueError("M-step produced non-finite parameters")
        done = (np.abs(f_cur) < tol * (1.0 + np.abs(a_cur))) | (residual < _NOISE_FLOOR * energy)
        last = done | (cycles[active] == max_cycles)
        if last.any():
            rows = active[last]
            w[rows], mu[rows], a[rows] = w_new[last], st.mean[last] + nu[last], a_new[last]
            capped[active[last & ~done]] = True
            keep = ~last
            active = active[keep]
            if not active.size:
                break
            fixed = tuple(_take(x, keep) if isinstance(x, tuple) else x[keep] for x in fixed)
            a_cur, a_prev, f_prev, f_cur, a_new = (
                x[keep] for x in (a_cur, a_prev, f_prev, f_cur, a_new)
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = a_cur - f_cur * (a_cur - a_prev) / (f_cur - f_prev)
        usable = np.isfinite(secant) & (secant > 0)
        a_prev, f_prev, a_cur = a_cur, f_cur, np.where(usable, secant, a_new)
    if capped.any():
        warnings.warn(
            f"M-step stopped at max_cycles={max_cycles} on {int(capped.sum())} node(s) "
            "before converging",
            RuntimeWarning,
        )
    return MStep(ParamView(w, mu, a), cycles, capped, ridge)


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
    :func:`m_step` on a stack of one node; see there for the solve, its
    stopping rules and its errors.
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
        # per node: M-step precision steps, steps stopped at max_cycles and
        # steps that needed the ridge retry
        self.counts = np.zeros((graph.num_nodes, 3), dtype=int)

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

    def m_step_counts(self) -> tuple[int, int, int]:
        return tuple(self.counts.sum(axis=0).tolist())

    def _inbox(self, theta: np.ndarray, eta: np.ndarray) -> tuple:
        return theta, self.graph.neighbor_rows(theta), self.graph.by_slot(eta)

    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        self.step_rows(slice(None), *_anchors(*self._inbox(theta, eta)))

    def multiplier_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        self.multipliers = multiplier_step(self.multipliers, *self._inbox(theta, eta))

    def neighbor_objectives(self, nodes: Sequence[int], points: np.ndarray) -> np.ndarray:
        owners = np.repeat(nodes, self.graph.degrees[nodes])
        d, m = self.params.W.shape[1:]
        # Each row holds D x (min(D, N) + 1) temporaries: score as many rows
        # at once as fit _NLL_BATCH_BYTES.
        rows = max(1, _NLL_BATCH_BYTES // (8 * d * (self.stats.factor.shape[-1] + 1)))
        return np.concatenate(
            [
                negative_log_likelihood(
                    unpack(points[k : k + rows], d, m), _take(self.stats, owners[k : k + rows])
                )
                for k in range(0, max(len(owners), 1), rows)
            ]
        )

    def step_rows(self, rows: slice, anchor: np.ndarray, eta_sum: np.ndarray) -> None:
        """E-step and M-step of the nodes ``rows`` against flat anchors, one row each."""
        stats, params = _take(self.stats, rows), _take(self.params, rows)
        mults = _take(self.multipliers, rows)
        anchor = unpack(anchor, *params.W.shape[1:])
        out = m_step(e_step(params, stats), stats, params, mults, anchor, eta_sum, self.max_cycles)
        for field, new in zip(self.params, out.params):
            field[rows] = new
        self.counts[rows] += np.stack([out.cycles, out.capped, out.ridge], axis=1)


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

    #: precision steps one M-step may run per node
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

    def m_step_counts(self) -> tuple[int, int, int]:
        """This node's M-step precision steps, its steps stopped at
        ``max_cycles`` and its steps that needed the ridge retry."""
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
