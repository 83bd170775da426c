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

from .engine import ConsensusModel

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
    "consensus_m_step",
    "consensus_multiplier_step",
    "centralized_em",
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


def e_step(params: ParamView, stats: ShardStats) -> LatentMoments:
    """Posterior latent moments given current parameters, summed over the shard.

    The posterior of ``z`` given ``x`` is Gaussian with mean
    ``Minv W^T (x - mu)`` and covariance ``Minv / a`` where
    ``M = W^T W + I / a``. With ``E = Minv Wᵀ F`` and
    ``e = Minv Wᵀ (x̄ − mu)`` the sums are ``Σ E[z_n] = n e``,
    ``Σ E[z_n z_nᵀ] = n Minv / a + E Eᵀ + n e eᵀ`` and
    ``Σ (x_n − x̄) E[z_n]ᵀ = F Eᵀ``.
    """
    w, a = params.W, params.a
    m = w.shape[1]
    m_mat = w.T @ w + np.eye(m) / a
    if not np.all(np.isfinite(m_mat)):
        raise np.linalg.LinAlgError("latent normal equations are not finite")
    k = stats.factor.shape[1]
    rhs = np.hstack([w.T @ stats.factor, (w.T @ (stats.mean - params.mu))[:, None], np.eye(m)])
    try:
        sol = np.linalg.solve(m_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "latent normal equations are numerically singular"
        ) from exc
    ez_factor, ez_mean, cov = sol[:, :k], sol[:, k], sol[:, k + 1 :] / a
    cov = 0.5 * (cov + cov.T)
    n = stats.n
    return LatentMoments(
        cov,
        n * ez_mean,
        n * cov + ez_factor @ ez_factor.T + n * np.outer(ez_mean, ez_mean),
        stats.factor @ ez_factor.T,
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

    ``params`` may hold a batch of K parameter sets (see ``ParamView``);
    the result is then an array of K values.
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
    n = stats.n
    factor = np.broadcast_to(stats.factor, w.shape[:-2] + stats.factor.shape)
    y = np.concatenate([factor, math.sqrt(n) * (stats.mean - mu)[..., None]], axis=-1)
    z = np.linalg.solve(gram, wt @ y)
    quad = a * np.sum((y - w @ z) ** 2, axis=(-2, -1)) + np.sum(z**2, axis=(-2, -1))
    log_diag = np.log(np.diagonal(chol, axis1=-2, axis2=-1))
    logdet = (m - d) * np.log(a) + 2.0 * np.sum(log_diag, axis=-1)
    nll = 0.5 * (n * d * math.log(2.0 * math.pi) + n * logdet + quad)
    return float(nll) if nll.ndim == 0 else nll


def _mu_update(
    moments: LatentMoments,
    stats: ShardStats,
    w: np.ndarray,
    a: float,
    gamma: np.ndarray,
    eta_sum: float,
    mu_anchor: np.ndarray,
) -> np.ndarray:
    # mu = [a sum_n (x_n - W E[z_n]) - 2 gamma + sum_j eta_ij (mu_i + mu_j)]
    #      / (N a + 2 sum_j eta_ij)
    n = stats.n
    data_term = a * (n * stats.mean - w @ moments.sum_ez)
    return (data_term - 2.0 * gamma + mu_anchor) / (n * a + 2.0 * eta_sum)


def _cross_moment(moments: LatentMoments, stats: ShardStats, mu: np.ndarray) -> np.ndarray:
    # sum_n (x_n - mu) E[z_n]^T
    return moments.sum_cez + (stats.mean - mu)[:, None] * moments.sum_ez


def _w_update(
    moments: LatentMoments,
    cross: np.ndarray,
    a: float,
    lam: np.ndarray,
    eta_sum: float,
    w_anchor: np.ndarray,
) -> np.ndarray:
    # W [a sum_n E[z z^T] + 2 sum_j eta_ij I] =
    #     a sum_n (x_n - mu) E[z_n]^T - 2 lambda + sum_j eta_ij (W_i + W_j)
    m = moments.sum_ezz.shape[0]
    lhs = a * moments.sum_ezz + 2.0 * eta_sum * np.eye(m)
    rhs = a * cross - 2.0 * lam + w_anchor
    # lhs is symmetric, so W = rhs lhs^-1; an M x M inverse and one
    # product cost a fraction of a solve against D right-hand sides.
    try:
        return rhs @ np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(1.0, float(np.trace(lhs)) / m)
        warnings.warn(
            "projection normal equations singular; retrying with ridge "
            f"{ridge:.3e}",
            RuntimeWarning,
        )
        return rhs @ np.linalg.inv(lhs + ridge * np.eye(m))


def _expected_residual(
    moments: LatentMoments, stats: ShardStats, cross: np.ndarray, w: np.ndarray, mu: np.ndarray
) -> float:
    # sum_n E |x_n - W z_n - mu|^2 under the posterior moments. Floored at
    # relative epsilon: near-perfect reconstructions cancel to rounding
    # noise of unstable sign, and the precision update needs a positive
    # value (the precision then saturates instead of overflowing).
    offset = stats.mean - mu
    energy = stats.scatter + stats.n * float(offset @ offset)
    total = energy
    total -= 2.0 * float(np.vdot(w, cross))
    total += float(np.vdot(w.T @ w, moments.sum_ezz))
    return max(total, _EPS * (1.0 + energy))


def _a_update(
    residual: float,
    num_samples: int,
    ambient_dim: int,
    beta_mult: float,
    eta_sum: float,
    a_anchor: float,
) -> float:
    # Stationarity in a is the scalar quadratic
    #   (2 eta_sum) a^2 + (residual/2 + 2 beta - a_anchor) a - N D / 2 = 0,
    # which has exactly one positive root whenever eta_sum > 0.
    nd_half = 0.5 * num_samples * ambient_dim
    b = 0.5 * residual + 2.0 * beta_mult - a_anchor
    if eta_sum > 0:
        a2 = 2.0 * eta_sum
        disc = b * b + 4.0 * a2 * nd_half
        return (-b + np.sqrt(disc)) / (2.0 * a2)
    if b > 0:
        return nd_half / b
    # No positive stationary point; fall back to the maximum-likelihood
    # noise update.
    if residual <= 0:
        raise ValueError("degenerate data: zero expected reconstruction residual")
    return 2.0 * nd_half / residual


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
    """Minimize the node's augmented Lagrangian over (mu, W, a).

    ``neighbors`` holds the neighbors' broadcasts as rows (K x P, in the
    layout of ``PpcaParams.to_vector``) and ``eta`` their K penalties.
    The three block updates are closed forms (the precision block via
    the positive root of its stationarity quadratic) and are cycled,
    each consuming the freshest other blocks, until no block moves by
    more than ``tol`` relatively. Consensus anchors are the midpoints of
    the entry parameters and the neighbors' broadcasts and stay fixed
    throughout. With no neighbors and zero multipliers this reduces to
    the centralized EM M-step. Raises ``ValueError`` when a block turns
    non-finite, e.g. from a non-finite neighbor broadcast.
    """
    eta = np.asarray(eta, dtype=float)
    d = stats.mean.shape[0]
    eta_sum = float(eta.sum())
    anchor = unpack(eta @ (params.to_vector() + neighbors), d, params.W.shape[1])

    w, mu, a = params.W, params.mu, params.a
    for _ in range(max_cycles):
        mu_new = _mu_update(moments, stats, w, a, multipliers.gamma, eta_sum, anchor.mu)
        cross = _cross_moment(moments, stats, mu_new)
        w_new = _w_update(moments, cross, a, multipliers.lam, eta_sum, anchor.W)
        residual = _expected_residual(moments, stats, cross, w_new, mu_new)
        a_new = _a_update(residual, stats.n, d, multipliers.beta, eta_sum, anchor.a)
        delta = max(
            _rel_change(mu_new, mu), _rel_change(w_new, w), abs(a_new - a) / (1.0 + abs(a))
        )
        w, mu, a = w_new, mu_new, a_new
        if delta < tol:
            break
        if not math.isfinite(delta):
            raise ValueError("M-step produced non-finite parameters")
    return ParamView(w, mu, float(a))


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    diff = new - old
    return math.sqrt(np.vdot(diff, diff)) / (1.0 + math.sqrt(np.vdot(old, old)))


def consensus_multiplier_step(
    params: ParamView,
    neighbors: np.ndarray,
    eta: Sequence[float] | np.ndarray,
    multipliers: DppcaMultipliers,
) -> DppcaMultipliers:
    """Dual ascent: penalty-weighted sum of consensus errors, halved.

    Each multiplier gains ``(1/2) sum_j eta_ij (own_block - neighbor_block)``
    evaluated at the current round's broadcasts (rows of ``neighbors``,
    as in ``consensus_m_step``); all three blocks use the same form.
    """
    eta = np.asarray(eta, dtype=float)
    step = unpack(0.5 * (eta @ (params.to_vector() - neighbors)), *params.W.shape)
    return DppcaMultipliers(
        multipliers.lam + step.W, multipliers.gamma + step.mu, multipliers.beta + step.a
    )


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


class DppcaModel(ConsensusModel):
    """One node's PPCA model for the consensus engine.

    Reduces its shard to ``ShardStats`` on construction and keeps no
    D x N array; holds a parameter copy and the multipliers. Flattening
    follows ``PpcaParams.to_vector`` (projection, mean, precision).
    """

    def __init__(self, shard: np.ndarray, latent_dim: int, rng: np.random.Generator):
        self.stats = shard_stats(shard)
        self.params: ParamView = initial_params(np.asarray(shard, dtype=float), latent_dim, rng)
        self.multipliers = DppcaMultipliers.zeros(*self.params.W.shape)

    def params_vector(self) -> np.ndarray:
        return self.params.to_vector()

    def objective(self, params: np.ndarray | None = None) -> float:
        if params is None:
            return negative_log_likelihood(self.params, self.stats)
        return negative_log_likelihood(
            unpack(np.asarray(params, dtype=float), *self.params.W.shape), self.stats
        )

    def objectives(self, params: np.ndarray) -> list[float]:
        return negative_log_likelihood(unpack(params, *self.params.W.shape), self.stats).tolist()

    def _stack(
        self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        size = _vector_size(*self.params.W.shape)
        vecs = np.array(list(neighbors.values()), dtype=float).reshape(len(neighbors), size)
        return vecs, np.fromiter((eta[j] for j in neighbors), float, len(neighbors))

    def local_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        moments = e_step(self.params, self.stats)
        self.params = consensus_m_step(
            moments, self.stats, self.params, self.multipliers, *self._stack(neighbors, eta)
        )

    def multiplier_step(self, neighbors: Mapping[int, np.ndarray], eta: Mapping[int, float]) -> None:
        self.multipliers = consensus_multiplier_step(
            self.params, *self._stack(neighbors, eta), self.multipliers
        )


def make_dppca_factory(latent_dim: int):
    """Model factory for :func:`netadmm.engine.run`.

    Raises ``ValueError`` naming the node when its shard is not a
    finite, non-empty 2-d array.
    """

    def factory(node_id: int, shard: np.ndarray, rng: np.random.Generator) -> DppcaModel:
        try:
            return DppcaModel(shard, latent_dim, rng)
        except ValueError as exc:
            raise ValueError(f"node {node_id}: {exc}") from exc

    return factory
