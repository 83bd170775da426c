"""Probabilistic PCA: centralized EM and the consensus node model.

The generative model is ``x = W z + mu + noise`` with ``z ~ N(0, I)``
and isotropic noise of precision ``a``. ``centralized_em`` fits it by
expectation maximization on pooled data and serves as the single-node
oracle for the distributed variant.

In the distributed variant every node keeps its own parameter copy and
augments the expected complete-data objective with multiplier and
penalty terms that pull it toward the midpoints of its neighbors' last
broadcasts. A run's nodes are one ``DppcaNodes``, which runs every phase
for all of them at once and which results read; a ``DppcaModel`` is one
node's read-only view, for the engine's trace hook.
Their parameters and multipliers are the rows of the engine's ``theta``
and ``dual`` matrices, read in blocks through ``unpack``.
The M-step finds a stationary point of the node's augmented Lagrangian:
for a fixed noise precision the projection and the mean solve one linear
system on the augmented latent ``[z; 1]``, and a secant iteration on the
precision alone finds the precision that its own stationarity condition
returns. With no neighbors and zero multipliers this is exactly the
centralized M-step.

Every step works on a shard's sufficient statistics, the sample-covariance
form of Tipping & Bishop (1999): the count ``n``, the mean ``x̄`` and a
factor ``F`` with ``F Fᵀ = Σ (x_n − x̄)(x_n − x̄)ᵀ``. ``F`` is the centred
shard when N ≤ D and, when N > D, the Cholesky factor of the D x D scatter
``S = F Fᵀ`` (formed in one matrix product), so once the shard is reduced
no step touches a D x N array. The E-step and the likelihood share one
latent solve, a Cholesky factorization of the M x M matrix
``G = Wᵀ W + I/a``, at O(D·M·min(D, N)); a node group keeps the solve of
its own objectives for the next E-step, so each node factors ``G`` once
per iteration. The ranking likelihoods, a node's objective at the midpoints
of its edges, are scored in the M-dimensional latent space, with no D-sized
copy of a shard's samples per edge (``DppcaNodes.neighbor_objectives``).
The M-step factors each node's (M+1) x (M+1) Gram matrix once, by
eigendecomposition, and forms the Gram products of its right-hand side in
that basis once, at O(D·M²); its precision steps are then elementwise on
(M+1)-vectors, with no matrix inverse, and it forms W and mu once at the end.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

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

__all__ = [
    "ParamView",
    "PpcaParams",
    "ShardStats",
    "LatentMoments",
    "shard_stats",
    "unpack",
    "initial_params",
    "e_step",
    "negative_log_likelihood",
    "MStep",
    "m_step",
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
    is its squared Frobenius norm ``Σ |x_n − mean|²``. For N > D the
    factor is the lower Cholesky factor of that D x D scatter matrix, or,
    where it is singular (fewer than D independent centred samples), its
    symmetric square root.
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
    if n <= d:
        return ShardStats(n, mean, centred, float(np.sum(centred**2)))
    scatter = centred @ centred.T
    try:
        factor = np.linalg.cholesky(scatter)
    except np.linalg.LinAlgError:
        # A zero pivot of a rank-deficient scatter: V sqrt(λ) from eigh.
        values, vectors = np.linalg.eigh(scatter)
        factor = vectors * np.sqrt(np.maximum(values, 0.0))
    return ShardStats(n, mean, factor, float(np.trace(scatter)))


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


def initial_params(data: np.ndarray, latent_dim: int, rng: np.random.Generator) -> PpcaParams:
    """Random projection (scaled Gaussian), data-mean offset, unit precision."""
    d = data.shape[0]
    w = rng.standard_normal((d, latent_dim)) / np.sqrt(latent_dim)
    return PpcaParams(w, data.mean(axis=1), 1.0)


def _lead(nt):
    # One node's named tuple as a stack of one; stacked parameters are
    # unvalidated views.
    kind = ParamView if isinstance(nt, ParamView) else type(nt)
    return kind(*(np.asarray(f)[None] for f in nt))


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


class _Latent(NamedTuple):
    # One latent solve at a parameter set: G⁻¹ for G = WᵀW + I/a, logdet G,
    # and z = G⁻¹ Wᵀ [F, √n (x̄ − mu)], one M x (min(D, N) + 1) block per set.
    g_inv: np.ndarray
    logdet: np.ndarray
    z: np.ndarray


def _samples(params: ParamView, stats: ShardStats) -> np.ndarray:
    # [F, √n (x̄ − mu)]: the centred samples' factor and the weighted mean
    # offset, one D x (min(D, N) + 1) block per parameter set.
    n = np.asarray(stats.n, dtype=float)
    factor = np.broadcast_to(stats.factor, params.W.shape[:-2] + stats.factor.shape[-2:])
    offset = np.sqrt(n)[..., None] * (stats.mean - params.mu)
    return np.concatenate([factor, offset[..., None]], axis=-1)


def _cholesky(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # L⁻¹ and logdet G of a stack of G = L Lᵀ, from one batched Cholesky
    # factor. numpy has no batched triangular solve; M is small, so the
    # forward substitution runs row by row over the whole batch.
    if not np.all(np.isfinite(gram)):
        raise np.linalg.LinAlgError("latent normal equations are non-finite")
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("latent normal equations are not positive definite") from exc
    l_inv = np.zeros_like(chol)
    for i in range(gram.shape[-1]):
        row = -(chol[..., i : i + 1, :i] @ l_inv[..., :i, :])[..., 0, :]
        row[..., i] += 1.0
        l_inv[..., i, :] = row / chol[..., i, i, None]
    return l_inv, 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _latent(params: ParamView, samples: np.ndarray) -> _Latent:
    # The E-step and the likelihood share this solve: G⁻¹ = L⁻ᵀ L⁻¹ from
    # the Cholesky factor of G, and logdet G.
    w, a = params.W, np.asarray(params.a, dtype=float)
    wt = np.swapaxes(w, -1, -2)
    l_inv, logdet = _cholesky(wt @ w + np.eye(w.shape[-1]) / a[..., None, None])
    g_inv = np.swapaxes(l_inv, -1, -2) @ l_inv
    return _Latent(g_inv, logdet, g_inv @ (wt @ samples))


def _moments(latent: _Latent, params: ParamView, stats: ShardStats) -> LatentMoments:
    # The moment sums of e_step from a latent solve at params.
    k = stats.factor.shape[-1]
    a = np.asarray(params.a, dtype=float)[..., None, None]
    n = np.asarray(stats.n, dtype=float)[..., None, None]
    cov = latent.g_inv / a
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    z = latent.z
    return LatentMoments(
        cov,
        np.sqrt(n[..., 0]) * z[..., k],
        n * cov + z @ np.swapaxes(z, -1, -2),
        stats.factor @ np.swapaxes(z[..., :k], -1, -2),
    )


def e_step(params: ParamView, stats: ShardStats) -> LatentMoments:
    """Posterior latent moments given current parameters, summed over the shard.

    The posterior of ``z`` given ``x`` is Gaussian with mean
    ``G⁻¹ Wᵀ (x − mu)`` and covariance ``G⁻¹ / a`` where
    ``G = Wᵀ W + I / a``. With ``E = G⁻¹ Wᵀ F`` and
    ``e = G⁻¹ Wᵀ (x̄ − mu)`` the sums are ``Σ E[z_n] = n e``,
    ``Σ E[z_n z_nᵀ] = n G⁻¹ / a + Z Zᵀ`` with ``Z = [E, √n e]``, and
    ``Σ (x_n − x̄) E[z_n]ᵀ = F Eᵀ``. ``G`` is factored once, by Cholesky;
    the likelihood uses the same solve.

    ``params`` and ``stats`` may hold J nodes on a leading axis, and so
    does the result. Zero columns of a padded ``factor`` add exact zeros.
    Raises ``LinAlgError`` when ``G`` is not finite.
    """
    return _moments(_latent(params, _samples(params, stats)), params, stats)


def _objective(params: ParamView, stats: ShardStats) -> tuple[np.ndarray, _Latent]:
    # negative_log_likelihood as an array, and the latent solve it used.
    y = _samples(params, stats)
    latent = _latent(params, y)
    y -= params.W @ latent.z
    a = np.asarray(params.a, dtype=float)
    d, m = params.W.shape[-2:]
    n = np.asarray(stats.n, dtype=float)
    quad = a * _vdot(y, y, 2) + _vdot(latent.z, latent.z, 2)
    logdet = (m - d) * np.log(a) + latent.logdet
    return 0.5 * (n * d * math.log(2.0 * math.pi) + n * logdet + quad), latent


def negative_log_likelihood(params: ParamView, stats: ShardStats) -> float | np.ndarray:
    """Negative marginal log-likelihood of the shard under the model.

    The marginal of each sample is ``N(mu, C)`` with ``C = W Wᵀ + I/a``;
    this is the local objective both the ranking penalties and the
    convergence check consume. With ``G = Wᵀ W + I/a`` (M x M), the
    determinant lemma gives ``logdet C = (M − D) log a + logdet G``, and
    for any ``y``, ``yᵀ C⁻¹ y = a |y − W z|² + |z|²`` at ``z = G⁻¹ Wᵀ y``
    (Woodbury). Applied to the columns of ``F`` and to ``√n (x̄ − mu)``
    this sums squares, free of cancellation. ``G`` is factored once, by
    the Cholesky decomposition the E-step shares.

    ``params`` may hold a batch of K parameter sets (see ``ParamView``),
    scored against one shard's ``stats`` or, row by row, against K
    stacked ones; the result is then an array of K values.
    """
    nll = _objective(params, stats)[0]
    return float(nll) if nll.ndim == 0 else nll


def _a_update(
    residual: float | np.ndarray,
    num_samples: int | np.ndarray,
    ambient_dim: int,
    a_pull: float | np.ndarray,
    eta_sum: float | np.ndarray,
) -> float | np.ndarray:
    # Stationarity in a is the scalar quadratic
    #   2 eta_sum a^2 + b a - N D / 2 = 0,  b = residual/2 - a_pull,
    # which has exactly one positive root whenever eta_sum > 0 or b > 0.
    # With s = sqrt(b^2 + 4 eta_sum N D) + |b| that root is N D / s for
    # b > 0 (N D / (2b) at eta_sum = 0) and s / (4 eta_sum) otherwise. The
    # textbook (-b + sqrt(...)) / (4 eta_sum) cancels for b > 0, with a
    # relative error growing like b^2: exactly 0 at b = 1.2e10, eta_sum = 1.5,
    # N D = 500. With no positive stationary point (eta_sum = 0 and b <= 0)
    # it falls back to the maximum-likelihood noise update.
    nd = np.asarray(num_samples, dtype=float) * ambient_dim
    b = 0.5 * residual - a_pull
    eta_sum = np.asarray(eta_sum, dtype=float)
    s = np.sqrt(b * b + 4.0 * eta_sum * nd) + np.abs(b)
    positive, coupled = b > 0, eta_sum > 0
    if coupled.all():
        return np.where(positive, nd / s, s / (4.0 * eta_sum))
    solvable = positive | coupled
    if np.any(~solvable & (residual <= 0)):
        raise ValueError("degenerate data: zero expected reconstruction residual")
    root = np.where(
        positive,
        nd / np.where(positive, s, 1.0),
        s / np.where(coupled, 4.0 * eta_sum, 1.0),
    )
    return np.where(solvable, root, nd / np.where(solvable, 1.0, residual))[()]


class MStep(NamedTuple):
    """Outcome of a stacked M-step: the new parameters, each node's
    precision steps, which nodes stopped at ``max_cycles`` without
    converging, and which took the ridge of a singular system."""

    params: ParamView
    cycles: np.ndarray
    capped: np.ndarray
    ridge: np.ndarray


def m_step(
    moments: LatentMoments,
    stats: ShardStats,
    params: ParamView,
    pull: ParamView,
    eta_sum: np.ndarray,
    max_cycles: int = 500,
    tol: float = 1e-12,
) -> MStep:
    """Minimize J nodes' augmented Lagrangians over (W, mu, a) at once.

    Every argument holds the J nodes on a leading axis. ``pull`` is each
    node's ``Σ_j η_ij (θ_i + θ_j) − 2 y_i`` in parameter layout: its
    neighbors' anchors, summed from its entry parameters and their
    broadcasts, less twice its multipliers ``y_i = (λ, γ, β)``; ``eta_sum``
    is its ``Σ_j η_ij``.

    For a fixed precision ``a`` the stationarity conditions of W and mu
    are one linear system in ``[W mu]``, the M-step of Tipping & Bishop
    (1999) on the augmented latent ``[z; 1]``: ``[W mu] K = R`` with
    ``K = a Σ E[[z; 1][z; 1]ᵀ] + 2 Σ_j η_ij I``, one (M+1) x (M+1) matrix
    for all D rows. The precision's own stationarity quadratic at
    ``(W(a), mu(a))`` gives ``g(a)``, and only this scalar map is iterated:
    secant steps on ``g(a) − a``, or the plain step ``g(a)`` where the
    secant step is not positive and finite or moves ``a`` against the sign
    of ``g(a) − a``. One eigendecomposition ``Σ E[[z; 1][z; 1]ᵀ] = V Λ Vᵀ``
    makes ``K = V (aΛ + 2 Σ_j η_ij I) Vᵀ`` diagonal at every ``a``. ``g(a)``
    reads ``R = a C + P`` (C from the data, P from the pull) only through
    the Gram matrix of ``[C V, P V]``, formed once, so a precision step is
    elementwise on (M+1)-vectors whatever D; ``[W mu] = R K⁻¹`` is formed
    once per node, at its last step. A node stops, and its rows freeze, once
    ``|g(a) − a| < (tol + ε·energy/residual)(1 + |a|)``, the second term
    being the rounding level of ``g(a)`` (its residual cancels terms of the
    size of the data's energy about mu); once its expected residual is
    below √ε of that energy (its noise variance is then at rounding level
    relative to the data's); or after ``max_cycles`` steps. A stopped
    node's row stays in place with its precision frozen. A node returns
    ``(W(a), mu(a), g(a))`` of its last step, so the result depends on the
    entry precision but not on the entry W and mu. With no neighbors and
    zero multipliers a node's update is the centralized EM M-step.

    Raises ``ValueError`` when the parameters turn non-finite, e.g. from a
    non-finite neighbor broadcast. Warns with ``RuntimeWarning`` when a
    node stops at ``max_cycles`` and, at each step, when a node's ``K`` is
    singular (``Λ`` has a zero and ``Σ_j η_ij = 0``), which then takes the
    ridge ``1e-10 max(1, tr K/(M+1))`` on every eigenvalue.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
    num, d, m = params.W.shape
    eta_sum = np.asarray(eta_sum, dtype=float)
    # The a-independent parts of K = a gram + 2 eta I and of R = a C + P.
    # R is taken about the shard mean, mu = x̄ + nu, which removes x̄ from
    # its data part: C = [sum_cez, 0], P = [pull_W, pull_mu - 2 eta x̄].
    gram = np.empty((num, m + 1, m + 1))
    gram[:, :m, :m] = moments.sum_ezz
    gram[:, :m, m] = gram[:, m, :m] = moments.sum_ez
    gram[:, m, m] = stats.n
    p = np.concatenate(
        [pull.W, (pull.mu - 2.0 * eta_sum[:, None] * stats.mean)[..., None]], axis=-1
    )
    # gram = V diag(lam) Vᵀ is positive semidefinite (lam is clamped at 0), so
    # K = V diag(a lam + 2 eta) Vᵀ is singular only where lam_min = eta = 0.
    lam, vecs = np.linalg.eigh(gram)
    lam = np.maximum(lam, 0.0)
    ridge = (lam[:, 0] == 0.0) & (eta_sum == 0.0)
    # With d = 1/(a lam + 2 eta), [W nu] = R V diag(d) Vᵀ. If the Gram matrix
    # G of B = [C V, P V] has the diagonal terms c = |C v_k|², p = |P v_k|²
    # and q = 2 (C v_k)·(P v_k), the expected residual Σ E|x_n - W z_n - mu|²
    # = scatter - 2 <[W nu], C> + <[W nu]ᵀ[W nu], gram> is
    #   scatter - Σ d (2 a c + q) + Σ lam d² (a² c + a q + p),
    # and the data's energy about mu is scatter + n |nu|² = scatter + n wᵀ G w
    # with w = [a d∘v, d∘v] and v the last row of V (nu = B w).
    cv, pv = moments.sum_cez @ vecs[:, :m], p @ vecs
    b = np.concatenate([cv, pv], axis=-1)
    gram_b = np.swapaxes(b, -1, -2) @ b
    c_k, p_k = np.split(np.diagonal(gram_b, axis1=-2, axis2=-1), 2, axis=-1)
    q_k = 2.0 * np.diagonal(gram_b[:, : m + 1, m + 1 :], axis1=-2, axis2=-1)
    # Every row steps in place: a stopped node's precision stays frozen, and
    # only active rows are checked and warned about. The secant state: the
    # current precision, the previous one and its g - a.
    active, cycles = np.ones(num, dtype=bool), np.zeros(num, dtype=int)
    scatter, n = np.asarray(stats.scatter, dtype=float), np.asarray(stats.n, dtype=float)
    # A singular K takes the ridge 1e-10 max(1, tr K/(M+1)) on every eigenvalue
    # at each step, with tr K = a tr(gram) at eta = 0.
    any_singular, trace = ridge.any(), np.trace(gram, axis1=-2, axis2=-1) / (m + 1)
    shift = 2.0 * eta_sum
    a_cur = np.array(params.a, dtype=float)
    a_prev = f_prev = np.full(num, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_cycles):
            if any_singular:
                shift = np.where(ridge, 1e-10 * np.maximum(1.0, a_cur * trace), 2.0 * eta_sum)
                for value in shift[ridge & active]:
                    warnings.warn(
                        f"M-step normal equations singular; retrying with ridge {value:.3e}",
                        RuntimeWarning,
                    )
            a_col = a_cur[:, None]
            dk = 1.0 / (a_col * lam + shift[:, None])
            ac = a_col * c_k
            acq = ac + q_k
            total = scatter - _inner(dk, ac + acq) + _inner(lam * dk * dk, a_col * acq + p_k)
            w = dk * vecs[:, m]
            w = np.concatenate([a_col * w, w], axis=-1)
            energy = scatter + n * _inner(w, (gram_b @ w[..., None])[..., 0])
            # Floored at relative epsilon: near-perfect reconstructions cancel to
            # rounding noise of unstable sign, and the precision update needs a
            # positive value (the precision then saturates instead of overflowing).
            residual = np.maximum(total, _EPS * (1.0 + energy))
            a_new = _a_update(residual, n, d, pull.a, eta_sum)
            f_cur = a_new - a_cur
            cycles += active
            if not np.isfinite(f_cur[active]).all():
                raise ValueError("M-step produced non-finite parameters")
            # The residual cancels terms of the energy's size, so g(a) carries a
            # relative rounding error of about eps * energy / residual: tol alone
            # can fall below it on near-noiseless data.
            slack = tol + _EPS * energy / residual
            converged = np.abs(f_cur) < slack * (1.0 + np.abs(a_cur))
            done = converged | (residual < _NOISE_FLOOR * energy)
            active &= ~done & (cycles < max_cycles)
            if not active.any():
                break
            secant = a_cur - f_cur * (a_cur - a_prev) / (f_cur - f_prev)
            # A secant step must move a the way g(a) - a points, as the plain
            # step does: where g(a) - a changes slope, one can walk away from
            # the root.
            usable = np.isfinite(secant) & (secant > 0) & ((secant - a_cur) * f_cur > 0)
            step = np.where(usable, secant, a_new)
            a_prev, f_prev, a_cur = a_cur, f_cur, np.where(active, step, a_cur)
    # A frozen row repeats its last step, so every row now holds its node's:
    # the precision a_cur, d there and g(a) there (a_new). A node that ran
    # max_cycles steps stopped there unless that step converged.
    capped = (cycles == max_cycles) & ~done
    if capped.any():
        warnings.warn(
            f"M-step stopped at max_cycles={max_cycles} on {int(capped.sum())} node(s) "
            "before converging",
            RuntimeWarning,
        )
    # R V = a C V + P V, so [W nu] = (a C V + P V) diag(d) Vᵀ at the last step.
    sol = (a_cur[:, None, None] * cv + pv) @ (dk[:, :, None] * np.swapaxes(vecs, -1, -2))
    if not np.isfinite(sol).all():
        raise ValueError("M-step produced non-finite parameters")
    return MStep(ParamView(sol[..., :m], stats.mean + sol[..., m], a_new), cycles, capped, ridge)


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
    stats, params = _lead(stats), _lead(init)
    no_pull = _lead(ParamView(np.zeros((d, latent_dim)), np.zeros(d), 0.0))
    for _ in range(iterations):
        moments = e_step(params, stats)
        params = m_step(moments, stats, params, no_pull, np.zeros(1)).params
    return PpcaParams(params.W[0], params.mu[0], params.a[0])


class DppcaModel(ConsensusModel):
    """One node of a :class:`DppcaNodes` for the trace hook: a read-only view of its row ``_row``.

    ``params`` returns a copy of the node's current parameters; only the group steps.
    """

    @property
    def params(self) -> ParamView:
        p, i = self._nodes.params, self._row
        return ParamView(p.W[i].copy(), p.mu[i].copy(), float(p.a[i]))


class DppcaNodes(NodeGroup):
    """Shard statistics and flat parameters ``theta`` of J D-PPCA nodes, one per row.

    ``params`` and ``multipliers`` are the blocks ``(W, mu, a)`` of
    ``theta`` and ``dual``, as :func:`unpack` views that write through.
    Shard factors narrower than the widest are padded with zero columns
    (:func:`make_dppca_factory` builds a group from a run's shards). Each
    phase runs the stacked kernels once for all nodes, on the broadcasts
    and the J x J matrix of penalties (``Graph.weights``). Row i of the
    (J, 3) ``counts`` holds node i's M-step precision steps, its steps
    stopped at ``max_cycles`` and its steps that took the ridge of a
    singular system; :meth:`m_step_counts` sums them.

    :meth:`objectives` keeps its latent solve at the current parameters,
    and the next :meth:`local_step` takes its E-step moments from it, so a
    node solves once per engine iteration. The kept solve holds only until
    the parameters change: :meth:`local_step`, their only writer, drops it.
    """

    view = DppcaModel
    #: precision steps one M-step may run per node
    max_cycles = 500

    def __init__(self, stats: ShardStats, theta: np.ndarray, graph: Graph):
        super().__init__(theta, graph)
        self.stats = stats
        # P = D M + D + 1 columns
        d = stats.mean.shape[-1]
        m = (self.theta.shape[-1] - 1) // d - 1
        self.params, self.multipliers = unpack(self.theta, d, m), unpack(self.dual, d, m)
        self.counts = np.zeros((graph.num_nodes, 3), dtype=int)
        self._kept: _Latent | None = None

    def objectives(self) -> np.ndarray:
        values, self._kept = _objective(self.params, self.stats)
        return values

    def m_step_counts(self) -> tuple[int, int, int]:
        return tuple(self.counts.sum(axis=0).tolist())

    def neighbor_objectives(self, nodes: Sequence[int], theta: np.ndarray) -> np.ndarray:
        """Each of ``nodes``' likelihood at the midpoints of its edges, in latent space.

        Takes and returns what :meth:`NodeGroup.neighbor_objectives` does.
        For an edge from node i with midpoint parameters ``(W_e, mu_e, a_e)``,
        ``B = W_eᵀ [F_i, √n (x̄_i − mu_e)]`` and ``G = W_eᵀ W_e + I/a_e = L Lᵀ``
        give the Woodbury quadratic form
        ``a_e (|F_i|² + n |x̄_i − mu_e|² − |L⁻¹ B|²)`` and ``logdet G``, so
        an edge costs O(D·M·min(D, N)) and holds M x (min(D, N) + 1) and
        D x M arrays. The products ``W_eᵀ F_i`` of a node's edges are one
        matrix product against its factor. The difference of squares
        rounds at about ε·a_e·|[F_i, √n (x̄_i − mu_e)]|²; the own
        objectives keep the sum-of-squares form of
        :func:`negative_log_likelihood`. An edge's value does not depend
        on which other nodes rank.
        """
        nodes = np.asarray(nodes, dtype=int)
        sources, targets = self.graph.edge_arrays()
        rows = self.graph.out_edges(nodes)
        owners = sources[rows]
        points = theta[targets[rows]]
        points += theta[owners]
        points *= 0.5
        stats, (d, m) = self.stats, self.params.W.shape[1:]
        w, mu, a = unpack(points, d, m)
        wt = np.swapaxes(w, -1, -2)
        # W_eᵀ F_i: a node's edges' W_eᵀ stacked into one block of rows,
        # padded with zero rows to the graph's largest degree so that every
        # node's product has the same shape whichever nodes rank.
        degrees = self.graph.degrees
        filled = np.arange(degrees.max()) < degrees[nodes, None]
        blocks = np.zeros(filled.shape + (m, d))
        blocks[filled] = wt
        width = stats.factor.shape[-1]
        wtf = blocks.reshape(len(nodes), -1, d) @ stats.factor[nodes]
        n = stats.n[owners].astype(float)
        offset = np.sqrt(n)[:, None] * (stats.mean[owners] - mu)
        b = np.concatenate(
            [wtf.reshape(filled.shape + (m, width))[filled], wt @ offset[..., None]], axis=-1
        )
        l_inv, logdet = _cholesky(wt @ w + np.eye(m) / a[:, None, None])
        v = l_inv @ b
        quad = a * (stats.scatter[owners] + _vdot(offset, offset, 1) - _vdot(v, v, 2))
        logdet = (m - d) * np.log(a) + logdet
        return 0.5 * (n * d * math.log(2.0 * math.pi) + n * logdet + quad)

    def local_step(self, theta: np.ndarray, eta: np.ndarray) -> None:
        """E-step and M-step of every node against the broadcasts ``theta``.

        The E-step reads the latent solve that :meth:`objectives` kept,
        when there is one, and the step drops it. The M-step's pull is
        ``rowsum(Wη)·θ + Wη θ − 2·dual`` with ``Wη = graph.weights(eta)``.
        """
        weights = self.graph.weights(eta)
        eta_sum = weights.sum(axis=1)
        pull = eta_sum[:, None] * theta + weights @ theta - 2.0 * self.dual
        params = self.params
        latent, self._kept = self._kept, None
        if latent is None:
            latent = _latent(params, _samples(params, self.stats))
        moments = _moments(latent, params, self.stats)
        pull = unpack(pull, *params.W.shape[1:])
        out = m_step(moments, self.stats, params, pull, eta_sum, self.max_cycles)
        for field, new in zip(params, out.params):
            field[:] = new
        self.counts += np.stack([out.cycles, out.capped, out.ridge], axis=1)


def make_dppca_factory(latent_dim: int):
    """Node-group builder for :func:`netadmm.engine.run`.

    ``build(shards, rngs, graph)`` reduces each shard with :func:`shard_stats`,
    draws node i's :func:`initial_params` from ``rngs[i]``, in node order,
    pads the factors to the widest one and stacks the statistics and the
    flat parameters into one :class:`DppcaNodes`. Raises ``ValueError``
    naming the node when its shard is not a finite, non-empty 2-d array.
    """

    def build(shards: Sequence[np.ndarray], rngs: Sequence[np.random.Generator], graph: Graph):
        stats, theta = [], []
        for i, (shard, rng) in enumerate(zip(shards, rngs)):
            try:
                stats.append(shard_stats(shard))
            except ValueError as exc:
                raise ValueError(f"node {i}: {exc}") from exc
            theta.append(initial_params(np.asarray(shard, dtype=float), latent_dim, rng).to_vector())
        width = max(st.factor.shape[1] for st in stats)
        stats = [
            st._replace(factor=np.pad(st.factor, ((0, 0), (0, width - st.factor.shape[1]))))
            for st in stats
        ]
        return DppcaNodes(ShardStats(*map(np.stack, zip(*stats))), np.stack(theta), graph)

    return build
