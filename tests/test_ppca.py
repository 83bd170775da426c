import numpy as np
import pytest
from scipy.stats import multivariate_normal

from netadmm.metrics import subspace_angle
from netadmm.ppca import (
    DppcaNodes,
    LatentMoments,
    ParamView,
    PpcaParams,
    ShardStats,
    centralized_em,
    e_step,
    initial_params,
    m_step,
    make_dppca_factory,
    negative_log_likelihood,
    shard_stats,
    unpack,
)
from netadmm.ppca import _lead


def _random_params(rng, d, m, a=None):
    return PpcaParams(
        rng.standard_normal((d, m)),
        rng.standard_normal(d),
        float(rng.uniform(0.5, 3.0)) if a is None else a,
    )


def _stacked(neighbors, eta, d, m):
    # neighbor parameters and penalties as the kernels take them for one
    # node: one broadcast vector per row, and the 1 x K penalty row
    if not neighbors:
        return np.zeros((0, d * m + d + 1)), np.zeros((1, 0))
    return np.stack([nb.to_vector() for nb in neighbors.values()]), np.array([[eta[j] for j in neighbors]])


def _pull(anchor, mult):
    # m_step's pull: the anchor sum_j eta_ij (theta_i + theta_j) less twice
    # the multipliers, block by block
    return ParamView(*(np.asarray(f) - 2.0 * np.asarray(y) for f, y in zip(anchor, mult)))


def _consensus_m_step(moments, X, params, mult, neighbors, eta):
    # m_step on a one-row stack, pulled to the midpoints of the entry
    # parameters and the neighbors' broadcasts
    d, m = params.W.shape
    broadcasts, weights = _stacked(neighbors, eta, d, m)
    eta_sum = weights.sum(axis=1)
    anchor = unpack(eta_sum[:, None] * params.to_vector()[None] + weights @ broadcasts, d, m)
    stacked = map(_lead, (moments, shard_stats(X), params))
    out = m_step(*stacked, _pull(anchor, _lead(mult)), eta_sum).params
    return ParamView(out.W[0], out.mu[0], float(out.a[0]))


def _consensus_multiplier_step(params, neighbor, eta, mult):
    # NodeGroup.multiplier_step on a built group on complete(2) whose node 0
    # holds params and mult and whose node 1 broadcasts neighbor; node 0's
    # multipliers after the step
    from netadmm.topology import build_complete

    d, m = params.W.shape
    shards = [np.random.default_rng(k).normal(size=(d, 4)) for k in range(2)]
    group = _build(shards, build_complete(2), range(2), m)
    group.theta[:] = [params.to_vector(), neighbor.to_vector()]
    group.dual[0] = mult.to_vector()
    group.multiplier_step(group.params_matrix(), np.full(2, eta))
    return _node(group.multipliers, 0)


def _node(blocks, i):
    # node i's (W, mu, a) of a group's params or multipliers
    return ParamView(blocks.W[i], blocks.mu[i], float(blocks.a[i]))


def _posterior_means(params, X):
    # per-sample reference: E[z_n] = (W^T W + I/a)^-1 W^T (x_n - mu)
    w = params.W
    m_mat = w.T @ w + np.eye(w.shape[1]) / params.a
    return np.linalg.solve(m_mat, w.T @ (X - params.mu[:, None]))


# --------------------------------------------------------------- e-step


def test_e_step_identity_projection_high_precision():
    # with W = I and negligible noise the posterior mean recovers x
    X = np.random.default_rng(0).normal(size=(3, 5))
    params = PpcaParams(np.eye(3), np.zeros(3), 1e12)
    moments = e_step(params, shard_stats(X))
    np.testing.assert_allclose(moments.sum_ez, X.sum(axis=1), atol=1e-9)
    centred = X - X.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(moments.sum_cez, centred @ X.T, atol=1e-9)


def test_e_step_centered_point_maps_to_zero():
    rng = np.random.default_rng(1)
    params = _random_params(rng, 4, 2)
    moments = e_step(params, shard_stats(params.mu[:, None]))
    np.testing.assert_allclose(moments.sum_ez, 0.0, atol=1e-12)
    np.testing.assert_allclose(moments.sum_cez, 0.0, atol=1e-12)


def test_e_step_matches_gaussian_conditioning_oracle():
    # brute force: condition the joint (z, x) Gaussian and compare
    rng = np.random.default_rng(2)
    d, m = 3, 2
    params = _random_params(rng, d, m)
    x = rng.normal(size=(d, 4))
    w, a = params.W, params.a
    joint = np.block(
        [[np.eye(m), w.T], [w, w @ w.T + np.eye(d) / a]]
    )
    cov_zx = joint[:m, m:]
    cov_xx = joint[m:, m:]
    gain = cov_zx @ np.linalg.inv(cov_xx)
    mean_oracle = gain @ (x - params.mu[:, None])
    cov_oracle = np.eye(m) - gain @ cov_zx.T
    moments = e_step(params, shard_stats(x))
    centred = x - x.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(moments.sum_ez, mean_oracle.sum(axis=1), atol=1e-10)
    np.testing.assert_allclose(
        moments.sum_ezz, 4 * cov_oracle + mean_oracle @ mean_oracle.T, atol=1e-10
    )
    np.testing.assert_allclose(moments.sum_cez, centred @ mean_oracle.T, atol=1e-10)
    np.testing.assert_allclose(moments.cov, cov_oracle, atol=1e-10)


def test_e_step_rejects_overflowing_precision():
    # subnormal precision overflows 1/a inside the latent normal equations
    params = PpcaParams(np.eye(2), np.zeros(2), 1e-320)
    with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError):
        e_step(params, shard_stats(np.zeros((2, 3))))


def test_e_step_moment_identity_psd():
    rng = np.random.default_rng(3)
    params = _random_params(rng, 5, 3)
    X = rng.normal(size=(5, 7))
    moments = e_step(params, shard_stats(X))
    ez = _posterior_means(params, X)
    diff = moments.sum_ezz - ez @ ez.T
    np.testing.assert_allclose(diff, 7 * moments.cov, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(moments.cov) > 0)


# ------------------------------------------------------------ objective


def test_objective_standard_normal_point():
    params = PpcaParams(np.zeros((1, 1)), np.zeros(1), 1.0)
    value = negative_log_likelihood(params, shard_stats(np.zeros((1, 1))))
    assert value == pytest.approx(0.5 * np.log(2 * np.pi))


def test_objective_invariant_to_latent_rotation():
    rng = np.random.default_rng(4)
    params = _random_params(rng, 5, 3)
    X = rng.normal(size=(5, 11))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = PpcaParams(params.W @ q, params.mu, params.a)
    stats = shard_stats(X)
    assert negative_log_likelihood(rotated, stats) == pytest.approx(
        negative_log_likelihood(params, stats), rel=1e-12
    )


def test_objective_matches_scipy_density():
    rng = np.random.default_rng(5)
    params = _random_params(rng, 4, 2)
    X = rng.normal(size=(4, 6))
    cov = params.W @ params.W.T + np.eye(4) / params.a
    expected = -multivariate_normal(mean=params.mu, cov=cov).logpdf(X.T).sum()
    assert negative_log_likelihood(params, shard_stats(X)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "d,n,offset,constant_row",
    [
        (6, 40, 0.0, False),
        (12, 5, 0.0, False),
        (6, 40, 1e4, False),
        (12, 5, 1e4, False),
        (6, 40, 0.0, True),
    ],
    ids=["n>d", "n<=d", "n>d-offset", "n<=d-offset", "n>d-rank-deficient"],
)
def test_statistics_objective_matches_scipy_density(d, n, offset, constant_row):
    # the Cholesky factor of the scatter (N > D), the centred shard
    # (N <= D), data far from the origin, where a raw second moment would
    # cancel, and a constant row, whose zero pivot stops the Cholesky
    # factorization and sends N > D to the symmetric square root
    rng = np.random.default_rng(17)
    params = _random_params(rng, d, 3)
    params = PpcaParams(params.W, params.mu + offset, params.a)
    X = rng.normal(size=(d, n)) + params.mu[:, None]
    if constant_row:
        X[2] = 2.5
    centred = X - X.mean(axis=1, keepdims=True)
    scatter = centred @ centred.T
    if constant_row:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(scatter)
    stats = shard_stats(X)
    assert stats.factor.shape == (d, min(d, n))
    np.testing.assert_allclose(
        stats.factor @ stats.factor.T, scatter, rtol=1e-12, atol=1e-12 * np.trace(scatter)
    )
    assert stats.scatter == pytest.approx(np.sum(stats.factor**2), rel=1e-12)
    cov = params.W @ params.W.T + np.eye(d) / params.a
    expected = -multivariate_normal(mean=params.mu, cov=cov).logpdf(X.T).sum()
    assert negative_log_likelihood(params, stats) == pytest.approx(expected, rel=1e-10)


def test_batched_objective_matches_one_at_a_time():
    rng = np.random.default_rng(18)
    d, m = 7, 3
    stats = shard_stats(rng.normal(size=(d, 30)))
    sets = [_random_params(rng, d, m) for _ in range(5)]
    batch = unpack(np.stack([p.to_vector() for p in sets]), d, m)
    values = negative_log_likelihood(batch, stats)
    assert values.shape == (5,)
    for value, params in zip(values, sets):
        assert value == pytest.approx(negative_log_likelihood(params, stats), rel=1e-12)


def _per_sample_reference(params, X):
    # E-step sums and NLL one sample at a time, from dense solves
    d, m = params.W.shape
    g = params.W.T @ params.W + np.eye(m) / params.a
    cov = np.linalg.inv(g) / params.a
    c = params.W @ params.W.T + np.eye(d) / params.a
    logdet_c = np.linalg.slogdet(c)[1]
    sum_ez, sum_ezz, sum_cez, nll = np.zeros(m), np.zeros((m, m)), np.zeros((d, m)), 0.0
    for x in X.T:
        ez = np.linalg.solve(g, params.W.T @ (x - params.mu))
        sum_ez += ez
        sum_ezz += cov + np.outer(ez, ez)
        sum_cez += np.outer(x - X.mean(axis=1), ez)
        r = x - params.mu
        nll += 0.5 * (d * np.log(2 * np.pi) + logdet_c + r @ np.linalg.solve(c, r))
    return LatentMoments(cov, sum_ez, sum_ezz, sum_cez), nll


def _assert_matches_reference(moments, nll, ref_moments, ref_nll):
    # sums of O(1) terms: entries that cancel to ~0 are compared at 1e-12
    for got, want in zip(moments, ref_moments):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert nll == pytest.approx(ref_nll, rel=1e-12)


def test_latent_kernel_matches_per_sample_reference():
    # one Cholesky solve serves the E-step and the likelihood: both match a
    # per-sample reference, for one parameter set and for a padded stack
    rng = np.random.default_rng(29)
    params = _random_params(rng, 6, 2)
    X = rng.normal(size=(6, 9)) + params.mu[:, None]
    stats = shard_stats(X)
    _assert_matches_reference(
        e_step(params, stats), negative_log_likelihood(params, stats),
        *_per_sample_reference(params, X),
    )

    shards, group = _ragged_nodes()
    group.params.mu[:] += rng.normal(size=group.params.mu.shape)
    moments = e_step(group.params, group.stats)
    values = negative_log_likelihood(group.params, group.stats)
    for i, x in enumerate(shards):
        _assert_matches_reference(
            [f[i] for f in moments], values[i], *_per_sample_reference(_node(group.params, i), x)
        )


def test_objective_lower_near_truth_than_perturbed():
    # statistical sanity check on a large sample
    rng = np.random.default_rng(6)
    d, m, n = 6, 2, 4000
    w_true = rng.normal(size=(d, m))
    true = PpcaParams(w_true, rng.normal(size=d), 2.0)
    z = rng.normal(size=(m, n))
    X = true.W @ z + true.mu[:, None] + rng.normal(size=(d, n)) / np.sqrt(true.a)
    perturbed = PpcaParams(
        true.W + 0.5 * rng.normal(size=(d, m)), true.mu + 0.5, true.a * 2.0
    )
    stats = shard_stats(X)
    assert negative_log_likelihood(true, stats) < negative_log_likelihood(perturbed, stats)


# ----------------------------------------------------------- parameters


def test_to_vector_roundtrip():
    rng = np.random.default_rng(7)
    params = _random_params(rng, 4, 2)
    again = unpack(params.to_vector(), 4, 2)
    np.testing.assert_array_equal(again.W, params.W)
    np.testing.assert_array_equal(again.mu, params.mu)
    assert again.a == params.a


@pytest.mark.parametrize(
    "w,mu,a",
    [
        (np.zeros((2, 3)), np.zeros(2), 1.0),  # latent wider than ambient
        (np.zeros((3, 2)), np.zeros(3), 0.0),  # nonpositive precision
        (np.full((3, 2), np.nan), np.zeros(3), 1.0),
    ],
)
def test_params_validation(w, mu, a):
    with pytest.raises(ValueError):
        PpcaParams(w, mu, a)


def test_precision_fallback_without_positive_root():
    # a strongly negative multiplier kills the stationary point; the
    # update falls back to the maximum-likelihood noise value
    from netadmm.ppca import _a_update

    a = _a_update(residual=1.0, num_samples=4, ambient_dim=2, a_pull=20.0, eta_sum=0.0)
    assert a == pytest.approx(8.0)


def _precision_root(b, eta_sum, nd_half):
    # The positive root of 2 eta_sum a^2 + b a - nd_half = 0, to 60 digits.
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    b, a2, c = Decimal(b), 2 * Decimal(eta_sum), Decimal(nd_half)
    if a2 == 0:
        return float(c / b)
    return float((-b + (b * b + 4 * a2 * c).sqrt()) / (2 * a2))


def test_precision_root_does_not_cancel_for_a_large_linear_term():
    # b = 1.19e10, a2 = 3.08, c = 250: the textbook root (-b + sqrt(b^2 +
    # 4 a2 c)) / (2 a2) rounds to exactly 0, and the next objective divides
    # by it.
    from netadmm.ppca import _a_update

    a = _a_update(residual=2.38e10, num_samples=25, ambient_dim=20, a_pull=0.0, eta_sum=1.54)
    assert a > 0
    assert a == pytest.approx(_precision_root(1.19e10, 1.54, 250.0), rel=1e-15)


def test_precision_root_is_accurate_across_the_linear_term():
    # b of either sign from 1e-3 to 1e12 in size, against the root in
    # 60-digit arithmetic; eta_sum = 0 with b > 0 is the linear root c / b.
    from netadmm.ppca import _a_update

    rng = np.random.default_rng(16)
    size = 400
    b = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3, 12, size)
    eta_sum = np.where(rng.random(size) < 0.1, 0.0, 10.0 ** rng.uniform(-2, 3, size))
    b = np.where(eta_sum == 0, np.abs(b), b)
    num_samples = rng.integers(1, 3000, size)
    ambient_dim = 20
    got = _a_update(
        residual=2.0 * b, num_samples=num_samples, ambient_dim=ambient_dim,
        a_pull=np.zeros(size), eta_sum=eta_sum,
    )
    want = [
        _precision_root(bi, ei, 0.5 * ni * ambient_dim)
        for bi, ei, ni in zip(b.tolist(), eta_sum.tolist(), num_samples.tolist())
    ]
    np.testing.assert_allclose(got, want, rtol=1e-14)


# -------------------------------------------------------- centralized EM


def test_centralized_em_recovers_noiseless_subspace():
    rng = np.random.default_rng(8)
    d, m, n = 8, 3, 200
    w_true = np.linalg.qr(rng.normal(size=(d, m)))[0]
    X = w_true @ rng.normal(size=(m, n)) + rng.normal(size=(d, 1))
    params = centralized_em(X, m, init=initial_params(X, m, rng), iterations=60)
    assert subspace_angle(params.W, w_true) < 1e-6


def test_centralized_em_rejects_insufficient_samples():
    with pytest.raises(ValueError):
        centralized_em(np.zeros((4, 3)), 3)


def test_centralized_em_rejects_zero_variance():
    with pytest.raises(ValueError, match="zero variance"):
        centralized_em(np.ones((4, 10)), 2)


def test_centralized_em_monotone_log_likelihood():
    rng = np.random.default_rng(9)
    d, m, n = 20, 5, 120
    w_true = np.linalg.qr(rng.normal(size=(d, m)))[0]
    X = w_true @ rng.normal(size=(m, n)) + np.sqrt(0.2) * rng.normal(size=(d, n))
    params = initial_params(X, m, rng)
    stats = shard_stats(X)
    previous = -negative_log_likelihood(params, stats)
    for _ in range(25):
        params = centralized_em(X, m, init=params, iterations=1)
        current = -negative_log_likelihood(params, stats)
        assert current >= previous - 1e-9
        previous = current


# ---------------------------------------------------------- M-step algebra


def _no_multipliers(d, m):
    return ParamView(np.zeros((d, m)), np.zeros(d), 0.0)


def _one_node_m_step(X, params, mult=None, anchor=None, eta_sum=0.0):
    # m_step on a stack of one node; the anchor defaults to no neighbors
    d, m = params.W.shape
    mult = _no_multipliers(d, m) if mult is None else mult
    anchor = ParamView(np.zeros((d, m)), np.zeros(d), 0.0) if anchor is None else anchor
    stats, params, mult, anchor = map(_lead, (shard_stats(X), params, mult, anchor))
    pull = _pull(anchor, mult)
    out = m_step(e_step(params, stats), stats, params, pull, np.array([eta_sum])).params
    return ParamView(out.W[0], out.mu[0], float(out.a[0]))


def _augmented_moments(params, X):
    # per-sample sums over the augmented latent [z; 1]: Σ x [E z; 1]ᵀ and
    # Σ E[[z; 1][z; 1]ᵀ], with the posterior covariance (WᵀW + I/a)⁻¹ / a
    d, m = params.W.shape
    ez = np.vstack([_posterior_means(params, X), np.ones(X.shape[1])])
    cov = np.zeros((m + 1, m + 1))
    cov[:m, :m] = np.linalg.inv(params.W.T @ params.W + np.eye(m) / params.a) / params.a
    return X @ ez.T, X.shape[1] * cov + ez @ ez.T


def test_joint_solve_without_neighbors_is_augmented_latent_regression():
    # no neighbors and zero multipliers: [W mu] is the regression of the
    # samples on the augmented latent, whatever the precision
    rng = np.random.default_rng(10)
    d, m, n = 4, 2, 9
    X = rng.normal(size=(d, n))
    params = _random_params(rng, d, m)
    out = _one_node_m_step(X, params)
    cross, gram = _augmented_moments(params, X)
    expected = cross @ np.linalg.inv(gram)
    np.testing.assert_allclose(out.W, expected[:, :m], rtol=1e-12)
    np.testing.assert_allclose(out.mu, expected[:, m], rtol=1e-12)


def test_joint_solve_penalty_weighted_when_anchors_are_own_parameters():
    # every anchor at the node's own parameters, zero multipliers: the data
    # regression and [W_i mu_i] mix with weights a Σ E[z̃ z̃ᵀ] and 2 Σ_j η_ij I
    rng = np.random.default_rng(11)
    d, m, n = 3, 2, 6
    X = rng.normal(size=(d, n))
    params = _random_params(rng, d, m, a=2.0)
    etas = [4.0, 6.0]
    eta_sum = sum(etas)
    anchor = ParamView(*(sum(e * 2.0 * np.asarray(f) for e in etas) for f in params))
    out = _one_node_m_step(X, params, anchor=anchor, eta_sum=eta_sum)
    cross, gram = _augmented_moments(params, X)
    own = np.column_stack([params.W, params.mu])
    # W and mu are exact for the precision of the last step, which the
    # returned precision follows to well within 1e-12 relative
    a = out.a
    expected = (a * cross + 2.0 * eta_sum * own) @ np.linalg.inv(
        a * gram + 2.0 * eta_sum * np.eye(m + 1)
    )
    np.testing.assert_allclose(out.W, expected[:, :m], rtol=1e-12)
    np.testing.assert_allclose(out.mu, expected[:, m], rtol=1e-12)


def test_m_step_depends_on_entry_precision_only():
    # W and mu are solved afresh for each precision, so entry W and mu
    # with the same entry a give the same result bit for bit
    rng = np.random.default_rng(27)
    d, m, n = 5, 2, 8
    X = rng.normal(size=(d, n))
    params = _random_params(rng, d, m)
    mult = ParamView(
        0.3 * rng.standard_normal((d, m)), 0.3 * rng.standard_normal(d), 0.2
    )
    anchor = ParamView(rng.normal(size=(d, m)), rng.normal(size=d), 5.0)
    moments = e_step(params, shard_stats(X))
    outs = [
        m_step(*map(_lead, (moments, shard_stats(X), entry, _pull(anchor, mult))), np.array([7.0]))
        for entry in (params, _random_params(rng, d, m, a=params.a))
    ]
    for got, want in zip(outs[0].params, outs[1].params):
        np.testing.assert_array_equal(got, want)
    assert outs[0].cycles[0] == outs[1].cycles[0]


def _node_lagrangian(moments, X, mult, neighbors, eta, anchors):
    # independent evaluation of the objective the M-step minimizes
    n, d = X.shape[1], X.shape[0]

    def value(w, mu, a):
        centered = X - mu[:, None]
        cross = moments.sum_cez + np.outer(X.mean(axis=1), moments.sum_ez)  # sum_n x_n E[z_n]^T
        resid = (
            float(np.sum(centered**2))
            - 2.0 * float(np.sum(w * (cross - np.outer(mu, moments.sum_ez))))
            + float(np.sum((w.T @ w) * moments.sum_ezz))
        )
        total = 0.5 * a * resid - 0.5 * n * d * np.log(a)
        total += (
            2.0 * float(np.sum(mult.W * w))
            + 2.0 * float(mult.mu @ mu)
            + 2.0 * mult.a * a
        )
        for j in neighbors:
            aw, amu, aa = anchors[j]
            total += eta[j] * (
                float(np.sum((w - aw) ** 2))
                + float(np.sum((mu - amu) ** 2))
                + (a - aa) ** 2
            )
        return total

    return value


def _fd_gradient_norms(fun, w, mu, a, h=1e-6):
    wf = w.ravel().copy()

    def at(wvec, muv, av):
        return fun(wvec.reshape(w.shape), muv, av)

    gw = np.zeros_like(wf)
    for k in range(wf.size):
        step = h * (1.0 + abs(wf[k]))
        e = np.zeros_like(wf)
        e[k] = step
        gw[k] = (at(wf + e, mu, a) - at(wf - e, mu, a)) / (2 * step)
    gm = np.zeros_like(mu)
    for k in range(mu.size):
        step = h * (1.0 + abs(mu[k]))
        e = np.zeros_like(mu)
        e[k] = step
        gm[k] = (at(wf, mu + e, a) - at(wf, mu - e, a)) / (2 * step)
    step = h * (1.0 + abs(a))
    ga = (at(wf, mu, a + step) - at(wf, mu, a - step)) / (2 * step)
    return np.linalg.norm(gw), np.linalg.norm(gm), abs(ga)


def test_m_step_stationarity_randomized():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(d, 3) + 1))
        n = int(rng.integers(m + 1, 11))
        X = rng.standard_normal((d, n))
        params = _random_params(rng, d, m)
        mult = ParamView(
            0.3 * rng.standard_normal((d, m)),
            0.3 * rng.standard_normal(d),
            float(0.3 * rng.standard_normal()),
        )
        k = int(rng.integers(0, 4))
        neighbors = {j: _random_params(rng, d, m) for j in range(k)}
        eta = {j: float(rng.uniform(1.0, 20.0)) for j in range(k)}
        moments = e_step(params, shard_stats(X))
        anchors = {
            j: (
                0.5 * (params.W + nb.W),
                0.5 * (params.mu + nb.mu),
                0.5 * (params.a + nb.a),
            )
            for j, nb in neighbors.items()
        }
        out = _consensus_m_step(moments, X, params, mult, neighbors, eta)
        fun = _node_lagrangian(moments, X, mult, neighbors, eta, anchors)
        value = fun(out.W, out.mu, out.a)
        for g in _fd_gradient_norms(fun, out.W, out.mu, out.a):
            assert g / (1.0 + abs(value)) < 1e-5


def test_m_step_decreases_node_lagrangian():
    rng = np.random.default_rng(13)
    d, m, n = 5, 2, 8
    X = rng.standard_normal((d, n))
    params = _random_params(rng, d, m)
    neighbors = {0: _random_params(rng, d, m), 1: _random_params(rng, d, m)}
    eta = {0: 3.0, 1: 12.0}
    mult = _no_multipliers(d, m)
    moments = e_step(params, shard_stats(X))
    anchors = {
        j: (0.5 * (params.W + nb.W), 0.5 * (params.mu + nb.mu), 0.5 * (params.a + nb.a))
        for j, nb in neighbors.items()
    }
    fun = _node_lagrangian(moments, X, mult, neighbors, eta, anchors)
    out = _consensus_m_step(moments, X, params, mult, neighbors, eta)
    assert fun(out.W, out.mu, out.a) <= fun(params.W, params.mu, params.a) + 1e-9


def _zero_moments(d, m):
    return LatentMoments(np.zeros((m, m)), np.zeros(m), np.zeros((m, m)), np.zeros((d, m)))


def test_singular_joint_system_recovers_with_ridge():
    # zero latent moments and no neighbors make K singular; the solve is
    # retried with a ridge and a warning, and the node is reported
    d, m = 3, 2
    X = np.random.default_rng(16).normal(size=(d, 4))
    params = PpcaParams(np.ones((d, m)), np.zeros(d), 1.0)
    anchor = ParamView(np.zeros((d, m)), np.zeros(d), 0.0)
    inputs = (_zero_moments(d, m), shard_stats(X), params, _pull(anchor, _no_multipliers(d, m)))
    with pytest.warns(RuntimeWarning, match="ridge"):
        out = m_step(*map(_lead, inputs), np.zeros(1))
    assert all(np.all(np.isfinite(f)) for f in out.params)
    assert out.ridge.tolist() == [True] and not out.capped.any()


def test_ridge_retries_are_counted(monkeypatch):
    # one node alone (no penalties) with zero latent moments: K is singular
    # in every M-step, and the run counts each node step that retried it
    from netadmm import engine, metrics, ppca

    def zero_moments(latent, params, stats):
        zeros = _zero_moments(*params.W.shape[1:])
        return LatentMoments(*(np.zeros((len(params.a),) + f.shape) for f in zeros))

    # every E-step, fresh or from the solve kept by the own objectives,
    # reads its moments through _moments
    monkeypatch.setattr(ppca, "_moments", zero_moments)
    rng = np.random.default_rng(28)
    cfg = engine.RunConfig(
        topology="complete", num_nodes=1, scheme="fixed", max_iterations=2, convergence_tol=1e-300
    )
    with pytest.warns(RuntimeWarning, match="ridge"):
        result = engine.run(cfg, ppca.make_dppca_factory(2), [rng.normal(size=(4, 10))])
    assert len(result.records) == 2 and result.nodes.counts[0, 1:].tolist() == [0, 2]
    assert metrics.run_report(result)["m_step"] == {"cycles": 3, "cap_hits": 0, "ridge": 2}


def _inverse_first_step(moments, stats, params, pull, eta_sum):
    # The reference for the M-step's first precision step, node by node,
    # in the arithmetic of an explicit inverse: K⁻¹ = inv(a gram + 2η I),
    # or inv(K + ridge I) with ridge = 1e-10 max(1, tr K/(M+1)) where inv
    # finds K singular; the residual and the energy from (M+1) x (M+1)
    # products of C = [sum_cez, 0] and P; g(a) from them; [W ν] = R K⁻¹.
    # Returns per node W, mu, g(a), the ridge (0 if none) and cond(K).
    from netadmm.ppca import _a_update

    num, d, m = params.W.shape
    eps = np.finfo(float).eps
    out = []
    for i in range(num):
        a, eta, n = float(params.a[i]), float(eta_sum[i]), float(stats.n[i])
        ez = moments.sum_ez[i][:, None]
        gram = np.block([[moments.sum_ezz[i], ez], [ez.T, np.full((1, 1), n)]])
        c = np.column_stack([moments.sum_cez[i], np.zeros(d)])
        p = np.column_stack([pull.W[i], pull.mu[i] - 2.0 * eta * stats.mean[i]])
        k = a * gram + 2.0 * eta * np.eye(m + 1)
        ridge = 0.0
        try:
            k_inv = np.linalg.inv(k)
        except np.linalg.LinAlgError:
            ridge = 1e-10 * max(1.0, float(np.trace(k)) / (m + 1))
            k_inv = np.linalg.inv(k + ridge * np.eye(m + 1))
        cc, cp, pp = c.T @ c, c.T @ p, p.T @ p
        xx = k_inv @ (a * (a * cc + cp + cp.T) + pp) @ k_inv
        energy = stats.scatter[i] + n * xx[m, m]
        total = stats.scatter[i] - 2.0 * np.sum(k_inv * (a * cc + cp)) + np.sum(xx * gram)
        residual = max(total, eps * (1.0 + energy))
        g = float(_a_update(residual, n, d, float(pull.a[i]), eta))
        x = (a * c + p) @ k_inv
        out.append((x[:, :m], stats.mean[i] + x[:, m], g, ridge, np.linalg.cond(k)))
    return out


def _random_m_step_inputs(rng, num, m, eta, d=7, n=12, ill=False):
    # E-step moments of J random shards at random parameters, a random pull
    # and a penalty sum of eta per node. ``ill`` scales node 0's first
    # projection column by 1e3, which shrinks its latent moments along it
    # by about 1e-6 and so makes its gram ill-conditioned.
    shards = [rng.normal(size=(d, n)) for _ in range(num)]
    stats = ShardStats(*map(np.stack, zip(*(shard_stats(x) for x in shards))))
    w = rng.normal(size=(num, d, m))
    if ill:
        w[0, :, 0] *= 1e3
    params = ParamView(w, rng.normal(size=(num, d)), rng.uniform(0.5, 3.0, num))
    pull = ParamView(rng.normal(size=(num, d, m)), rng.normal(size=(num, d)), rng.normal(size=num))
    return e_step(params, stats), stats, params, pull, np.full(num, eta)


def _assert_matches_first_step(out, reference):
    # The tolerance follows from the dtype and cond(K), set before the
    # comparison: both sides solve one system in K, so each carries an
    # error of about eps·cond(K) relative to the solution's size.
    eps = np.finfo(float).eps
    for i, (w, mu, g, _, cond) in enumerate(reference):
        tol = 100.0 * eps * cond
        size = max(np.abs(w).max(), np.abs(mu).max())
        np.testing.assert_allclose(out.params.W[i], w, rtol=0, atol=tol * size)
        np.testing.assert_allclose(out.params.mu[i], mu, rtol=0, atol=tol * size)
        assert out.params.a[i] == pytest.approx(g, rel=tol)


@pytest.mark.parametrize("num", [1, 5, 20])
@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("eta", [0.0, 7.5])
def test_first_precision_step_matches_the_inverse_reference(num, m, eta):
    rng = np.random.default_rng(100 * num + 10 * m + int(eta))
    inputs = _random_m_step_inputs(rng, num, m, eta)
    with pytest.warns(RuntimeWarning, match="max_cycles=1"):
        out = m_step(*inputs, max_cycles=1)
    assert out.cycles.tolist() == [1] * num and not out.ridge.any()
    _assert_matches_first_step(out, _inverse_first_step(*inputs))


def test_first_precision_step_matches_the_inverse_reference_when_ill_conditioned():
    inputs = _random_m_step_inputs(np.random.default_rng(41), 5, 3, 0.0, ill=True)
    reference = _inverse_first_step(*inputs)
    assert reference[0][4] > 1e6 and max(r[4] for r in reference[1:]) < 1e3
    with pytest.warns(RuntimeWarning, match="max_cycles=1"):
        out = m_step(*inputs, max_cycles=1)
    _assert_matches_first_step(out, reference)


def test_singular_k_takes_the_reference_ridge():
    # zero latent moments and no penalty: K = a diag(0, ..., 0, n) is
    # exactly singular, and a nonzero pull (twice the negated multipliers)
    # puts the ridge into W
    rng = np.random.default_rng(42)
    num, d, m = 3, 4, 2
    moments, stats, params, pull, eta_sum = _random_m_step_inputs(rng, num, m, 0.0, d=d)
    moments = LatentMoments(*(np.zeros_like(f) for f in moments))
    inputs = (moments, stats, params, pull, eta_sum)
    reference = _inverse_first_step(*inputs)
    with pytest.warns(RuntimeWarning) as caught:
        out = m_step(*inputs, max_cycles=1)
    ridges = [str(w.message) for w in caught if "ridge" in str(w.message)]
    assert ridges == [
        f"M-step normal equations singular; retrying with ridge {r[3]:.3e}" for r in reference
    ]
    assert out.ridge.tolist() == [True] * num
    for i, (w, mu, g, _, _) in enumerate(reference):
        np.testing.assert_allclose(out.params.W[i], w, rtol=1e-12)
        np.testing.assert_allclose(out.params.mu[i], mu, rtol=1e-12)
        assert out.params.a[i] == pytest.approx(g, rel=1e-12)


def test_network_consensus_at_convergence():
    # run past the loose stopping point: all nodes end on one subspace
    from itertools import combinations

    from netadmm import data, engine

    spec = data.SyntheticSpec(
        num_samples=240, ambient_dim=12, latent_dim=3, noise_variance=0.2, seed=0
    )
    X, _ = data.generate_synthetic(spec)
    shards = data.partition_even(X, 8)
    for scheme in ("fixed", "vp", "ap"):
        cfg = engine.RunConfig(
            topology="complete",
            num_nodes=8,
            scheme=scheme,
            max_iterations=600,
            convergence_tol=1e-7,
            seed=1,
        )
        result = engine.run(cfg, make_dppca_factory(3), shards)
        assert result.converged
        bases = result.nodes.params.W
        worst = max(
            subspace_angle(bases[i], bases[j]) for i, j in combinations(range(8), 2)
        )
        assert worst < 1.0, (scheme, worst)


# ------------------------------------------------------- multiplier step


def test_multipliers_unchanged_at_consensus():
    rng = np.random.default_rng(14)
    params = _random_params(rng, 3, 2)
    mult = ParamView(
        rng.normal(size=(3, 2)), rng.normal(size=3), float(rng.normal())
    )
    out = _consensus_multiplier_step(params, params, 10.0, mult)
    np.testing.assert_array_equal(out.W, mult.W)
    np.testing.assert_array_equal(out.mu, mult.mu)
    assert out.a == mult.a


def test_multiplier_increment_direct():
    own = PpcaParams(np.zeros((1, 1)), np.array([0.2]), 1.0)
    nb = PpcaParams(np.zeros((1, 1)), np.array([0.0]), 1.0)
    out = _consensus_multiplier_step(own, nb, 10.0, _no_multipliers(1, 1))
    np.testing.assert_allclose(out.mu, [1.0])


def test_multiplier_increment_linear_in_eta():
    rng = np.random.default_rng(15)
    own = _random_params(rng, 3, 2)
    nb = _random_params(rng, 3, 2)
    zero = _no_multipliers(3, 2)
    single = _consensus_multiplier_step(own, nb, 7.0, zero)
    double = _consensus_multiplier_step(own, nb, 14.0, zero)
    np.testing.assert_allclose(double.W, 2.0 * single.W, rtol=1e-12)
    np.testing.assert_allclose(double.mu, 2.0 * single.mu, rtol=1e-12)
    assert double.a == pytest.approx(2.0 * single.a, rel=1e-12)


def test_row_dots_match_vdot_bit_for_bit():
    # the kernel's inner products on numpy 1.x, where np.vecdot is missing
    from netadmm.ppca import _row_dots

    rng = np.random.default_rng(26)
    for shape in [(20, 100), (5, 600), (4, 50), (1, 7)]:
        x, y = rng.normal(size=shape), rng.normal(size=shape)
        want = [np.vdot(u, v) for u, v in zip(x, y)]
        assert _row_dots(x, y).tolist() == want


# ------------------------------------------------------------ node model


def _arrays(obj, seen=None):
    # every ndarray reachable from a node group's attributes
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item, seen)]
    if hasattr(obj, "__dict__") or hasattr(obj, "__dataclass_fields__"):
        fields = vars(obj) if hasattr(obj, "__dict__") else {
            k: getattr(obj, k) for k in obj.__dataclass_fields__
        }
        return [a for value in fields.values() for a in _arrays(value, seen)]
    return []


def test_model_keeps_no_per_sample_array():
    from netadmm.topology import build_complete

    d, n = 6, 250
    shard = np.random.default_rng(19).normal(size=(d, n))
    group = _build([shard], build_complete(1), [0])
    group.local_step(group.params_matrix(), np.zeros(0))
    held = _arrays(group)
    assert held, "walker found no arrays"
    assert all(n not in a.shape for a in held), [a.shape for a in held]


def test_trace_hook_sees_each_iterations_parameters():
    # a hook that stores its views' params without copying keeps that
    # iteration's values
    from netadmm import engine

    rng = np.random.default_rng(25)
    shards = [rng.normal(size=(5, 12)) for _ in range(3)]
    cfg = engine.RunConfig(
        topology="complete", num_nodes=3, scheme="fixed", max_iterations=4, convergence_tol=1e-300
    )
    stored = []
    result = engine.run(
        cfg,
        make_dppca_factory(2),
        shards,
        trace_hook=lambda t, s, models: stored.append(
            [(m.params.W, m.params.mu) for m in models]
        ),
    )
    assert len(stored) == 4
    for node in range(3):
        for t in range(3):
            for block in range(2):
                assert not np.array_equal(stored[t][node][block], stored[t + 1][node][block])
        np.testing.assert_array_equal(stored[-1][node][0], result.nodes.params.W[node])


@pytest.mark.parametrize(
    "shard,message",
    [
        (np.zeros(5), "2-d"),
        (np.zeros((4, 0)), "empty"),
        (np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]]), "non-finite"),
    ],
    ids=["not-2d", "empty", "non-finite"],
)
def test_factory_rejects_bad_shard_naming_node(shard, message):
    # through engine.run, with the bad shard at node 3, before iteration 0
    from netadmm import engine

    rng = np.random.default_rng(32)
    shards = [rng.normal(size=(len(shard), 6)) for _ in range(5)]
    shards[3] = shard
    cfg = engine.RunConfig(topology="complete", num_nodes=5, scheme="fixed", max_iterations=3)
    iterations = []
    with pytest.raises(ValueError, match=f"^node 3: .*{message}"):
        engine.run(cfg, make_dppca_factory(1), shards, lambda t, s, models: iterations.append(t))
    assert iterations == []


def test_nan_neighbor_broadcast_ends_run_with_error():
    from netadmm import engine

    class CorruptNodes(DppcaNodes):
        # node 0 broadcasts a NaN from iteration 1 on (the first broadcast
        # is the initial one)
        broadcasts = 0

        def params_matrix(self):
            theta = super().params_matrix()
            self.broadcasts += 1
            if self.broadcasts > 2:
                theta[0, 0] = np.nan
            return theta

    def corrupt(shards, rngs, graph):
        built = make_dppca_factory(2)(shards, rngs, graph)
        return CorruptNodes(built.stats, built.theta, graph)

    rng = np.random.default_rng(20)
    shards = [rng.normal(size=(4, 10)) for _ in range(3)]
    cfg = engine.RunConfig(topology="complete", num_nodes=3, scheme="ap", max_iterations=5)
    result = engine.run(cfg, corrupt, shards)
    assert result.outcome == "error" and not result.converged
    assert result.message == "LinAlgError at iteration 1: latent normal equations are non-finite"
    assert [record.t for record in result.records] == [0]


# ------------------------------------------------- stacked node group


def _build(shards, graph, seeds, latent_dim=2):
    # The shards' nodes as one group, node k's parameters drawn from
    # default_rng(seeds[k]).
    return make_dppca_factory(latent_dim)(shards, [np.random.default_rng(s) for s in seeds], graph)


def _ragged_nodes():
    # Five nodes on complete(5) with shards of 3, 4, 6, 9 and 20 samples in
    # D=6: the first three keep their centred shard as factor (padded to 6
    # columns when stacked), the last two a 6 x 6 Cholesky factor.
    from netadmm.topology import build_complete

    rng = np.random.default_rng(21)
    shards = [rng.normal(size=(6, n)) + rng.normal(size=(6, 1)) for n in (3, 4, 6, 9, 20)]
    return shards, _build(shards, build_complete(5), range(5))


def test_builder_draws_each_node_from_its_generator_in_node_order():
    # Node i's initial parameters come from rngs[i] and its statistics from
    # its own shard, whatever the factor kind and padding.
    from netadmm.topology import build_complete

    shards = _ragged_nodes()[0]

    def rngs():
        return [np.random.default_rng(s) for s in np.random.SeedSequence(11).spawn(5)]

    group = make_dppca_factory(2)(shards, rngs(), build_complete(5))
    for i, (x, rng) in enumerate(zip(shards, rngs())):
        want = initial_params(x, 2, rng)
        np.testing.assert_array_equal(group.params.W[i], want.W)
        np.testing.assert_array_equal(group.params.mu[i], want.mu)
        assert group.params.a[i] == want.a
        want = shard_stats(x)
        width = want.factor.shape[1]
        assert group.stats.n[i] == want.n and group.stats.scatter[i] == want.scatter
        np.testing.assert_array_equal(group.stats.mean[i], want.mean)
        np.testing.assert_array_equal(group.stats.factor[i, :, :width], want.factor)
        assert not group.stats.factor[i, :, width:].any()


def test_stacked_phases_match_one_node_at_a_time():
    # Each node alone, in its own one-row, unpadded group, stepped against
    # its row of the network's J x J penalties with a fresh E-step, against
    # the padded stack of all five
    from netadmm.topology import build_complete

    shards, group = _ragged_nodes()
    singles = [_build([x], build_complete(1), [i]) for i, x in enumerate(shards)]
    graph = group.graph
    assert group.stats.factor.shape == (5, 6, 6)
    assert [single.stats.factor.shape[-1] for single in singles] == [3, 4, 6, 6, 6]
    rng = np.random.default_rng(22)
    edges = graph.edge_arrays()[0]

    def local_step_alone(nodes, i, theta, weights):
        row = weights[[i]]
        eta_sum = row.sum(axis=1)
        anchor = unpack(eta_sum[:, None] * theta[[i]] + row @ theta, 6, 2)
        moments = e_step(nodes.params, nodes.stats)
        pull = _pull(anchor, nodes.multipliers)
        out = m_step(moments, nodes.stats, nodes.params, pull, eta_sum)
        for field, new in zip(nodes.params, out.params):
            field[:] = new
        nodes.counts += np.stack([out.cycles, out.capped, out.ridge], axis=1)

    def multiplier_step_alone(nodes, i, theta, weights):
        # the group averages each edge's two directed penalties
        row = 0.5 * (weights + weights.T)[[i]]
        nodes.dual += 0.5 * (row.sum(axis=1)[:, None] * theta[[i]] - row @ theta)

    def assert_rows_match():
        for i, single in enumerate(singles):
            got, want = _node(group.params, i), _node(single.params, 0)
            np.testing.assert_allclose(got.W, want.W, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.mu, want.mu, rtol=1e-12, atol=0)
            assert got.a == pytest.approx(want.a, rel=1e-12)
            got, want = _node(group.multipliers, i), _node(single.multipliers, 0)
            np.testing.assert_allclose(got.W, want.W, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got.mu, want.mu, rtol=1e-12, atol=1e-15)
            assert got.a == pytest.approx(want.a, rel=1e-12, abs=1e-15)

    # E-step on padded stacked statistics against each node's own
    moments = e_step(group.params, group.stats)
    for i, x in enumerate(shards):
        own = e_step(_node(singles[i].params, 0), shard_stats(x))
        for got, want in zip(moments, own):
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-13)

    for _ in range(3):
        theta = group.params_matrix()
        eta = rng.uniform(1.0, 20.0, size=len(edges))
        group.objectives()  # keeps the latent solve the next local step reads
        group.local_step(theta, eta)
        for i, single in enumerate(singles):
            local_step_alone(single, i, theta, graph.weights(eta))
        theta = group.params_matrix()
        dual = rng.uniform(1.0, 20.0, size=len(edges))
        group.multiplier_step(theta, dual)
        for i, single in enumerate(singles):
            multiplier_step_alone(single, i, theta, graph.weights(dual))
        assert_rows_match()

    # own objectives against each node's likelihood, and ranking objectives
    # at every edge midpoint against the owner's likelihood there
    want = [negative_log_likelihood(_node(s.params, 0), shard_stats(x)) for s, x in zip(singles, shards)]
    np.testing.assert_allclose(group.objectives(), want, rtol=1e-12)
    _assert_ranking_matches_nll(group, [0, 2, 4], group.params_matrix())
    cycles, cap_hits, ridge = group.m_step_counts()
    assert cycles == sum(s.m_step_counts()[0] for s in singles) > 0 and cap_hits == ridge == 0


def _ragged_group(graph):
    # One node per graph node, with 3, 4, 6, 9, 20, 7, ... samples in D=6
    # (factors of N <= D and N > D side by side), after three fixed-penalty
    # iterations so that neighbors differ but not wildly.
    rng = np.random.default_rng(27)
    sizes = [(3, 4, 6, 9, 20, 7)[i % 6] for i in range(graph.num_nodes)]
    shards = [rng.normal(size=(6, n)) + rng.normal(size=(6, 1)) for n in sizes]
    group = _build(shards, graph, range(len(shards)))
    eta = np.full(len(graph.edge_arrays()[0]), 5.0)
    for _ in range(3):
        group.local_step(group.params_matrix(), eta)
        group.multiplier_step(group.params_matrix(), eta)
    return group


def _assert_ranking_matches_nll(group, nodes, theta):
    # Each ranking edge's value against negative_log_likelihood of its
    # owner at the edge midpoint, within 64 eps a_e |[F_i, sqrt(n) (x̄_i - mu_e)]|^2.
    got = group.neighbor_objectives(np.asarray(nodes), theta)
    d, m = group.params.W.shape[1:]
    want, bound = [], []
    for i in nodes:
        stats = ShardStats(*(np.asarray(f)[i] for f in group.stats))
        for j in group.graph.neighbors[i]:
            params = PpcaParams(*unpack(0.5 * (theta[i] + theta[j]), d, m))
            want.append(negative_log_likelihood(params, stats))
            energy = stats.scatter + stats.n * np.sum((stats.mean - params.mu) ** 2)
            bound.append(64 * np.finfo(float).eps * params.a * energy)
    assert got.shape == (len(want),)
    error = np.abs(got - np.array(want))
    assert np.all(error <= bound), np.max(error / bound)


@pytest.mark.parametrize("topology", ["complete", "cluster"], ids=["complete-midpoint", "cluster-midpoint"])
def test_ranking_objectives_match_negative_log_likelihood(topology):
    # Every node and a subset rank, on complete(5) and on the ragged
    # cluster(6); each edge's value is the owner's likelihood at its midpoint.
    from netadmm.topology import build_graph

    graph = build_graph(topology, 5 if topology == "complete" else 6)
    group = _ragged_group(graph)
    for nodes in (range(graph.num_nodes), [1, 2, 4]):
        _assert_ranking_matches_nll(group, nodes, group.params_matrix())


def test_ranking_a_subset_gives_the_same_rows():
    # An edge's value does not depend on which other nodes rank, on a
    # graph of equal degrees and on the ragged cluster(6).
    from netadmm.topology import build_graph

    for topology in ("complete", "cluster"):
        graph = build_graph(topology, 6)
        group = _ragged_group(graph)
        theta = group.params_matrix()
        whole = group.neighbor_objectives(np.arange(6), theta)
        for nodes in ([0], [2, 3], [1, 3, 5], [0, 1, 2, 4, 5]):
            part = group.neighbor_objectives(np.array(nodes), theta)
            np.testing.assert_array_equal(part, whole[graph.out_edges(nodes)])


def test_ranking_objectives_on_an_sfm_shard():
    # D = 200 points, 16 rows per node at sigma = 0.01, at the precisions
    # of 35 fixed-penalty iterations, the benchmark's budget on this scene.
    from netadmm import data, engine
    matrix = data.generate_rigid_measurements(40, 200, noise_sigma=0.01, seed=7)
    shards = data.sfm_node_shards(data.MeasurementMatrix(matrix), 5)
    cfg = engine.RunConfig(
        topology="complete", num_nodes=5, scheme="fixed", max_iterations=35,
        convergence_tol=1e-300, seed=7,
    )
    group = engine.run(cfg, make_dppca_factory(3), shards).nodes
    assert group.stats.factor.shape == (5, 200, 16)
    theta = group.params_matrix()
    assert theta[:, -1].min() > 30
    _assert_ranking_matches_nll(group, range(5), theta)


def test_ranking_objectives_reject_a_non_finite_broadcast():
    from netadmm.topology import build_complete

    group = _ragged_group(build_complete(5))
    for column in (0, -1):  # an entry of W, the precision
        theta = group.params_matrix()
        theta[3, column] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            group.neighbor_objectives(np.arange(5), theta)


def test_kept_latent_solve_gives_the_fresh_e_step():
    # objectives() then a group step, against the same step with the kept
    # latent solve dropped
    groups = []
    for keep in (True, False):
        group = _ragged_nodes()[1]
        eta = np.random.default_rng(30).uniform(1.0, 20.0, size=len(group.graph.edge_arrays()[0]))
        group.objectives()
        if not keep:
            group._kept = None
        group.local_step(group.params_matrix(), eta)
        groups.append(group)
    for got, want in zip(*(g.params for g in groups)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_latent_solves_per_iteration(monkeypatch):
    # Without ranking a node solves once per iteration, in its own
    # objectives, plus once before the first; the E-step reuses that solve.
    from netadmm import engine, ppca

    calls = {"latent": 0, "objective": 0, "e_step": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, attr in (("latent", "_latent"), ("objective", "_objective"), ("e_step", "e_step")):
        monkeypatch.setattr(ppca, attr, counted(name, getattr(ppca, attr)))
    rng = np.random.default_rng(31)
    shards = [rng.normal(size=(5, 12)) for _ in range(3)]
    cfg = engine.RunConfig(
        topology="complete", num_nodes=3, scheme="fixed", max_iterations=6, convergence_tol=1e-300
    )
    engine.run(cfg, ppca.make_dppca_factory(2), shards)
    assert calls == {"latent": 7, "objective": 7, "e_step": 0}


def test_nan_broadcast_in_stacked_step_raises_before_writing():
    _, group = _ragged_nodes()
    graph = group.graph
    group.objectives()
    before = group.params_matrix()
    theta = before.copy()
    theta[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        group.local_step(theta, np.full(len(graph.edge_arrays()[0]), 5.0))
    np.testing.assert_array_equal(group.params_matrix(), before)


def test_m_step_freezes_converged_rows():
    # One node enters at its own M-step fixed point and stops after a cycle
    # or two; the others keep cycling without touching its rows.
    _, group = _ragged_nodes()
    rng = np.random.default_rng(23)
    params = group.params
    anchor = unpack(rng.normal(size=(5, 6 * 2 + 6 + 1)), 6, 2)
    anchor = anchor._replace(a=np.abs(anchor.a))
    eta_sum = rng.uniform(5.0, 40.0, size=5)
    pull = _pull(anchor, group.multipliers)
    moments = e_step(params, group.stats)
    first = m_step(moments, group.stats, params, pull, eta_sum)
    start = params._replace(
        W=params.W.copy(), mu=params.mu.copy(), a=params.a.copy()
    )
    start.W[0], start.mu[0], start.a[0] = first.params.W[0], first.params.mu[0], first.params.a[0]
    out = m_step(moments, group.stats, start, pull, eta_sum)
    assert out.cycles[0] < out.cycles.max()
    assert not out.capped.any()

    def take(nt, i):
        return type(nt)(*(np.asarray(f)[[i]] for f in nt))

    for i in range(5):
        alone = m_step(
            take(moments, i),
            take(group.stats, i),
            take(start, i),
            take(pull, i),
            eta_sum[[i]],
        )
        assert alone.cycles[0] == out.cycles[i]
        # bit for bit: a frozen row is exactly the node's own result
        np.testing.assert_array_equal(out.params.W[i], alone.params.W[0])
        np.testing.assert_array_equal(out.params.mu[i], alone.params.mu[0])
        assert out.params.a[i] == alone.params.a[0]


def test_m_step_cycle_cap_is_counted_and_warned(tmp_path):
    from netadmm import engine, metrics

    def one_cycle(shards, rngs, graph):
        nodes = make_dppca_factory(2)(shards, rngs, graph)
        nodes.max_cycles = 1
        return nodes

    rng = np.random.default_rng(24)
    shards = [rng.normal(size=(4, 10)) for _ in range(3)]
    cfg = engine.RunConfig(
        topology="complete", num_nodes=3, scheme="fixed", max_iterations=4, convergence_tol=1e-300
    )
    with pytest.warns(RuntimeWarning, match="max_cycles=1"):
        capped = engine.run(cfg, one_cycle, shards)
    assert capped.nodes.m_step_counts() == (12, 12, 0)
    assert metrics.run_report(capped)["m_step"] == {"cycles": 12, "cap_hits": 12, "ridge": 0}
    free = engine.run(cfg, make_dppca_factory(2), shards).nodes.m_step_counts()
    assert free[0] > 12 and free[1] == 0
    assert capped.nodes.counts.tolist() == [[4, 4, 0]] * 3
    metrics.write_run(tmp_path, capped, {})
    assert (tmp_path / "trace.csv").read_text().splitlines()[0] == ",".join(metrics.TRACE_COLUMNS)


def test_secant_steps_follow_the_sign_of_g_minus_a():
    # On this SfM scene, at iteration 5 of vp_ap, node 3's g(a) - a is
    # positive and rising up to a ~ 3, with its root between 5 (g = 7.32)
    # and 10 (g = 8.19). Secant steps through the rising part moved a down,
    # away from the root, and wandered to the step cap (whose warning pytest
    # turns into an error).
    from netadmm import data, engine
    from netadmm.penalty import PenaltyConfig

    seed = 3464355207
    matrix = data.generate_rigid_measurements(40, 200, noise_sigma=0.01, seed=seed)
    shards = data.sfm_node_shards(data.MeasurementMatrix(matrix), 5)
    cfg = engine.RunConfig(
        topology="complete", num_nodes=5, scheme="vp_ap", penalty=PenaltyConfig(eta0=10.0),
        max_iterations=6, convergence_tol=1e-300, seed=seed,
    )
    cycles, cap_hits, _ = engine.run(cfg, make_dppca_factory(3), shards).nodes.m_step_counts()
    assert cap_hits == 0
    assert cycles < 6 * 5 * 20


@pytest.mark.parametrize("topology", ["ring", "cluster"])
def test_network_multiplier_sums_stay_zero(topology):
    # Symmetrized dual penalties give the two ends of an edge opposite
    # increments, so every block's multipliers sum to zero over the network.
    from netadmm import data, engine
    from netadmm.penalty import SCHEMES

    spec = data.SyntheticSpec(num_samples=200, ambient_dim=8, latent_dim=2, seed=0)
    shards = data.partition_even(data.generate_synthetic(spec)[0], 20)
    for scheme in SCHEMES:
        cfg = engine.RunConfig(
            topology=topology, num_nodes=20, scheme=scheme, max_iterations=40,
            convergence_tol=1e-300, seed=1,
        )
        result = engine.run(cfg, make_dppca_factory(2), shards)
        assert len(result.records) == 40
        for block in ("W", "mu", "a"):
            rows = getattr(result.nodes.multipliers, block).reshape(20, -1)
            scale = np.linalg.norm(rows, axis=1).sum()
            assert scale > 0
            assert np.linalg.norm(rows.sum(axis=0)) <= 1e-10 * scale, (scheme, block)


def test_engine_run_leaves_the_pooled_data_unchanged():
    # The shards are views of the pooled matrix; no step may write to them.
    from netadmm import data, engine

    spec = data.SyntheticSpec(num_samples=120, ambient_dim=6, latent_dim=2, seed=3)
    pooled = data.generate_synthetic(spec)[0]
    before = pooled.copy()
    shards = data.partition_even(pooled, 4)
    cfg = engine.RunConfig(num_nodes=4, scheme="vp_ap", max_iterations=10, seed=1)
    engine.run(cfg, make_dppca_factory(2), shards)
    assert pooled.tobytes() == before.tobytes()
