import numpy as np
import pytest
from scipy.stats import multivariate_normal

from netadmm.metrics import subspace_angle
from netadmm.ppca import (
    DppcaMultipliers,
    PpcaParams,
    centralized_em,
    consensus_m_step,
    consensus_multiplier_step,
    e_step,
    initial_params,
    negative_log_likelihood,
    shard_stats,
    unpack,
)
from netadmm.ppca import _mu_update


def _random_params(rng, d, m, a=None):
    return PpcaParams(
        rng.standard_normal((d, m)),
        rng.standard_normal(d),
        float(rng.uniform(0.5, 3.0)) if a is None else a,
    )


def _stacked(neighbors, eta, d, m):
    # neighbor parameters and penalties as the kernel takes them: one
    # broadcast vector per row, penalties in the same order
    if not neighbors:
        return np.zeros((0, d * m + d + 1)), []
    return np.stack([nb.to_vector() for nb in neighbors.values()]), [eta[j] for j in neighbors]


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
    "d,n,offset",
    [(6, 40, 0.0), (12, 5, 0.0), (6, 40, 1e4), (12, 5, 1e4)],
    ids=["n>d", "n<=d", "n>d-offset", "n<=d-offset"],
)
def test_statistics_objective_matches_scipy_density(d, n, offset):
    # the triangular factor (N > D), the centred shard (N <= D), and data
    # far from the origin, where a raw second moment would cancel
    rng = np.random.default_rng(17)
    params = _random_params(rng, d, 3)
    params = PpcaParams(params.W, params.mu + offset, params.a)
    X = rng.normal(size=(d, n)) + params.mu[:, None]
    stats = shard_stats(X)
    assert stats.factor.shape == (d, min(d, n))
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


def test_params_vector_roundtrip():
    rng = np.random.default_rng(7)
    params = _random_params(rng, 4, 2)
    again = PpcaParams.from_vector(params.to_vector(), 4, 2)
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


def test_from_vector_rejects_wrong_length():
    with pytest.raises(ValueError, match="wrong length"):
        PpcaParams.from_vector(np.zeros(7), 4, 2)


def test_precision_fallback_without_positive_root():
    # a strongly negative multiplier kills the stationary point; the
    # update falls back to the maximum-likelihood noise value
    from netadmm.ppca import _a_update

    a = _a_update(
        residual=1.0, num_samples=4, ambient_dim=2, beta_mult=-10.0,
        eta_sum=0.0, a_anchor=0.0,
    )
    assert a == pytest.approx(8.0)


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
    return DppcaMultipliers.zeros(d, m)


def test_mu_block_without_neighbors_is_centralized_mean_update():
    rng = np.random.default_rng(10)
    d, m, n = 4, 2, 9
    X = rng.normal(size=(d, n))
    params = _random_params(rng, d, m)
    moments = e_step(params, shard_stats(X))
    mu = _mu_update(
        moments, shard_stats(X), params.W, params.a, np.zeros(d), 0.0, np.zeros(d)
    )
    expected = (X.sum(axis=1) - params.W @ _posterior_means(params, X).sum(axis=1)) / n
    np.testing.assert_allclose(mu, expected, rtol=1e-12)


def test_mu_block_convex_combination_when_neighbors_agree():
    # all neighbors at the node's own mean: data term and anchor mix with
    # weights N a and 2 sum(eta)
    rng = np.random.default_rng(11)
    d, m, n = 3, 2, 6
    X = rng.normal(size=(d, n))
    params = _random_params(rng, d, m, a=2.0)
    stats = shard_stats(X)
    moments = e_step(params, stats)
    etas = {1: 4.0, 2: 6.0}
    eta_sum = sum(etas.values())
    anchor = sum(e * (params.mu + params.mu) for e in etas.values())
    mu = _mu_update(moments, stats, params.W, params.a, np.zeros(d), eta_sum, anchor)
    data_mean = (X.sum(axis=1) - params.W @ _posterior_means(params, X).sum(axis=1)) / n
    weight_data = n * params.a
    weight_anchor = 2.0 * eta_sum
    expected = (weight_data * data_mean + weight_anchor * params.mu) / (
        weight_data + weight_anchor
    )
    np.testing.assert_allclose(mu, expected, rtol=1e-12)


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
            2.0 * float(np.sum(mult.lam * w))
            + 2.0 * float(mult.gamma @ mu)
            + 2.0 * mult.beta * a
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
        mult = DppcaMultipliers(
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
        out = consensus_m_step(
            moments, shard_stats(X), params, mult, *_stacked(neighbors, eta, d, m)
        )
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
    out = consensus_m_step(moments, shard_stats(X), params, mult, *_stacked(neighbors, eta, d, m))
    assert fun(out.W, out.mu, out.a) <= fun(params.W, params.mu, params.a) + 1e-9


def test_w_block_singular_system_recovers_with_ridge():
    # zero latent moments and no neighbors make the normal equations
    # singular; the update falls back to a ridge solve with a warning
    from netadmm.ppca import LatentMoments, _cross_moment, _w_update

    moments = LatentMoments(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2)))
    X = np.random.default_rng(16).normal(size=(3, 4))
    cross = _cross_moment(moments, shard_stats(X), np.zeros(3))
    with pytest.warns(RuntimeWarning, match="ridge"):
        out = _w_update(moments, cross, 1.0, np.zeros((3, 2)), 0.0, np.zeros((3, 2)))
    assert np.all(np.isfinite(out))


def test_network_consensus_at_convergence():
    # run past the loose stopping point: all nodes end on one subspace
    from itertools import combinations

    from netadmm import data, engine
    from netadmm.ppca import make_dppca_factory

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
        bases = [m.params.W for m in result.models]
        worst = max(
            subspace_angle(bases[i], bases[j]) for i, j in combinations(range(8), 2)
        )
        assert worst < 1.0, (scheme, worst)


# ------------------------------------------------------- multiplier step


def test_multipliers_unchanged_at_consensus():
    rng = np.random.default_rng(14)
    params = _random_params(rng, 3, 2)
    mult = DppcaMultipliers(
        rng.normal(size=(3, 2)), rng.normal(size=3), float(rng.normal())
    )
    out = consensus_multiplier_step(params, params.to_vector()[None], [10.0], mult)
    np.testing.assert_array_equal(out.lam, mult.lam)
    np.testing.assert_array_equal(out.gamma, mult.gamma)
    assert out.beta == mult.beta


def test_multiplier_increment_direct():
    own = PpcaParams(np.zeros((1, 1)), np.array([0.2]), 1.0)
    nb = PpcaParams(np.zeros((1, 1)), np.array([0.0]), 1.0)
    out = consensus_multiplier_step(
        own, nb.to_vector()[None], [10.0], DppcaMultipliers.zeros(1, 1)
    )
    np.testing.assert_allclose(out.gamma, [1.0])


def test_multiplier_increment_linear_in_eta():
    rng = np.random.default_rng(15)
    own = _random_params(rng, 3, 2)
    nb = _random_params(rng, 3, 2)
    zero = DppcaMultipliers.zeros(3, 2)
    single = consensus_multiplier_step(own, nb.to_vector()[None], [7.0], zero)
    double = consensus_multiplier_step(own, nb.to_vector()[None], [14.0], zero)
    np.testing.assert_allclose(double.lam, 2.0 * single.lam, rtol=1e-12)
    np.testing.assert_allclose(double.gamma, 2.0 * single.gamma, rtol=1e-12)
    assert double.beta == pytest.approx(2.0 * single.beta, rel=1e-12)


# ------------------------------------------------------------ node model


def _arrays(obj, seen=None):
    # every ndarray reachable from a model's attributes
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
    from netadmm.ppca import DppcaModel

    d, n = 6, 250
    shard = np.random.default_rng(19).normal(size=(d, n))
    model = DppcaModel(shard, 2, np.random.default_rng(0))
    model.local_step({}, {})
    held = _arrays(model)
    assert held, "walker found no arrays"
    assert all(n not in a.shape for a in held), [a.shape for a in held]


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
    from netadmm.ppca import make_dppca_factory

    factory = make_dppca_factory(1)
    with pytest.raises(ValueError, match=f"node 3: .*{message}"):
        factory(3, shard, np.random.default_rng(0))


def test_nan_neighbor_broadcast_ends_run_with_error():
    from netadmm import engine
    from netadmm.ppca import DppcaModel, make_dppca_factory

    class Corrupt(DppcaModel):
        def params_vector(self):
            vec = super().params_vector()
            vec[0] = np.nan
            return vec

    healthy = make_dppca_factory(2)

    def factory(node_id, shard, rng):
        if node_id == 0:
            return Corrupt(shard, 2, rng)
        return healthy(node_id, shard, rng)

    rng = np.random.default_rng(20)
    shards = [rng.normal(size=(4, 10)) for _ in range(3)]
    cfg = engine.RunConfig(topology="complete", num_nodes=3, scheme="ap", max_iterations=5)
    with pytest.raises(ValueError, match="non-finite"):
        engine.run(cfg, factory, shards)
