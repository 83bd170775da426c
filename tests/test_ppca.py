import numpy as np
import pytest
from scipy.stats import multivariate_normal

from netadmm.metrics import subspace_angle
from netadmm.ppca import (
    DppcaMultipliers,
    LatentMoments,
    ParamView,
    PpcaParams,
    centralized_em,
    consensus_m_step,
    consensus_multiplier_step,
    e_step,
    initial_params,
    m_step,
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


def _one_node_m_step(X, params, mult=None, anchor=None, eta_sum=0.0):
    # m_step on a stack of one node; the anchor defaults to no neighbors
    d, m = params.W.shape
    mult = _no_multipliers(d, m) if mult is None else mult
    anchor = ParamView(np.zeros((d, m)), np.zeros(d), 0.0) if anchor is None else anchor
    stats, params, mult, anchor = map(_lead, (shard_stats(X), params, mult, anchor))
    out = m_step(e_step(params, stats), stats, params, mult, anchor, np.array([eta_sum])).params
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
    mult = DppcaMultipliers(
        0.3 * rng.standard_normal((d, m)), 0.3 * rng.standard_normal(d), 0.2
    )
    anchor = ParamView(rng.normal(size=(d, m)), rng.normal(size=d), 5.0)
    moments = e_step(params, shard_stats(X))
    outs = [
        m_step(*map(_lead, (moments, shard_stats(X), entry, mult, anchor)), np.array([7.0]))
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


def _zero_moments(d, m):
    return LatentMoments(np.zeros((m, m)), np.zeros(m), np.zeros((m, m)), np.zeros((d, m)))


def test_singular_joint_system_recovers_with_ridge():
    # zero latent moments and no neighbors make K singular; the solve is
    # retried with a ridge and a warning, and the node is reported
    d, m = 3, 2
    X = np.random.default_rng(16).normal(size=(d, 4))
    params = PpcaParams(np.ones((d, m)), np.zeros(d), 1.0)
    anchor = ParamView(np.zeros((d, m)), np.zeros(d), 0.0)
    inputs = (_zero_moments(d, m), shard_stats(X), params, _no_multipliers(d, m), anchor)
    with pytest.warns(RuntimeWarning, match="ridge"):
        out = m_step(*map(_lead, inputs), np.zeros(1))
    assert all(np.all(np.isfinite(f)) for f in out.params)
    assert out.ridge.tolist() == [True] and not out.capped.any()


def test_ridge_retries_are_counted(monkeypatch):
    # one node alone (no penalties) with zero latent moments: K is singular
    # in every M-step, and the run counts each node step that retried it
    from netadmm import engine, ppca

    def zero_e_step(params, stats):
        zeros = _zero_moments(*params.W.shape[1:])
        return LatentMoments(*(np.zeros((len(params.a),) + f.shape) for f in zeros))

    monkeypatch.setattr(ppca, "e_step", zero_e_step)
    rng = np.random.default_rng(28)
    cfg = engine.RunConfig(
        topology="complete", num_nodes=1, scheme="fixed", max_iterations=2, convergence_tol=1e-300
    )
    with pytest.warns(RuntimeWarning, match="ridge"):
        result = engine.run(cfg, ppca.make_dppca_factory(2), [rng.normal(size=(4, 10))])
    assert len(result.records) == 2 and result.m_step_ridge == 2
    assert result.models[0].m_step_counts()[1:] == (0, 2)
    assert engine.run_summary({}, result)["m_step"] == {"cycles": 3, "cap_hits": 0, "ridge": 2}


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


def test_trace_hook_sees_each_iterations_parameters():
    # a hook that stores params without copying keeps that iteration's values
    from netadmm import engine
    from netadmm.ppca import make_dppca_factory

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
            [(m.params.W, m.multipliers.lam) for m in models]
        ),
    )
    assert len(stored) == 4
    for node in range(3):
        for t in range(3):
            for block in range(2):
                assert not np.array_equal(stored[t][node][block], stored[t + 1][node][block])
        np.testing.assert_array_equal(stored[-1][node][0], result.models[node].params.W)


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


# ------------------------------------------------- stacked node group


def _ragged_nodes():
    # Five nodes with shards of 3, 4, 6, 9 and 20 samples in D=6: the first
    # three keep their centred shard as factor (padded to 6 columns when
    # stacked), the last two a 6 x 6 QR factor.
    from netadmm.ppca import DppcaModel

    rng = np.random.default_rng(21)
    shards = [rng.normal(size=(6, n)) + rng.normal(size=(6, 1)) for n in (3, 4, 6, 9, 20)]
    return shards, [DppcaModel(x, 2, np.random.default_rng(i)) for i, x in enumerate(shards)]


def test_stacked_phases_match_one_node_at_a_time():
    from netadmm.ppca import DppcaNodes
    from netadmm.topology import build_complete

    shards, singles = _ragged_nodes()
    _, stacked = _ragged_nodes()
    graph = build_complete(5)
    group = DppcaNodes.of(stacked, graph)
    assert group.stats.factor.shape == (5, 6, 6)
    rng = np.random.default_rng(22)
    edges = list(graph.directed_edges())

    def inboxes(theta, eta):
        for i, model in enumerate(singles):
            nbs = graph.neighbors[i]
            etas = {j: eta[edges.index((i, j))] for j in nbs}
            yield model, {j: theta[j] for j in nbs}, etas

    def assert_rows_match():
        for i, model in enumerate(singles):
            got, want = stacked[i].params, model.params
            np.testing.assert_allclose(got.W, want.W, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.mu, want.mu, rtol=1e-12, atol=0)
            assert got.a == pytest.approx(want.a, rel=1e-12)
            got, want = stacked[i].multipliers, model.multipliers
            np.testing.assert_allclose(got.lam, want.lam, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12, atol=1e-15)
            assert got.beta == pytest.approx(want.beta, rel=1e-12, abs=1e-15)

    # E-step on padded stacked statistics against each node's own
    moments = e_step(group.params, group.stats)
    for i, x in enumerate(shards):
        own = e_step(singles[i].params, shard_stats(x))
        for got, want in zip(moments, own):
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-13)

    for _ in range(3):
        theta = group.params_matrix()
        eta = rng.uniform(1.0, 20.0, size=len(edges))
        group.local_step(theta, eta)
        for model, inbox, etas in inboxes(theta, eta):
            model.local_step(inbox, etas)
        theta = group.params_matrix()
        dual = rng.uniform(1.0, 20.0, size=len(edges))
        group.multiplier_step(theta, dual)
        for model, inbox, etas in inboxes(theta, dual):
            model.multiplier_step(inbox, etas)
        assert_rows_match()

    # own objectives, and ranking objectives at every neighbor's broadcast
    theta = group.params_matrix()
    np.testing.assert_allclose(
        group.objectives(), [m.objective() for m in singles], rtol=1e-12
    )
    nodes = [0, 2, 4]
    points = np.concatenate([theta[list(graph.neighbors[i])] for i in nodes])
    want = [v for i in nodes for v in singles[i].objectives(theta[list(graph.neighbors[i])])]
    np.testing.assert_allclose(group.neighbor_objectives(nodes, points), want, rtol=1e-12)
    cycles, cap_hits, ridge = group.m_step_counts()
    assert cycles == sum(m.m_step_counts()[0] for m in singles) > 0 and cap_hits == ridge == 0


def test_ranking_objectives_in_chunks_match_one_batch(monkeypatch):
    from netadmm import ppca
    from netadmm.topology import build_complete

    _, models = _ragged_nodes()
    graph = build_complete(5)
    group = ppca.DppcaNodes.of(models, graph)
    theta = group.params_matrix()
    nodes = [0, 1, 2, 3, 4]
    points = np.concatenate([theta[list(graph.neighbors[i])] for i in nodes])
    whole = group.neighbor_objectives(nodes, points)
    calls = []

    def counted(params, stats):
        calls.append(len(params.a))
        return negative_log_likelihood(params, stats)

    monkeypatch.setattr(ppca, "negative_log_likelihood", counted)
    # three rows of D x (6 + 1) per chunk: 20 edges in chunks of 3, 3, ..., 2
    monkeypatch.setattr(ppca, "_NLL_BATCH_BYTES", 3 * 8 * 6 * 7)
    chunked = group.neighbor_objectives(nodes, points)
    assert calls == [3] * 6 + [2]
    np.testing.assert_array_equal(chunked, whole)


def test_m_step_freezes_converged_rows():
    # One node enters at its own M-step fixed point and stops after a cycle
    # or two; the others keep cycling without touching its rows.
    from netadmm.ppca import DppcaNodes, m_step
    from netadmm.topology import build_complete

    _, models = _ragged_nodes()
    group = DppcaNodes.of(models, build_complete(5))
    rng = np.random.default_rng(23)
    params = group.params
    anchor = unpack(rng.normal(size=(5, 6 * 2 + 6 + 1)), 6, 2)
    anchor = anchor._replace(a=np.abs(anchor.a))
    eta_sum = rng.uniform(5.0, 40.0, size=5)
    mults = group.multipliers
    moments = e_step(params, group.stats)
    first = m_step(moments, group.stats, params, mults, anchor, eta_sum)
    start = params._replace(
        W=params.W.copy(), mu=params.mu.copy(), a=params.a.copy()
    )
    start.W[0], start.mu[0], start.a[0] = first.params.W[0], first.params.mu[0], first.params.a[0]
    out = m_step(moments, group.stats, start, mults, anchor, eta_sum)
    assert out.cycles[0] < out.cycles.max()
    assert not out.capped.any()

    def take(nt, i):
        return type(nt)(*(np.asarray(f)[[i]] for f in nt))

    for i in range(5):
        alone = m_step(
            take(moments, i),
            take(group.stats, i),
            take(start, i),
            take(mults, i),
            take(anchor, i),
            eta_sum[[i]],
        )
        assert alone.cycles[0] == out.cycles[i]
        # bit for bit: a frozen row is exactly the node's own result
        np.testing.assert_array_equal(out.params.W[i], alone.params.W[0])
        np.testing.assert_array_equal(out.params.mu[i], alone.params.mu[0])
        assert out.params.a[i] == alone.params.a[0]


def test_m_step_cycle_cap_is_counted_and_warned(tmp_path):
    from netadmm import engine
    from netadmm.ppca import DppcaModel, make_dppca_factory

    class OneCycle(DppcaModel):
        max_cycles = 1

    rng = np.random.default_rng(24)
    shards = [rng.normal(size=(4, 10)) for _ in range(3)]
    cfg = engine.RunConfig(
        topology="complete", num_nodes=3, scheme="fixed", max_iterations=4, convergence_tol=1e-300
    )
    with pytest.warns(RuntimeWarning, match="max_cycles=1"):
        capped = engine.run(cfg, lambda i, shard, r: OneCycle(shard, 2, r), shards)
    assert (capped.m_step_cycles, capped.m_step_cap_hits) == (12, 12)
    assert engine.run_summary({}, capped)["m_step"] == {"cycles": 12, "cap_hits": 12, "ridge": 0}
    free = engine.run(cfg, make_dppca_factory(2), shards)
    assert free.m_step_cycles > 12 and free.m_step_cap_hits == 0
    assert [m.m_step_counts() for m in capped.models] == [(4, 4, 0)] * 3

    def mixed(i, shard, r):
        # models of two classes run through the per-node loop, which
        # still sums the nodes' counts
        return (OneCycle if i else DppcaModel)(shard, 2, r)

    with pytest.warns(RuntimeWarning, match="max_cycles=1"):
        looped = engine.run(cfg, mixed, shards)
    assert looped.m_step_cap_hits == 8
    assert looped.m_step_cycles == 8 + looped.models[0].m_step_counts()[0]
    path = tmp_path / "trace.csv"
    engine.write_trace_csv(capped.records, path)
    assert path.read_text().splitlines()[0] == ",".join(engine.TRACE_COLUMNS)


@pytest.mark.parametrize("topology", ["ring", "cluster"])
def test_network_multiplier_sums_stay_zero(topology):
    # Symmetrized dual penalties give the two ends of an edge opposite
    # increments, so every block's multipliers sum to zero over the network.
    from netadmm import data, engine
    from netadmm.penalty import SCHEMES
    from netadmm.ppca import make_dppca_factory

    spec = data.SyntheticSpec(num_samples=200, ambient_dim=8, latent_dim=2, seed=0)
    shards = data.partition_even(data.generate_synthetic(spec)[0], 20)
    for scheme in SCHEMES:
        cfg = engine.RunConfig(
            topology=topology, num_nodes=20, scheme=scheme, max_iterations=40,
            convergence_tol=1e-300, seed=1,
        )
        result = engine.run(cfg, make_dppca_factory(2), shards)
        assert len(result.records) == 40
        for block in ("lam", "gamma", "beta"):
            rows = np.array([getattr(m.multipliers, block) for m in result.models])
            rows = rows.reshape(20, -1)
            scale = np.linalg.norm(rows, axis=1).sum()
            assert scale > 0
            assert np.linalg.norm(rows.sum(axis=0)) <= 1e-10 * scale, (scheme, block)
