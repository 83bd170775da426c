import dataclasses

import numpy as np
import pytest

from netadmm.penalty import (
    TIE_EPSILON,
    EdgePenaltyState,
    PenaltyConfig,
    PenaltyScheduler,
    ResidualPair,
    local_residuals,
    rank_weights,
    scheme_step,
)
from netadmm.topology import build_cluster, build_complete

CFG = PenaltyConfig()


def _ledger(eta, spent=0.0, ceiling=1.0, growth_count=1):
    # ledgers of directed edges, one per entry of eta (a scalar is one edge)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    return EdgePenaltyState(
        eta, np.full(eta.shape, spent), np.full(eta.shape, ceiling), np.full(eta.shape, growth_count)
    )


def _step(scheme, state, t=0, tau=None, res=None, f_curr=None, f_prev=None, cfg=CFG):
    # scheme_step, leaving out the signals that the scheme's rule does not read
    return scheme_step(scheme, state, t, tau, res, f_curr, f_prev, cfg)


def _ap(tau, t, cfg=CFG):
    # ap's penalties for ranking weights tau at iteration t
    tau = np.asarray(tau, dtype=float)
    return _step("ap", _ledger(np.full(tau.shape, cfg.eta0)), t=t, tau=tau, cfg=cfg).eta


# ---------------------------------------------------------------- config


def test_defaults():
    assert CFG.eta0 == 10.0
    assert CFG.mu == 10.0
    assert CFG.tau_fixed == 1.0
    assert CFG.t_max == 50
    assert CFG.budget == 1.0
    assert CFG.alpha == 0.5
    assert CFG.beta == 0.1
    assert CFG.ceiling_bound == pytest.approx(2.0)
    assert TIE_EPSILON == 1e-12
    assert [f.name for f in dataclasses.fields(PenaltyConfig)] == [
        "eta0", "mu", "tau_fixed", "t_max", "budget", "alpha", "beta"
    ]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta0": 0.0},
        {"mu": 1.0},
        {"tau_fixed": 0.0},
        {"t_max": 0},
        {"budget": 0.0},
        {"alpha": 1.0},
        {"beta": 0.0},
        {"alpha": 0.0},
        {"beta": 1.0},
        {"eta0": float("nan")},
        {"eta0": float("inf")},
        {"mu": float("inf")},
        {"tau_fixed": float("inf")},
        {"budget": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PenaltyConfig(**kwargs)


# ------------------------------------------------------------- residuals


def test_residuals_zero_at_consensus():
    theta = np.array([1.0, 2.0])
    assert local_residuals(theta, theta, theta + 1.0, 3.0).primal_sq == 0.0


def test_residuals_zero_dual_when_average_stationary():
    avg = np.array([0.5, -0.5])
    res = local_residuals(np.array([1.0, 1.0]), avg, avg, 7.0)
    assert res.dual_sq == 0.0


def test_residuals_direct_evaluation():
    res = local_residuals(
        np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]), 2.0
    )
    assert res.primal_sq == pytest.approx(1.0)
    assert res.dual_sq == pytest.approx(8.0)


def test_residuals_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        local_residuals(np.zeros(3), np.zeros(2), np.zeros(2), 1.0)


# ------------------------------------------------- residual balancing (vp)


def _pair(primal_norm, dual_norm):
    # one node's (or edge's) residuals, as one-entry arrays
    return ResidualPair(np.array([primal_norm**2]), np.array([dual_norm**2]))


def test_fixed_step_returns_its_ledger():
    state = _ledger([3.0, 40.0], spent=0.5)
    assert _step("fixed", state, t=3, tau=np.ones(2), res=_pair(5.0, 0.2)) is state


def test_vp_grows_on_primal_dominance():
    out = _step("vp", _ledger(10.0), t=3, res=_pair(5.0, 0.2))
    assert out.eta == pytest.approx(20.0)


def test_vp_shrinks_on_dual_dominance():
    out = _step("vp", _ledger(10.0), t=3, res=_pair(0.1, 5.0))
    assert out.eta == pytest.approx(5.0)


def test_vp_unchanged_in_dead_zone():
    assert _step("vp", _ledger(10.0), t=3, res=_pair(1.0, 1.0)).eta == 10.0


def test_vp_resets_after_reset_iteration():
    # vp resets at t >= t_max, on every edge at once
    state = _ledger([37.5, 0.3, 10.0])
    res = ResidualPair(np.array([81.0, 0.01, 1.0]), np.array([0.01, 81.0, 1.0]))
    assert np.all(_step("vp", state, t=49, res=res).eta == [75.0, 0.15, 10.0])
    for t in (50, 51, 200):
        assert np.all(_step("vp", state, t=t, res=res).eta == 10.0)
    early = PenaltyConfig(t_max=20)
    assert np.all(_step("vp", state, t=20, res=res, cfg=early).eta == 10.0)


# -------------------------------------------------- objective ranking (ap)


def _taus(f_self, f_neighbors):
    # rank_weights over one node's edges, bounded by its neighborhood
    values = np.array([f_self, *f_neighbors], dtype=float)
    return rank_weights(f_self, values[1:], values.min(), values.max())


def test_ap_taus_direct():
    np.testing.assert_allclose(_taus(2.0, [1.0, 3.0]), [0.5, -0.25], rtol=1e-15)


def test_ap_taus_tie_rule():
    assert np.all(_taus(4.0, [4.0, 4.0]) == 0.0)
    # a spread within TIE_EPSILON of the values is still a tie
    assert np.all(_taus(4e6, [4e6 * (1 + 1e-13), 4e6]) == 0.0)


def test_ap_taus_extreme_weight():
    # self at the worst value, one neighbor at the best: maximal weight 1
    taus = _taus(9.0, [3.0, 9.0])
    assert taus[0] == pytest.approx(1.0)
    assert _ap(taus, t=0)[0] == pytest.approx(2 * CFG.eta0)


def test_ap_taus_rejects_non_finite():
    # the scheduler checks the objective values of the nodes it ranks
    g = build_complete(3)
    bad = ((np.array([np.nan, 1.0, 1.0]), np.ones(6)), (np.ones(3), np.full(6, np.inf)))
    for f_self, f_neighbors in bad:
        sched = PenaltyScheduler("ap", g, CFG)
        with pytest.raises(ValueError, match="finite"):
            sched.update(0, np.zeros((3, 2)), f_self, np.ones(3), _score(g, f_neighbors))


def test_ap_taus_bounds_and_ordering():
    # weights stay in [-0.5, 1]; better neighbors always get positive weight
    rng = np.random.default_rng(11)
    for _ in range(200):
        f_self = float(rng.normal())
        f_nb = rng.normal(size=rng.integers(1, 6))
        taus = _taus(f_self, f_nb)
        assert np.all((-0.5 <= taus) & (taus <= 1.0))
        eta = _ap(taus, t=0)
        assert np.all((0.5 * CFG.eta0 <= eta) & (eta <= 2.0 * CFG.eta0))
        assert np.all(taus[f_nb < f_self] > 0.0)
        assert np.all(taus[f_nb > f_self] < 0.0)


def test_ap_step_examples():
    tau = np.array([0.5, 0.0, -0.5])
    np.testing.assert_allclose(_ap(tau, t=3), [15.0, 10.0, 5.0])
    # boundary: still adapting at t == t_max - 1
    np.testing.assert_allclose(_ap(tau, t=49), [15.0, 10.0, 5.0])
    for t in (50, 51, 1000):
        assert np.all(_ap(tau, t) == 10.0)


# ------------------------------------------------------ budgeted (nap)


def test_nap_spends_while_budget_remains():
    state = _ledger(10.0, spent=0.0, ceiling=1.0)
    out = _step("nap", state, tau=0.4, f_curr=5.0, f_prev=5.0)
    assert out.eta == pytest.approx(14.0)
    assert out.spent == pytest.approx(0.4)
    assert out.ceiling == 1.0


def test_nap_grows_ceiling_when_objective_moves():
    # a 20% change clears beta = 0.1
    state = _ledger(13.0, spent=1.2, ceiling=1.0, growth_count=1)
    out = _step("nap", state, tau=0.3, f_curr=6.0, f_prev=5.0)
    assert out.eta == pytest.approx(10.0)
    assert out.ceiling == pytest.approx(1.5)
    assert out.growth_count == 2


def test_nap_frozen_when_objective_stable():
    state = _ledger(13.0, spent=1.2, ceiling=1.0)
    out = _step("nap", state, tau=0.3, f_curr=5.01, f_prev=5.0)
    assert out.eta == pytest.approx(10.0)
    assert out.ceiling == 1.0
    assert out.spent == pytest.approx(1.2)


def test_nap_relative_beta_mode():
    # beta bounds the change relative to the previous value: a 50% drop
    # clears it however small, a 5% one does not however large
    state = _ledger([10.0, 10.0], spent=1.2)
    f_prev, f_curr = np.array([0.01, 1000.0]), np.array([0.005, 1050.0])
    out = _step("nap", state, tau=np.zeros(2), f_curr=f_curr, f_prev=f_prev)
    np.testing.assert_array_equal(out.ceiling, [1.5, 1.0])


def test_nap_ceiling_never_exceeds_geometric_bound():
    cfg = CFG
    state = _ledger(10.0, spent=0.0, ceiling=cfg.budget)
    for _ in range(200):
        previous_spent = state.spent
        state = _step("nap", state, tau=0.7, f_curr=1.0, f_prev=2.0, cfg=cfg)
        assert state.spent >= previous_spent
        assert state.ceiling <= cfg.ceiling_bound + 1e-12
    # budget cap reached: penalty pinned at eta0 from here on
    assert state.exhausted
    assert state.eta == 10.0


def test_nap_resumes_after_growth():
    state = _ledger(10.0, spent=1.0, ceiling=1.0)
    grown = _step("nap", state, tau=0.4, f_curr=6.0, f_prev=5.0)
    assert grown.eta == 10.0 and grown.ceiling == pytest.approx(1.5)
    resumed = _step("nap", grown, tau=0.4, f_curr=6.0, f_prev=6.0)
    assert resumed.eta == pytest.approx(14.0)
    assert resumed.spent == pytest.approx(1.4)


# --------------------------------------------------- combined schemes


def test_vp_ap_branches():
    state = _ledger(10.0)
    out = _step("vp_ap", state, t=3, tau=0.5, res=_pair(5.0, 0.2))
    assert out.eta == pytest.approx(30.0)
    # the combined step is 2 whatever tau_fixed is
    half = PenaltyConfig(tau_fixed=0.5)
    assert _step("vp_ap", state, t=3, tau=0.5, res=_pair(5.0, 0.2), cfg=half).eta == out.eta
    out = _step("vp_ap", state, t=3, tau=-0.25, res=_pair(0.1, 5.0))
    assert out.eta == pytest.approx(3.75)
    out = _step("vp_ap", state, t=3, tau=0.5, res=_pair(1.0, 1.0))
    assert out.eta == pytest.approx(10.0)


def test_vp_ap_resets_past_t_max():
    state = _ledger(31.0)
    assert _step("vp_ap", state, t=51, tau=0.5, res=_pair(5.0, 0.2)).eta == 10.0
    # boundary: still adapting at t == t_max
    assert _step("vp_ap", state, t=50, tau=0.5, res=_pair(5.0, 0.2)).eta != 10.0


def test_vp_nap_fresh_state_spends():
    state = _ledger(10.0, spent=0.0, ceiling=1.0)
    out = _step("vp_nap", state, tau=0.5, res=_pair(5.0, 0.2), f_curr=5.0, f_prev=5.0)
    assert out.eta == pytest.approx(30.0)
    assert out.spent == pytest.approx(0.5)


def test_vp_nap_no_spend_in_dead_zone():
    state = _ledger(12.0, spent=0.3, ceiling=1.0)
    out = _step("vp_nap", state, tau=0.5, res=_pair(1.0, 1.0), f_curr=5.0, f_prev=5.0)
    assert out.eta == pytest.approx(12.0)
    assert out.spent == pytest.approx(0.3)


def test_vp_nap_exhausted_resets_permanently_when_stable():
    state = _ledger(25.0, spent=1.2, ceiling=1.0, growth_count=5)
    for _ in range(10):
        state = _step("vp_nap", state, tau=0.5, res=_pair(5.0, 0.2), f_curr=5.0, f_prev=5.0)
        assert state.eta == 10.0


def test_vp_nap_growth_resumes_updates():
    state = _ledger(25.0, spent=1.2, ceiling=1.0)
    grown = _step("vp_nap", state, tau=0.5, res=_pair(5.0, 0.2), f_curr=6.0, f_prev=5.0)
    assert grown.eta == 10.0 and grown.ceiling == pytest.approx(1.5)
    resumed = _step("vp_nap", grown, tau=0.5, res=_pair(5.0, 0.2), f_curr=6.0, f_prev=6.0)
    assert resumed.eta == pytest.approx(30.0)


# ------------------------------------------------------------ schedulers


def test_scheduler_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        PenaltyScheduler("adam", build_complete(3), CFG)


def test_fixed_scheduler_constant():
    sched = PenaltyScheduler("fixed", build_complete(4), CFG)
    assert sched.state(0, 1).eta == 10.0
    assert sched.node_etas()[2] == 10.0
    assert np.all(sched.all_etas() == 10.0)


def _edge_values(graph, per_node):
    # per_node[i][j] laid out in directed-edge order
    return np.array([per_node[i][j] for i, j in graph.directed_edges()], dtype=float)


def _score(graph, values, calls=None):
    # A ``score(nodes, theta)`` stub: the per-edge ``values`` (in edge order)
    # of the outgoing edges of ``nodes``; appends each call's nodes to ``calls``.
    def score(nodes, theta):
        if calls is not None:
            calls.append(np.array(nodes))
        return values[graph.out_edges(nodes)]

    return score


def _spread_theta(rng, n, width=4):
    # every node's parameters at its own scale, drawn over six decades, so
    # that primal and dual residuals dominate in turn
    return rng.normal(size=(n, width)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


def _reference_residuals(graph, theta, prev_theta, node_etas):
    # local_residuals against each node's neighbor means, node by node
    def means(x):
        return np.array([sum(x[j] for j in nbs) / len(nbs) for nbs in graph.neighbors])

    navg = means(theta)
    prev = navg if prev_theta is None else means(prev_theta)
    return local_residuals(theta, navg, prev, node_etas)


def _fires(res, mu):
    # whether each node's residual-balancing branch fires: grow, shrink
    primal, dual = np.sqrt(res.primal_sq), np.sqrt(res.dual_sq)
    return primal > mu * dual, dual > mu * primal


def test_vp_scheduler_is_per_node():
    # At consensus nothing fires. Then node 0 moves far from its neighbors'
    # mean (primal dominates: grow), node 1's neighbors' mean moves while
    # node 1 sits near it (dual dominates: shrink), and node 2's residuals
    # balance.
    g = build_complete(3)
    sched = PenaltyScheduler("vp", g, CFG)
    score = _score(g, np.zeros(6))
    zeros = np.zeros(3)
    sched.update(0, np.zeros((3, 1)), zeros, zeros, score)
    assert np.all(sched.all_etas() == 10.0)
    theta = np.array([[1.0], [0.4], [-0.399]])
    res = sched.update(1, theta, zeros, zeros, score)
    want = _reference_residuals(g, theta, np.zeros((3, 1)), np.full(3, 10.0))
    np.testing.assert_allclose(res.primal_sq, want.primal_sq, rtol=1e-12)
    np.testing.assert_allclose(res.dual_sq, want.dual_sq, rtol=1e-12)
    assert sched.state(0, 1).eta == sched.state(0, 2).eta == 20.0
    assert sched.state(1, 0).eta == 5.0
    assert sched.state(2, 0).eta == 10.0


def test_scheduler_determinism():
    g = build_complete(4)

    def drive():
        sched = PenaltyScheduler("nap", g, CFG)
        rng = np.random.default_rng(5)
        for t in range(20):
            f = list(rng.normal(size=4))
            f_neighbors = _edge_values(
                g, [{j: f[j] + 0.1 * (i - j) for j in g.neighbors[i]} for i in range(4)]
            )
            theta = _spread_theta(rng, 4)
            sched.update(t, theta, np.array(f), rng.normal(size=4), _score(g, f_neighbors))
        return sched.all_etas()

    np.testing.assert_array_equal(drive(), drive())


@pytest.mark.parametrize("scheme", ["fixed", "vp", "ap", "nap", "vp_ap", "vp_nap"])
def test_scheduler_matches_scalar_rules_on_ragged_graph(scheme):
    # cluster(6) has degrees 2, 2, 3, 3, 2, 2, so every node's edges sit
    # at a different offset of the scheduler's edge arrays; the reference
    # steps one node's edges at a time through scheme_step, with residuals from
    # local_residuals at the reference ledger's per-node penalty means
    g = build_cluster(6)
    cfg = PenaltyConfig(t_max=12, budget=0.8)
    sched = PenaltyScheduler(scheme, g, cfg)
    ref = [_ledger(np.full(d, cfg.eta0), ceiling=cfg.budget) for d in g.degrees]
    rng = np.random.default_rng(17)
    f_prev = list(rng.uniform(1.0, 2.0, size=6))
    prev_theta, grew, shrank = None, 0, 0
    for t in range(30):
        f_self = list(f_prev * rng.uniform(0.7, 1.3, size=6))
        theta = _spread_theta(rng, 6)
        f_neighbors = [{j: float(rng.uniform(0.5, 3.0)) for j in g.neighbors[i]} for i in range(6)]
        # vp keeps one value per node, which its mean would round away from
        node_etas = [s.eta[0] if scheme == "vp" else sum(s.eta.tolist()) / len(s.eta) for s in ref]
        residuals = _reference_residuals(g, theta, prev_theta, np.array(node_etas))
        got = sched.update(
            t, theta, np.array(f_self), np.array(f_prev), _score(g, _edge_values(g, f_neighbors))
        )
        np.testing.assert_allclose(got.primal_sq, residuals.primal_sq, rtol=1e-12)
        np.testing.assert_allclose(got.dual_sq, residuals.dual_sq, rtol=1e-12)
        grow, shrink = _fires(residuals, cfg.mu)
        grew, shrank = grew + grow.sum(), shrank + shrink.sum()
        for i in range(6):
            tau = _taus(f_self[i], [f_neighbors[i][j] for j in g.neighbors[i]])
            res = ResidualPair(residuals.primal_sq[[i]], residuals.dual_sq[[i]])
            ref[i] = scheme_step(scheme, ref[i], t, tau, res, f_self[i], f_prev[i], cfg)
        for i, expected in enumerate(ref):
            for k, j in enumerate(g.neighbors[i]):
                state = sched.state(i, j)
                for field in ("eta", "spent", "ceiling", "growth_count"):
                    assert getattr(state, field) == getattr(expected, field)[k], (t, i, j, field)
        assert sched.exhausted_edges() == sum(np.count_nonzero(s.exhausted) for s in ref)
        f_prev, prev_theta = f_self, theta
    # both balancing branches fired, several times
    assert grew > 5 and shrank > 5
    if scheme in ("nap", "vp_nap"):
        # the signals exercised exhaustion and ceiling growth
        assert sched.exhausted_edges() > 0
        assert any(np.any(s.growth_count > 1) for s in ref)


@pytest.mark.parametrize("scheme", ["ap", "nap", "vp_ap", "vp_nap"])
def test_update_reads_ranking_weights_only_of_ranking_nodes(scheme):
    # An update scores at most once, never no node, and exactly the nodes
    # whose ranking weights its rule reads: ap every node while t < t_max,
    # nap the nodes with an edge that has budget left, and vp_ap and vp_nap
    # only those of them whose residual-balancing branch fires.
    g = build_cluster(6)
    cfg = PenaltyConfig(t_max=12, budget=0.8)
    sched = PenaltyScheduler(scheme, g, cfg)
    sources, _ = g.edge_arrays()
    rng = np.random.default_rng(41)
    f_prev = rng.uniform(1.0, 2.0, size=6)
    partial = 0
    for t in range(30):
        f_self = f_prev * rng.uniform(0.7, 1.3, size=6)
        live = np.zeros(6, dtype=bool)
        live[sources[~sched.edge_state.exhausted]] = True
        calls = []
        score = _score(g, rng.uniform(0.5, 3.0, size=len(sources)), calls)
        res = sched.update(t, _spread_theta(rng, 6), f_self, f_prev, score)
        fires = np.logical_or(*_fires(res, cfg.mu))
        expected = np.flatnonzero(
            {
                "ap": np.full(6, t < cfg.t_max),
                "nap": live,
                "vp_ap": fires & (t <= cfg.t_max),
                "vp_nap": fires & live,
            }[scheme]
        )
        assert len(calls) == (len(expected) > 0), t
        if calls:
            np.testing.assert_array_equal(calls[0], expected)
        partial += 0 < len(expected) < 6
        f_prev = f_self
    if scheme != "ap":
        # some iterations ranked only part of the nodes
        assert partial > 3


@pytest.mark.parametrize("scheme", ["fixed", "vp", "ap", "nap", "vp_ap", "vp_nap"])
def test_single_node_update_scores_nothing(scheme):
    # complete(1) has no edge: zero residuals, no score call, and the
    # reported penalty stays eta0
    g = build_complete(1)
    sched = PenaltyScheduler(scheme, g, CFG)
    calls = []
    score = _score(g, np.zeros(0), calls)
    for t in range(3):
        res = sched.update(t, np.full((1, 2), 5.0 * t), np.ones(1), np.ones(1), score)
        assert res.primal_sq.tolist() == res.dual_sq.tolist() == [0.0]
    assert calls == []
    assert sched.all_etas().tolist() == [CFG.eta0]
