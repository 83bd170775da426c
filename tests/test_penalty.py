import math

import numpy as np
import pytest

from netadmm.penalty import (
    EdgePenaltyState,
    PenaltyConfig,
    ResidualPair,
    ap_taus,
    ap_update,
    local_residuals,
    make_scheduler,
    nap_update,
    vp_ap_update,
    vp_nap_update,
    vp_update,
)
from netadmm.topology import build_complete

CFG = PenaltyConfig()


# ---------------------------------------------------------------- config


def test_defaults():
    assert CFG.eta0 == 10.0
    assert CFG.mu == 10.0
    assert CFG.tau_fixed == 1.0
    assert CFG.t_max == 50
    assert CFG.reset_iteration == 50
    assert CFG.budget == 1.0
    assert CFG.alpha == 0.5
    assert CFG.beta == 0.1
    assert CFG.f_tie_epsilon == 1e-12
    assert CFG.ceiling_bound == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta0": 0.0},
        {"mu": 1.0},
        {"tau_fixed": 0.0},
        {"t_max": 0},
        {"t_reset": 0},
        {"budget": 0.0},
        {"alpha": 1.0},
        {"beta": 0.0},
        {"f_tie_epsilon": 0.0},
        {"eval_point": "elsewhere"},
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
    return ResidualPair(primal_norm**2, dual_norm**2)


def test_vp_grows_on_primal_dominance():
    state = EdgePenaltyState(eta=10.0)
    out = vp_update(state, _pair(5.0, 0.2), CFG, t=3)
    assert out.eta == pytest.approx(20.0)


def test_vp_shrinks_on_dual_dominance():
    state = EdgePenaltyState(eta=10.0)
    out = vp_update(state, _pair(0.1, 5.0), CFG, t=3)
    assert out.eta == pytest.approx(5.0)


def test_vp_unchanged_in_dead_zone():
    state = EdgePenaltyState(eta=10.0)
    assert vp_update(state, _pair(1.0, 1.0), CFG, t=3).eta == 10.0


def test_vp_resets_after_reset_iteration():
    state = EdgePenaltyState(eta=37.5)
    for t in (50, 51, 200):
        assert vp_update(state, _pair(9.0, 0.1), CFG, t=t).eta == 10.0


# -------------------------------------------------- objective ranking (ap)


def test_ap_taus_direct():
    taus = ap_taus(2.0, {1: 1.0, 2: 3.0}, 1e-12)
    assert taus[1] == pytest.approx(0.5)
    assert taus[2] == pytest.approx(-0.25)


def test_ap_taus_tie_rule():
    taus = ap_taus(4.0, {1: 4.0, 2: 4.0}, 1e-12)
    assert taus == {1: 0.0, 2: 0.0}


def test_ap_taus_extreme_weight():
    # self at the worst value, one neighbor at the best: maximal weight 1
    taus = ap_taus(9.0, {1: 3.0, 2: 9.0}, 1e-12)
    assert taus[1] == pytest.approx(1.0)
    assert ap_update(taus[1], CFG, t=0) == pytest.approx(2 * CFG.eta0)


def test_ap_taus_rejects_non_finite():
    with pytest.raises(ValueError):
        ap_taus(float("nan"), {1: 1.0}, 1e-12)


def test_ap_taus_bounds_and_ordering():
    # weights stay in [-0.5, 1]; better neighbors always get positive weight
    rng = np.random.default_rng(11)
    for _ in range(200):
        f_self = float(rng.normal())
        f_nb = {j: float(rng.normal()) for j in range(rng.integers(1, 6))}
        taus = ap_taus(f_self, f_nb, 1e-12)
        for j, tau in taus.items():
            assert -0.5 <= tau <= 1.0
            assert 0.5 * CFG.eta0 <= ap_update(tau, CFG, 0) <= 2.0 * CFG.eta0
            if f_nb[j] < f_self:
                assert tau > 0.0
            elif f_nb[j] > f_self:
                assert tau < 0.0


def test_ap_update_examples():
    assert ap_update(0.5, CFG, t=3) == pytest.approx(15.0)
    assert ap_update(0.5, CFG, t=50) == pytest.approx(10.0)
    for t in (0, 10, 49, 50, 1000):
        assert ap_update(0.0, CFG, t) == pytest.approx(10.0)


# ------------------------------------------------------ budgeted (nap)


def test_nap_spends_while_budget_remains():
    state = EdgePenaltyState(eta=10.0, spent=0.0, ceiling=1.0)
    out = nap_update(state, 0.4, f_curr=5.0, f_prev=5.0, cfg=CFG)
    assert out.eta == pytest.approx(14.0)
    assert out.spent == pytest.approx(0.4)
    assert out.ceiling == 1.0


def test_nap_grows_ceiling_when_objective_moves():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=13.0, spent=1.2, ceiling=1.0, growth_count=1)
    out = nap_update(state, 0.3, f_curr=5.5, f_prev=5.0, cfg=cfg)
    assert out.eta == pytest.approx(10.0)
    assert out.ceiling == pytest.approx(1.5)
    assert out.growth_count == 2


def test_nap_frozen_when_objective_stable():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=13.0, spent=1.2, ceiling=1.0)
    out = nap_update(state, 0.3, f_curr=5.01, f_prev=5.0, cfg=cfg)
    assert out.eta == pytest.approx(10.0)
    assert out.ceiling == 1.0
    assert out.spent == pytest.approx(1.2)


def test_nap_relative_beta_mode():
    # a 50% relative drop clears beta even when the absolute change is small
    cfg = PenaltyConfig(relative_beta=True)
    state = EdgePenaltyState(eta=10.0, spent=1.2, ceiling=1.0)
    out = nap_update(state, 0.0, f_curr=0.005, f_prev=0.01, cfg=cfg)
    assert out.ceiling == pytest.approx(1.5)


def test_nap_ceiling_never_exceeds_geometric_bound():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=10.0, spent=0.0, ceiling=cfg.budget)
    for k in range(200):
        previous_spent = state.spent
        state = nap_update(state, 0.7, f_curr=float(k), f_prev=float(k + 1), cfg=cfg)
        assert state.spent >= previous_spent
        assert state.ceiling <= cfg.ceiling_bound + 1e-12
    # budget cap reached: penalty pinned at eta0 from here on
    assert state.exhausted
    assert state.eta == 10.0


def test_nap_resumes_after_growth():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=10.0, spent=1.0, ceiling=1.0)
    grown = nap_update(state, 0.4, f_curr=6.0, f_prev=5.0, cfg=cfg)
    assert grown.eta == 10.0 and grown.ceiling == pytest.approx(1.5)
    resumed = nap_update(grown, 0.4, f_curr=6.0, f_prev=6.0, cfg=cfg)
    assert resumed.eta == pytest.approx(14.0)
    assert resumed.spent == pytest.approx(1.4)


# --------------------------------------------------- combined schemes


def test_vp_ap_branches():
    state = EdgePenaltyState(eta=10.0)
    out = vp_ap_update(state, 0.5, _pair(5.0, 0.2), CFG, t=3)
    assert out.eta == pytest.approx(30.0)
    out = vp_ap_update(state, -0.25, _pair(0.1, 5.0), CFG, t=3)
    assert out.eta == pytest.approx(3.75)
    out = vp_ap_update(state, 0.5, _pair(1.0, 1.0), CFG, t=3)
    assert out.eta == pytest.approx(10.0)


def test_vp_ap_resets_past_t_max():
    state = EdgePenaltyState(eta=31.0)
    assert vp_ap_update(state, 0.5, _pair(5.0, 0.2), CFG, t=51).eta == 10.0
    # boundary: still adapting at t == t_max
    assert vp_ap_update(state, 0.5, _pair(5.0, 0.2), CFG, t=50).eta != 10.0


def test_vp_nap_fresh_state_spends():
    state = EdgePenaltyState(eta=10.0, spent=0.0, ceiling=1.0)
    out = vp_nap_update(state, 0.5, 5.0, 5.0, _pair(5.0, 0.2), CFG)
    assert out.eta == pytest.approx(30.0)
    assert out.spent == pytest.approx(0.5)


def test_vp_nap_no_spend_in_dead_zone():
    state = EdgePenaltyState(eta=12.0, spent=0.3, ceiling=1.0)
    out = vp_nap_update(state, 0.5, 5.0, 5.0, _pair(1.0, 1.0), CFG)
    assert out.eta == pytest.approx(12.0)
    assert out.spent == pytest.approx(0.3)


def test_vp_nap_exhausted_resets_permanently_when_stable():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=25.0, spent=1.2, ceiling=1.0, growth_count=5)
    for _ in range(10):
        state = vp_nap_update(state, 0.5, 5.0, 5.0, _pair(5.0, 0.2), cfg)
        assert state.eta == 10.0


def test_vp_nap_growth_resumes_updates():
    cfg = PenaltyConfig(relative_beta=False)
    state = EdgePenaltyState(eta=25.0, spent=1.2, ceiling=1.0)
    grown = vp_nap_update(state, 0.5, 6.0, 5.0, _pair(5.0, 0.2), cfg)
    assert grown.eta == 10.0 and grown.ceiling == pytest.approx(1.5)
    resumed = vp_nap_update(grown, 0.5, 6.0, 6.0, _pair(5.0, 0.2), cfg)
    assert resumed.eta == pytest.approx(30.0)


# ------------------------------------------------------------ schedulers


def test_make_scheduler_rejects_unknown():
    with pytest.raises(ValueError, match="unknown scheme"):
        make_scheduler("adam", build_complete(3), CFG)


def test_fixed_scheduler_constant():
    sched = make_scheduler("fixed", build_complete(4), CFG)
    assert sched.eta(0, 1) == 10.0
    assert sched.node_eta(2) == 10.0
    assert np.all(sched.all_etas() == 10.0)


def _residual_arrays(pairs):
    # per-node residual pairs as the engine passes them: one pair of arrays
    return ResidualPair(*np.array([(r.primal_sq, r.dual_sq) for r in pairs]).T)


def _edge_values(graph, per_node):
    # f_neighbors[i][j] laid out in directed-edge order
    return np.array([per_node[i][j] for i, j in graph.directed_edges()], dtype=float)


def test_vp_scheduler_is_per_node():
    from netadmm.penalty import RoundSignals

    g = build_complete(3)
    sched = make_scheduler("vp", g, CFG)
    signals = RoundSignals(
        residuals=_residual_arrays([_pair(5.0, 0.1), _pair(0.1, 5.0), _pair(1.0, 1.0)]),
        f_self=np.zeros(3),
        f_prev_self=np.zeros(3),
        f_neighbors=np.zeros(6),
    )
    sched.update(0, signals)
    assert sched.eta(0, 1) == sched.eta(0, 2) == 20.0
    assert sched.eta(1, 0) == 5.0
    assert sched.eta(2, 0) == 10.0


def test_scheduler_determinism():
    from netadmm.penalty import RoundSignals

    g = build_complete(4)

    def drive():
        sched = make_scheduler("nap", g, CFG)
        rng = np.random.default_rng(5)
        for t in range(20):
            f = list(rng.normal(size=4))
            signals = RoundSignals(
                residuals=_residual_arrays([_pair(abs(x), abs(1 - x)) for x in f]),
                f_self=np.array(f),
                f_prev_self=rng.normal(size=4),
                f_neighbors=_edge_values(
                    g, [{j: f[j] + 0.1 * (i - j) for j in g.neighbors[i]} for i in range(4)]
                ),
            )
            sched.update(t, signals)
        return sched.all_etas()

    np.testing.assert_array_equal(drive(), drive())


@pytest.mark.parametrize("scheme", ["fixed", "vp", "ap", "nap", "vp_ap", "vp_nap"])
def test_scheduler_matches_scalar_rules_on_ragged_graph(scheme):
    # cluster(6) has degrees 2, 2, 3, 3, 2, 2, so every node's edges sit
    # at a different offset of the scheduler's edge arrays
    from netadmm.penalty import RoundSignals
    from netadmm.topology import build_cluster

    g = build_cluster(6)
    cfg = PenaltyConfig(t_max=12, budget=0.8)
    sched = make_scheduler(scheme, g, cfg)
    ref = {edge: EdgePenaltyState(eta=cfg.eta0, ceiling=cfg.budget) for edge in g.directed_edges()}
    rng = np.random.default_rng(17)
    f_prev = list(rng.uniform(1.0, 2.0, size=6))
    for t in range(30):
        f_self = list(f_prev * rng.uniform(0.7, 1.3, size=6))
        residuals = [_pair(*10.0 ** rng.uniform(-3, 3, size=2)) for _ in range(6)]
        f_neighbors = [{j: float(rng.uniform(0.5, 3.0)) for j in g.neighbors[i]} for i in range(6)]
        signals = RoundSignals(
            _residual_arrays(residuals),
            np.array(f_self),
            np.array(f_prev),
            _edge_values(g, f_neighbors),
        )
        sched.update(t, signals)
        for i in range(6):
            taus = ap_taus(f_self[i], f_neighbors[i], cfg.f_tie_epsilon)
            res = residuals[i]
            for j, tau in taus.items():
                s = ref[(i, j)]
                ref[(i, j)] = {
                    "fixed": lambda: s,
                    "vp": lambda: vp_update(s, res, cfg, t),
                    "ap": lambda: EdgePenaltyState(ap_update(tau, cfg, t), s.spent, s.ceiling),
                    "nap": lambda: nap_update(s, tau, f_self[i], f_prev[i], cfg),
                    "vp_ap": lambda: vp_ap_update(s, tau, res, cfg, t),
                    "vp_nap": lambda: vp_nap_update(s, tau, f_self[i], f_prev[i], res, cfg),
                }[scheme]()
        for (i, j), expected in ref.items():
            assert sched.state(i, j) == expected, (t, i, j)
            assert sched.eta(i, j) == expected.eta
        assert sched.exhausted_edges() == sum(bool(s.exhausted) for s in ref.values())
        f_prev = f_self
    if scheme in ("nap", "vp_nap"):
        # the signals exercised exhaustion and ceiling growth
        assert sched.exhausted_edges() > 0
        assert any(s.growth_count > 1 for s in ref.values())


@pytest.mark.parametrize("scheme", ["ap", "nap", "vp_ap", "vp_nap"])
def test_update_reads_ranking_weights_only_of_ranking_nodes(scheme):
    # Objective values on the edges of nodes outside ranking_nodes(t, res)
    # change nothing, whatever they hold; vp_ap and vp_nap rank only the
    # nodes whose residual-balancing branch fires.
    from netadmm.penalty import RoundSignals
    from netadmm.topology import build_cluster

    g = build_cluster(6)
    cfg = PenaltyConfig(t_max=12, budget=0.8)
    kept, scrambled = make_scheduler(scheme, g, cfg), make_scheduler(scheme, g, cfg)
    sources, _ = g.edge_arrays()
    rng = np.random.default_rng(41)
    f_prev = rng.uniform(1.0, 2.0, size=6)
    skipped = 0
    for t in range(30):
        f_self = f_prev * rng.uniform(0.7, 1.3, size=6)
        res = ResidualPair(*10.0 ** rng.uniform(-3, 3, size=(2, 6)))
        f_neighbors = rng.uniform(0.5, 3.0, size=len(sources))
        ranked = kept.ranking_nodes(t, res)
        np.testing.assert_array_equal(ranked, scrambled.ranking_nodes(t, res))
        fires = (np.sqrt(res.primal_sq) > cfg.mu * np.sqrt(res.dual_sq)) | (
            np.sqrt(res.dual_sq) > cfg.mu * np.sqrt(res.primal_sq)
        )
        live = np.zeros(6, dtype=bool)
        live[sources[~kept.edge_state.exhausted]] = True
        expected = {
            "ap": np.full(6, t < cfg.t_max),
            "nap": live,
            "vp_ap": fires & (t <= cfg.t_max),
            "vp_nap": fires & live,
        }[scheme]
        np.testing.assert_array_equal(ranked, np.flatnonzero(expected))
        outside = ~np.isin(sources, ranked)
        skipped += outside.any() and len(ranked) > 0
        noise = np.where(rng.random(len(sources)) < 0.5, np.nan, rng.normal(size=len(sources)))
        kept.update(t, RoundSignals(res, f_self, f_prev, f_neighbors))
        scrambled.update(t, RoundSignals(res, f_self, f_prev, np.where(outside, noise, f_neighbors)))
        for field in ("eta", "spent", "ceiling", "growth_count"):
            np.testing.assert_array_equal(
                getattr(kept.edge_state, field), getattr(scrambled.edge_state, field), (t, field)
            )
        f_prev = f_self
    if scheme != "ap":
        # some iterations ranked only part of the nodes
        assert skipped > 3
