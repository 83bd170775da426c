from dataclasses import replace

import numpy as np
import pytest

from netadmm.engine import (
    IterationRecord,
    QuadraticNodes,
    RunConfig,
    RunResult,
    convergence_check,
    run,
    step,
)
from netadmm.metrics import write_run
from netadmm.penalty import MU, PenaltyConfig, local_residuals
from netadmm.topology import build_cluster, build_complete


def _quadratic(shards, rngs, graph):
    # Quadratic nodes centred at the shards.
    return QuadraticNodes(shards, graph)


# ------------------------------------------------------------ primitives


def test_convergence_check_examples():
    assert convergence_check([100.0, 100.05], 1e-3) is True
    assert convergence_check([100.0, 90.0], 1e-3) is False
    assert convergence_check([5.0], 1e-3) is False
    assert convergence_check([], 1e-3) is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 0},
        {"scheme": "adamw"},
        {"topology": "star"},
        {"max_iterations": 0},
        {"convergence_tol": -1e-3},
        {"convergence_tol": float("inf")},
        {"convergence_tol": float("nan")},
        {"seed": -1},
        {"topology": "ring", "num_nodes": 2},
        {"topology": "cluster", "num_nodes": 7},
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


# -------------------------------------------------------------- dynamics


def test_quadratic_consensus_reaches_mean():
    rng = np.random.default_rng(0)
    centers = [rng.normal(size=4) for _ in range(5)]
    cfg = RunConfig(
        topology="complete",
        num_nodes=5,
        scheme="fixed",
        max_iterations=500,
        convergence_tol=1e-14,
    )
    result = run(cfg, _quadratic, centers)
    np.testing.assert_allclose(result.nodes.theta, np.tile(np.mean(centers, axis=0), (5, 1)), atol=1e-6)


def _common_mode_errors(scheme, topology, iterations):
    # The network mean of theta minus the mean of demo 02's centers, after
    # each iteration, with no stopping rule.
    rng = np.random.default_rng(0)
    centers = [rng.normal(size=3) for _ in range(8)]
    built, errors = [], []

    def build(shards, rngs, graph):
        built.append(QuadraticNodes(shards, graph))
        return built[0]

    def hook(t, scheduler, models):
        errors.append(built[0].theta.mean(axis=0) - np.mean(centers, axis=0))

    cfg = RunConfig(
        topology=topology, num_nodes=8, scheme=scheme, max_iterations=iterations,
        convergence_tol=0.0,
    )
    run(cfg, build, centers, trace_hook=hook)
    return np.array(errors)


@pytest.mark.parametrize("topology", ["complete", "ring"])
def test_quadratic_common_mode_pinned_under_fixed(topology):
    # A uniform penalty's anchor pulls cancel over the network and the
    # multipliers sum to zero, so the nodes' mean stays at the centers' mean.
    errors = _common_mode_errors("fixed", topology, 200)
    assert len(errors) == 200 and np.abs(errors).max() < 1e-14


@pytest.mark.parametrize("topology,degree", [("complete", 7), ("ring", 2)])
def test_quadratic_common_mode_contracts_after_the_reset(topology, degree):
    # Directed ap penalties move the nodes' mean off the centers' mean.
    # Once every penalty is back at eta0 (ap from t_max on), summing the
    # local steps gives mean' - c = eta_sum / (1 + eta_sum) (mean - c), with
    # eta_sum = eta0 * degree on these regular graphs.
    errors = _common_mode_errors("ap", topology, 201)
    eta_sum = PenaltyConfig().eta0 * degree
    norms = np.linalg.norm(errors[100:], axis=1)
    assert norms[0] > 1e-6  # a drift that rounding does not swamp
    np.testing.assert_allclose(norms[1:] / norms[:-1], eta_sum / (1.0 + eta_sum), rtol=1e-3)


def test_single_node_matches_unconstrained_minimum():
    center = np.array([2.0, -3.0])
    cfg = RunConfig(num_nodes=1, scheme="fixed", max_iterations=5, convergence_tol=1e-12)
    result = run(cfg, _quadratic, [center])
    np.testing.assert_allclose(result.nodes.theta[0], center, atol=1e-12)


def test_ranking_ties_reduce_to_fixed():
    # identical shards and identical inits: all objective evaluations agree,
    # every ranking weight is zero, and the trajectory equals fixed's
    shard = np.array([1.0, -2.0, 0.5])

    def same_init(shards, rngs, graph):
        return QuadraticNodes(np.add(shards, [0.3, -0.1, 0.2]), graph)

    records = {}
    for scheme in ("fixed", "ap"):
        cfg = RunConfig(
            topology="complete",
            num_nodes=4,
            scheme=scheme,
            max_iterations=15,
            convergence_tol=1e-30,
        )
        records[scheme] = run(cfg, same_init, [shard] * 4).records
    for fixed_rec, ap_rec in zip(records["fixed"], records["ap"]):
        assert fixed_rec == ap_rec


def test_monotone_eta_homogenization_vp():
    rng = np.random.default_rng(1)
    centers = [rng.normal(size=3) for _ in range(5)]
    penalty = PenaltyConfig(t_max=8)
    cfg = RunConfig(
        topology="ring",
        num_nodes=5,
        scheme="vp",
        penalty=penalty,
        max_iterations=30,
        convergence_tol=1e-30,
    )
    result = run(cfg, _quadratic, centers)
    for record in result.records:
        if record.t >= 8:
            assert record.eta_min == record.eta_max == penalty.eta0


@pytest.mark.parametrize("factor", [1e4, float("nan")])
def test_divergence_guard(factor):
    # From an objective of 0, a factor of 1e4 passes 1e12 at t = 1
    # (2 (1e8 - 1)^2); NaN turns the objective non-finite at t = 0.
    class ExplodingNodes(QuadraticNodes):
        def local_step(self, theta, eta):
            self.theta = self.theta * factor

    cfg = RunConfig(
        topology="complete", num_nodes=2, scheme="fixed", max_iterations=50
    )
    result = run(cfg, lambda s, r, graph: ExplodingNodes(np.ones((2, 1)), graph), [np.zeros(1)] * 2)
    last = 0 if np.isnan(factor) else 1
    assert result.outcome == "diverged" and not result.converged
    assert [record.t for record in result.records] == list(range(last + 1))
    assert result.message == f"objective diverged at iteration {last}: {result.records[-1].objective!r}"


def test_trace_hook_exception_propagates():
    def hook(t, scheduler, models):
        if t == 1:
            raise ValueError("hook failed")

    cfg = RunConfig(topology="complete", num_nodes=2, scheme="fixed", max_iterations=5)
    with pytest.raises(ValueError, match="^hook failed$"):
        run(cfg, _quadratic, [np.zeros(1), np.ones(1)], trace_hook=hook)


class PhaseProbeNodes(QuadraticNodes):
    """Parameters ``[node id, production round]``; steps assert visibility.

    A local step may only see broadcasts from the previous round; a
    multiplier step must see the current round's.
    """

    def local_step(self, theta, eta):
        assert np.all(theta[:, 1] == self.theta[:, 1]), "saw same-round output before broadcast"
        self.theta = self.theta + [0.0, 1.0]

    def multiplier_step(self, theta, eta):
        assert np.all(theta[:, 1] == self.theta[:, 1]), "multiplier step must see current round"


def test_phase_purity():
    cfg = RunConfig(
        topology="ring",
        num_nodes=6,
        scheme="fixed",
        max_iterations=7,
        convergence_tol=1e-30,
    )
    # initial parameters count as round -1
    probe = [[float(i), -1.0] for i in range(6)]
    result = run(cfg, lambda s, r, graph: PhaseProbeNodes(probe, graph), [np.zeros(1)] * 6)
    assert result.nodes.theta.tolist() == [[i, 6.0] for i in range(6)]


def test_seeded_determinism_and_parallel_equivalence(tmp_path):
    rng = np.random.default_rng(2)
    shards = [rng.normal(size=(3, 6)) for _ in range(4)]

    from netadmm.ppca import make_dppca_factory

    def trace_bytes(tag):
        cfg = RunConfig(
            topology="complete",
            num_nodes=4,
            scheme="vp_nap",
            max_iterations=12,
            convergence_tol=1e-30,
            seed=9,
        )
        result = run(cfg, make_dppca_factory(2), shards)
        write_run(tmp_path / tag, result, {})
        return (tmp_path / tag / "trace.csv").read_bytes()

    assert trace_bytes("a") == trace_bytes("b")


def test_shard_count_mismatch_rejected():
    cfg = RunConfig(topology="complete", num_nodes=3, scheme="fixed")
    with pytest.raises(ValueError, match="shards"):
        run(cfg, _quadratic, [np.zeros(2)] * 2)


def test_mismatched_shard_rows_rejected_before_first_iteration():
    rng = np.random.default_rng(3)
    shards = [rng.normal(size=(rows, 8)) for rows in (5, 6, 5)]
    built = []

    def build(shards, rngs, graph):
        built.append(len(shards))
        return QuadraticNodes([shard[:, 0] for shard in shards], graph)

    cfg = RunConfig(topology="complete", num_nodes=3, scheme="fixed", max_iterations=3)
    with pytest.raises(ValueError, match=r"^node 1: shard has 6 rows, node 0 has 5$"):
        run(cfg, build, shards)
    assert built == []


def test_trace_csv_format(tmp_path):
    records = [
        IterationRecord(0, 1.23456789012345, 0.5, 0.25, 10.0, 10.0, 10.0, False),
        IterationRecord(1, 1.2, 0.1, 0.1, 10.0, 10.0, 10.0, True),
    ]
    write_run(tmp_path, RunResult(records, None, None, "converged"), {})
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,objective,max_primal,max_dual,eta_min,eta_max,eta_mean,converged"
    assert lines[1].startswith("0,1.23456789012,")
    assert lines[2].endswith(",1")


class CountingNodes(QuadraticNodes):
    """Quadratic nodes that count, per node, the objectives scored at neighbors."""

    def __init__(self, center, graph):
        super().__init__(center, graph)
        self.neighbor_evals = np.zeros(graph.num_nodes, dtype=int)

    def neighbor_objectives(self, nodes, theta):
        owners = self.graph.edge_arrays()[0][self.graph.out_edges(nodes)]
        self.neighbor_evals += np.bincount(owners, minlength=self.graph.num_nodes)
        return super().neighbor_objectives(nodes, theta)


def _per_iteration_evals(scheme, topology, num_nodes, penalty, iterations):
    rng = np.random.default_rng(4)
    centers = [rng.normal(size=3) * (i + 1) for i in range(num_nodes)]
    built, evals, live_nodes = [], [], []
    seen = np.zeros(num_nodes, dtype=int)

    def build(shards, rngs, graph):
        built.append(CountingNodes(shards, graph))
        return built[0]

    def hook(t, scheduler, models):
        counts = built[0].neighbor_evals
        evals.append((counts - seen).tolist())
        seen[:] = counts
        # nodes with an edge not yet exhausted, as the next update sees them
        live_nodes.append(
            {
                i
                for i, nbs in enumerate(scheduler.graph.neighbors)
                if any(not scheduler.state(i, j).exhausted for j in nbs)
            }
        )

    cfg = RunConfig(
        topology=topology,
        num_nodes=num_nodes,
        scheme=scheme,
        penalty=penalty,
        max_iterations=iterations,
        convergence_tol=1e-30,
    )
    run(cfg, build, centers, trace_hook=hook)
    return evals, live_nodes


def test_ap_skips_neighbor_objectives_from_t_max():
    evals, _ = _per_iteration_evals("ap", "ring", 5, PenaltyConfig(t_max=6), 12)
    assert len(evals) == 12
    for t, per_node in enumerate(evals):
        assert per_node == ([2] * 5 if t < 6 else [0] * 5), t


def test_nap_skips_neighbor_objectives_of_exhausted_nodes():
    degrees = [2, 2, 3, 3, 2, 2]  # cluster(6)
    evals, live_nodes = _per_iteration_evals("nap", "cluster", 6, PenaltyConfig(budget=2.0), 25)
    mixed = 0
    for t in range(1, len(evals)):
        live = live_nodes[t - 1]
        assert evals[t] == [d if i in live else 0 for i, d in enumerate(degrees)], t
        mixed += 0 < len(live) < 6
    assert mixed > 5


@pytest.mark.parametrize("scheme", ["vp_ap", "vp_nap"])
def test_vp_ranking_schemes_score_only_firing_nodes(monkeypatch, scheme):
    # A node is scored at its edge midpoints only when its residual-balancing
    # branch fires (and, for vp_nap, one of its edges has budget left).
    from netadmm import penalty as penalty_module

    residuals = []

    def recorded(*args):
        residuals.append(local_residuals(*args))
        return residuals[-1]

    monkeypatch.setattr(penalty_module, "local_residuals", recorded)
    penalty = PenaltyConfig(t_max=14, budget=2.0)
    evals, live_nodes = _per_iteration_evals(scheme, "cluster", 6, penalty, 20)
    degrees = [2, 2, 3, 3, 2, 2]  # cluster(6)
    partial = 0
    for t, per_node in enumerate(evals):
        res = residuals[t]
        primal, dual = np.sqrt(res.primal_sq), np.sqrt(res.dual_sq)
        fires = (primal > MU * dual) | (dual > MU * primal)
        if scheme == "vp_ap":
            ranked = fires & (t <= penalty.t_max)
        else:
            ranked = fires & np.isin(np.arange(6), list(live_nodes[t - 1] if t else range(6)))
        assert per_node == [d if r else 0 for d, r in zip(degrees, ranked)], t
        partial += 0 < ranked.sum() < 6
    assert partial > 3


def test_quadratic_nodes_match_the_per_node_loop():
    # The closed-form stacked steps against the per-node formulas, on the
    # ragged cluster(6) with a different penalty on every directed edge; only
    # the summation order differs.
    graph = build_cluster(6)
    edges = list(graph.directed_edges())
    rng = np.random.default_rng(8)
    centers = rng.normal(size=(6, 3))
    nodes = QuadraticNodes(centers, graph)
    theta, gamma = centers.copy(), np.zeros_like(centers)
    for _ in range(3):
        eta = rng.uniform(1.0, 20.0, size=len(edges))
        nodes.local_step(nodes.params_matrix(), eta)
        new = np.empty_like(theta)
        for i, nbs in enumerate(graph.neighbors):
            # minimizer of |t - c|^2 + 2 gamma.t + sum_j eta_ij |t - (t_i + t_j)/2|^2
            anchor, eta_sum = np.zeros(3), 0.0
            for j in nbs:
                e = eta[edges.index((i, j))]
                anchor += e * (theta[i] + theta[j]) / 2.0
                eta_sum += e
            new[i] = (centers[i] - gamma[i] + anchor) / (1.0 + eta_sum)
        theta = new
        eta = rng.uniform(1.0, 20.0, size=len(edges))
        nodes.multiplier_step(nodes.params_matrix(), eta)
        for i, nbs in enumerate(graph.neighbors):
            for j in nbs:
                mean = 0.5 * (eta[edges.index((i, j))] + eta[edges.index((j, i))])
                gamma[i] += 0.5 * mean * (theta[i] - theta[j])

    np.testing.assert_allclose(nodes.dual, gamma, rtol=1e-12)
    want = [np.sum((theta[i] - centers[i]) ** 2) for i in range(6)]
    np.testing.assert_allclose(nodes.objectives(), want, rtol=1e-12)
    for ranked in (range(6), [1, 2, 4]):
        want = []
        for i in ranked:
            for j in graph.neighbors[i]:
                point = 0.5 * (theta[i] + theta[j])
                want.append(np.sum((point - centers[i]) ** 2))
        got = nodes.neighbor_objectives(np.array(ranked), nodes.params_matrix())
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_step_is_one_iteration_of_run():
    # From a quadratic and a D-PPCA group whose theta and dual are set from
    # outside, one step at eta0 on complete(4) leaves the state, bit for bit,
    # that a one-iteration fixed run holds.
    from netadmm.ppca import make_dppca_factory

    rng = np.random.default_rng(11)
    shards = [rng.normal(size=(4, 7)) for _ in range(4)]
    dppca = make_dppca_factory(2)

    def set_from_outside(build):
        def wrapped(shards, rngs, graph):
            nodes = build(shards, graph)
            noise = np.random.default_rng(12)
            nodes.theta[:, :-1] += 0.1 * noise.normal(size=(4, nodes.theta.shape[1] - 1))
            nodes.dual[:] = 0.1 * noise.normal(size=nodes.dual.shape)
            return nodes

        return wrapped

    builders = (
        lambda shards, graph: QuadraticNodes([x[:, 0] for x in shards], graph),
        lambda shards, graph: dppca(shards, [np.random.default_rng(i) for i in range(4)], graph),
    )
    graph = build_complete(4)
    eta = np.full(len(graph.edge_arrays()[0]), PenaltyConfig().eta0)
    cfg = RunConfig(topology="complete", num_nodes=4, scheme="fixed", max_iterations=1)
    for build in map(set_from_outside, builders):
        nodes = build(shards, None, graph)
        start = nodes.theta.copy(), nodes.dual.copy()
        theta = step(nodes, nodes.params_matrix(), eta)
        assert not np.array_equal(nodes.theta, start[0]) and not np.array_equal(nodes.dual, start[1])
        np.testing.assert_array_equal(theta, nodes.theta)
        result = run(cfg, build, shards)
        assert result.iterations == 1
        np.testing.assert_array_equal(result.nodes.theta, nodes.theta)
        np.testing.assert_array_equal(result.nodes.dual, nodes.dual)


def _quadratic_and_dppca_nodes(graph, rng):
    # Quadratic and D-PPCA nodes on ``graph``, each with zero multipliers.
    from netadmm.ppca import make_dppca_factory

    n = graph.num_nodes
    shards = [rng.normal(size=(4, 7)) for _ in range(n)]
    dppca = make_dppca_factory(2)(shards, [np.random.default_rng(i) for i in range(n)], graph)
    return QuadraticNodes(rng.normal(size=(n, 3)), graph), dppca


def test_shared_dual_step_matches_the_per_node_loop():
    # NodeGroup.multiplier_step of quadratic and of D-PPCA nodes on the
    # ragged cluster(6), with a different penalty on every directed edge,
    # against (1/2) sum_j (eta_ij + eta_ji)/2 (theta_i - theta_j) node by node.
    graph = build_cluster(6)
    edges = list(graph.directed_edges())
    rng = np.random.default_rng(9)
    for nodes in _quadratic_and_dppca_nodes(graph, rng):
        want = np.zeros_like(nodes.dual)
        for _ in range(3):
            theta = rng.normal(size=nodes.theta.shape)
            eta = rng.uniform(1.0, 20.0, size=len(edges))
            nodes.multiplier_step(theta, eta)
            for k, (i, j) in enumerate(edges):
                mean = 0.5 * (eta[k] + eta[edges.index((j, i))])
                want[i] += 0.5 * mean * (theta[i] - theta[j])
        np.testing.assert_allclose(nodes.dual, want, rtol=1e-12)


def test_dual_step_conserves_the_multiplier_sum_under_directed_penalties():
    # The two ends of an edge receive opposite increments whatever the two
    # directed penalties are, so sum_i dual_i stays 0 to rounding.
    graph = build_cluster(6)
    rng = np.random.default_rng(10)
    for nodes in _quadratic_and_dppca_nodes(graph, rng):
        for _ in range(5):
            theta = rng.normal(size=nodes.theta.shape)
            nodes.multiplier_step(theta, rng.uniform(1.0, 20.0, size=len(graph.edge_arrays()[0])))
        scale = np.linalg.norm(nodes.dual, axis=1).sum()
        assert scale > 1.0
        assert np.abs(nodes.dual.sum(axis=0)).max() <= 1e-12 * scale


def test_zero_tolerance_runs_to_the_cap():
    # A tolerance of 0 is no stopping rule: demo 02's fixed run on
    # complete(8), whose objective repeats exactly from t = 84 on, runs all
    # 200 iterations (at 1e-300 it would stop at 84).
    rng = np.random.default_rng(0)
    centers = [rng.normal(size=3) for _ in range(8)]
    cfg = RunConfig(topology="complete", num_nodes=8, scheme="fixed", max_iterations=200)
    # The run stops at its first converged record, so its iterations are
    # its records.
    tiny = run(replace(cfg, convergence_tol=1e-300), _quadratic, centers)
    assert (tiny.outcome, tiny.message, tiny.iterations) == ("converged", "", 85)
    assert [r.converged for r in tiny.records] == [False] * 84 + [True]
    capped = run(replace(cfg, convergence_tol=0.0), _quadratic, centers)
    assert (capped.outcome, capped.message, capped.iterations) == ("cap", "", 200)
    assert not any(r.converged for r in capped.records)
    assert capped.records[:84] == tiny.records[:84]
