import numpy as np
import pytest

from netadmm.engine import (
    ConsensusModel,
    DivergenceError,
    IterationRecord,
    QuadraticModel,
    RunConfig,
    broadcast_round,
    convergence_check,
    iterations_to_convergence,
    run,
    write_trace_csv,
)
from netadmm.penalty import PenaltyConfig
from netadmm.topology import build_complete, build_ring


def _quadratic_factory(node_id, shard, rng):
    return QuadraticModel(shard)


# ------------------------------------------------------------ primitives


def test_convergence_check_examples():
    assert convergence_check([100.0, 100.05], 1e-3) is True
    assert convergence_check([100.0, 90.0], 1e-3) is False
    assert convergence_check([5.0], 1e-3) is False
    assert convergence_check([], 1e-3) is False


def test_broadcast_complete_three():
    g = build_complete(3)
    snaps = [np.array([float(i)]) for i in range(3)]
    inboxes = broadcast_round(g, snaps)
    assert all(len(inbox) == 2 for inbox in inboxes)
    assert set(inboxes[0]) == {1, 2}


def test_broadcast_ring_four():
    g = build_ring(4)
    snaps = [np.array([float(i)]) for i in range(4)]
    inboxes = broadcast_round(g, snaps)
    assert set(inboxes[0]) == {1, 3}
    np.testing.assert_array_equal(inboxes[0][3], [3.0])


def test_broadcast_single_node():
    g = build_complete(1)
    assert broadcast_round(g, [np.zeros(2)]) == [{}]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 0},
        {"scheme": "adamw"},
        {"topology": "star"},
        {"max_iterations": 0},
        {"convergence_tol": 0.0},
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
    result = run(cfg, _quadratic_factory, centers)
    mean = np.mean(centers, axis=0)
    for model in result.models:
        np.testing.assert_allclose(model.theta, mean, atol=1e-6)


def test_single_node_matches_unconstrained_minimum():
    center = np.array([2.0, -3.0])
    cfg = RunConfig(num_nodes=1, scheme="fixed", max_iterations=5, convergence_tol=1e-12)
    result = run(cfg, _quadratic_factory, [center])
    np.testing.assert_allclose(result.models[0].theta, center, atol=1e-12)


def test_ranking_ties_reduce_to_fixed():
    # identical shards and identical inits: all objective evaluations agree,
    # every ranking weight is zero, and the trajectory equals fixed's
    shard = np.array([1.0, -2.0, 0.5])

    def same_init_factory(node_id, data, rng):
        return QuadraticModel(data + np.array([0.3, -0.1, 0.2]))

    records = {}
    for scheme in ("fixed", "ap"):
        cfg = RunConfig(
            topology="complete",
            num_nodes=4,
            scheme=scheme,
            max_iterations=15,
            convergence_tol=1e-30,
        )
        records[scheme] = run(cfg, same_init_factory, [shard] * 4).records
    for fixed_rec, ap_rec in zip(records["fixed"], records["ap"]):
        assert fixed_rec == ap_rec


def test_monotone_eta_homogenization_vp():
    rng = np.random.default_rng(1)
    centers = [rng.normal(size=3) for _ in range(5)]
    penalty = PenaltyConfig(t_reset=8)
    cfg = RunConfig(
        topology="ring",
        num_nodes=5,
        scheme="vp",
        penalty=penalty,
        max_iterations=30,
        convergence_tol=1e-30,
    )
    result = run(cfg, _quadratic_factory, centers)
    for record in result.records:
        if record.t >= 8:
            assert record.eta_min == record.eta_max == penalty.eta0


@pytest.mark.parametrize("factor", [1e4, float("nan")])
def test_divergence_guard(factor):
    class ExplodingModel(ConsensusModel):
        def __init__(self):
            self.theta = np.array([1.0])

        def params_vector(self):
            return self.theta.copy()

        def objective(self, params=None):
            return float(self.theta[0] ** 2)

        def local_step(self, neighbors, eta):
            self.theta = self.theta * factor

        def multiplier_step(self, neighbors, eta):
            pass

    cfg = RunConfig(
        topology="complete", num_nodes=2, scheme="fixed", max_iterations=50
    )
    with pytest.raises(DivergenceError) as excinfo:
        run(cfg, lambda i, s, r: ExplodingModel(), [np.zeros(1)] * 2)
    assert excinfo.value.last_record is not None
    assert excinfo.value.records


class PhaseProbeModel(ConsensusModel):
    """Parameters encode the production round; steps assert visibility.

    A local step may only see neighbor parameters from the previous
    round; a multiplier step must see the current round's broadcast.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.round = -1  # initial parameters count as round -1

    def params_vector(self):
        return np.array([float(self.node_id), float(self.round)])

    def objective(self, params=None):
        return float(self.round)

    def local_step(self, neighbors, eta):
        for vec in neighbors.values():
            assert vec[1] == self.round, "saw same-round output before broadcast"
        self.round += 1

    def multiplier_step(self, neighbors, eta):
        for vec in neighbors.values():
            assert vec[1] == self.round, "multiplier step must see current round"


def test_phase_purity():
    cfg = RunConfig(
        topology="ring",
        num_nodes=6,
        scheme="fixed",
        max_iterations=7,
        convergence_tol=1e-30,
    )
    result = run(
        cfg,
        lambda i, s, r: PhaseProbeModel(i),
        [np.zeros(1)] * 6,
    )
    assert all(model.round == 6 for model in result.models)


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
        path = tmp_path / f"trace_{tag}.csv"
        write_trace_csv(result.records, path)
        return path.read_bytes()

    assert trace_bytes("a") == trace_bytes("b")


def test_shard_count_mismatch_rejected():
    cfg = RunConfig(topology="complete", num_nodes=3, scheme="fixed")
    with pytest.raises(ValueError, match="shards"):
        run(cfg, _quadratic_factory, [np.zeros(2)] * 2)


def test_mismatched_shard_rows_rejected_before_first_iteration():
    rng = np.random.default_rng(3)
    shards = [rng.normal(size=(rows, 8)) for rows in (5, 6, 5)]
    built = []

    def factory(node_id, shard, rng):
        built.append(node_id)
        return QuadraticModel(shard[:, 0])

    cfg = RunConfig(topology="complete", num_nodes=3, scheme="fixed", max_iterations=3)
    with pytest.raises(ValueError, match=r"^node 1: shard has 6 rows, node 0 has 5$"):
        run(cfg, factory, shards)
    assert built == []


def test_trace_csv_format(tmp_path):
    records = [
        IterationRecord(0, 1.23456789012345, 0.5, 0.25, 10.0, 10.0, 10.0, False),
        IterationRecord(1, 1.2, 0.1, 0.1, 10.0, 10.0, 10.0, True),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,objective,max_primal,max_dual,eta_min,eta_max,eta_mean,converged"
    assert lines[1].startswith("0,1.23456789012,")
    assert lines[2].endswith(",1")
    assert iterations_to_convergence(records) == 2


class CountingModel(QuadraticModel):
    """Quadratic model that counts objective evaluations at given parameters."""

    def __init__(self, center):
        super().__init__(center)
        self.neighbor_evals = 0

    def objective(self, params=None):
        if params is not None:
            self.neighbor_evals += 1
        return super().objective(params)


def _per_iteration_evals(scheme, topology, num_nodes, penalty, iterations):
    rng = np.random.default_rng(4)
    centers = [rng.normal(size=3) * (i + 1) for i in range(num_nodes)]
    evals, live_nodes = [], []
    seen = [0] * num_nodes

    def hook(t, scheduler, models):
        evals.append([m.neighbor_evals - s for m, s in zip(models, seen)])
        seen[:] = [m.neighbor_evals for m in models]
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
    run(cfg, lambda i, s, r: CountingModel(s), centers, trace_hook=hook)
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
