"""Acceptance suite: one test per top-level criterion, at stated tolerances.

The expensive synthetic-protocol runs (500 samples, 20 ambient dims,
5 latent dims, noise variance 0.2, penalty 10, tolerance 1e-3) are shared
across criteria through module-scoped fixtures. Each test prints one
PASS/FAIL line (visible with ``pytest -s``).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from netadmm import cli, data, engine, metrics, penalty, ppca

SEEDS = (1, 2, 3, 4, 5)
ETA0 = 10.0


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def protocol_data():
    spec = data.SyntheticSpec(
        num_samples=500, ambient_dim=20, latent_dim=5, noise_variance=0.2, seed=0
    )
    observations, ground_truth = data.generate_synthetic(spec)
    return observations, ground_truth


def _protocol_run(observations, scheme, topology, seed, num_nodes=20, hook=None, **cfg_kwargs):
    shards = data.partition_even(observations, num_nodes)
    cfg = engine.RunConfig(
        topology=topology,
        num_nodes=num_nodes,
        scheme=scheme,
        penalty=penalty.PenaltyConfig(**cfg_kwargs.pop("penalty_kwargs", {})),
        max_iterations=cfg_kwargs.pop("max_iterations", 400),
        convergence_tol=cfg_kwargs.pop("convergence_tol", 1e-3),
        seed=seed,
    )
    assert not cfg_kwargs
    return engine.run(cfg, ppca.make_dppca_factory(5), shards, trace_hook=hook)


class BudgetHook:
    """Per-iteration snapshots of every directed edge's budget state."""

    def __init__(self):
        self.snapshots = []

    def __call__(self, t, scheduler, models):
        states = {
            edge: scheduler.state(*edge) for edge in scheduler.graph.directed_edges()
        }
        self.snapshots.append(
            {
                edge: (s.eta, s.spent, s.ceiling)
                for edge, s in states.items()
            }
        )


@pytest.fixture(scope="module")
def protocol_matrix(protocol_data):
    """Synthetic-protocol runs: six schemes on complete(20), vp/ap on
    ring(20), five initialization seeds each."""
    observations, ground_truth = protocol_data
    matrix = {}
    for topology, schemes in (
        ("complete", penalty.SCHEMES),
        ("ring", ("vp", "ap")),
    ):
        for scheme in schemes:
            runs = []
            for seed in SEEDS:
                hook = BudgetHook() if scheme in ("nap", "vp_nap") else None
                result = _protocol_run(observations, scheme, topology, seed, hook=hook)
                report = metrics.run_report(result, ground_truth)
                runs.append((result, report, hook))
            matrix[(scheme, topology)] = runs
    return matrix


# ---------------------------------------------------------------- criteria


def test_single_node_oracle_equivalence():
    with criterion("single-node oracle equivalence"):
        rng = np.random.default_rng(3)
        observations = rng.standard_normal((10, 100))
        for scheme in ("fixed", "vp", "ap", "nap"):
            cfg = engine.RunConfig(
                topology="complete",
                num_nodes=1,
                scheme=scheme,
                max_iterations=30,
                convergence_tol=1e-30,
                seed=42,
            )
            result = engine.run(cfg, ppca.make_dppca_factory(3), [observations])
            assert len(result.records) == 30
            node = result.nodes.params

            child = np.random.SeedSequence(42).spawn(1)[0]
            init = ppca.initial_params(observations, 3, np.random.default_rng(child))
            oracle = ppca.centralized_em(observations, 3, init=init, iterations=30)
            assert np.abs(node.W[0] - oracle.W).max() <= 1e-10
            assert np.abs(node.mu[0] - oracle.mu).max() <= 1e-10
            assert abs(node.a[0] - oracle.a) <= 1e-10


def test_quadratic_consensus_oracle():
    with criterion("quadratic consensus oracle"):
        rng = np.random.default_rng(7)
        centers = [rng.standard_normal(3) for _ in range(5)]
        cfg = engine.RunConfig(
            topology="complete",
            num_nodes=5,
            scheme="fixed",
            max_iterations=500,
            convergence_tol=1e-16,
        )
        result = engine.run(
            cfg, lambda shards, rngs, graph: engine.QuadraticNodes(shards, graph), centers
        )
        assert len(result.records) <= 500
        assert np.abs(result.nodes.theta - np.mean(centers, axis=0)).max() < 1e-6


def _lagrangian_value_fn(moments, X, mult, neighbors, eta, anchors):
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


def test_m_step_stationarity():
    with criterion("M-step stationarity (50 randomized instances)"):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(d, 3) + 1))
            n = int(rng.integers(m + 1, 11))
            X = rng.standard_normal((d, n))
            params = ppca.PpcaParams(
                rng.standard_normal((d, m)),
                rng.standard_normal(d),
                float(rng.uniform(0.5, 3.0)),
            )
            mult = ppca.ParamView(
                0.3 * rng.standard_normal((d, m)),
                0.3 * rng.standard_normal(d),
                float(0.3 * rng.standard_normal()),
            )
            k = int(rng.integers(0, 4))
            neighbors = {
                j: ppca.PpcaParams(
                    rng.standard_normal((d, m)),
                    rng.standard_normal(d),
                    float(rng.uniform(0.5, 3.0)),
                )
                for j in range(k)
            }
            # heterogeneous penalties across the node's edges
            eta = {j: float(rng.uniform(1.0, 20.0)) for j in range(k)}
            stats = ppca.shard_stats(X)
            moments = ppca.e_step(params, stats)
            anchors = {
                j: (
                    0.5 * (params.W + nb.W),
                    0.5 * (params.mu + nb.mu),
                    0.5 * (params.a + nb.a),
                )
                for j, nb in neighbors.items()
            }
            broadcasts = np.zeros((0, d * m + d + 1))
            if neighbors:
                broadcasts = np.stack([nb.to_vector() for nb in neighbors.values()])
            # m_step on a one-row stack, pulled to the midpoints of the
            # entry parameters and the neighbors' broadcasts, less twice
            # the multipliers
            own, weights = params.to_vector()[None], np.array([[eta[j] for j in neighbors]])
            eta_sum = weights.sum(axis=1)
            anchor = eta_sum[:, None] * own + weights @ broadcasts
            pull = anchor - 2.0 * ppca.ParamView(*mult).to_vector()
            stacked = map(ppca._lead, (moments, stats, params))
            out = ppca.m_step(*stacked, ppca.unpack(pull, d, m), eta_sum).params
            out = ppca.ParamView(out.W[0], out.mu[0], float(out.a[0]))
            fn = _lagrangian_value_fn(moments, X, mult, neighbors, eta, anchors)
            value = fn(out.W, out.mu, out.a)

            wf = out.W.ravel().copy()

            def at(wvec, muv, av):
                return fn(wvec.reshape(out.W.shape), muv, av)

            h = 1e-6
            grads = []
            g = np.zeros_like(wf)
            for idx in range(wf.size):
                step = h * (1.0 + abs(wf[idx]))
                e = np.zeros_like(wf)
                e[idx] = step
                g[idx] = (at(wf + e, out.mu, out.a) - at(wf - e, out.mu, out.a)) / (2 * step)
            grads.append(np.linalg.norm(g))
            g = np.zeros_like(out.mu)
            for idx in range(out.mu.size):
                step = h * (1.0 + abs(out.mu[idx]))
                e = np.zeros_like(out.mu)
                e[idx] = step
                g[idx] = (at(wf, out.mu + e, out.a) - at(wf, out.mu - e, out.a)) / (2 * step)
            grads.append(np.linalg.norm(g))
            step = h * (1.0 + abs(out.a))
            grads.append(
                abs(at(wf, out.mu, out.a + step) - at(wf, out.mu, out.a - step))
                / (2 * step)
            )
            for gnorm in grads:
                assert gnorm / (1.0 + abs(value)) < 1e-5


def test_penalty_bounds(protocol_matrix):
    # Every run of the matrix: penalties finite and > 0; ap and nap within
    # [5, 20]; nap and vp_nap ceilings within budget / (1 - alpha).
    with criterion("penalty bounds (all finite and > 0, ranking schemes within [5, 20], ceilings <= 2)"):
        bound = penalty.PenaltyConfig().ceiling_bound
        for (scheme, topology), runs in protocol_matrix.items():
            for result, _, hook in runs:
                for record in result.records:
                    assert record.eta_min > 0 and np.isfinite(record.eta_max), (scheme, topology)
                    if scheme in ("ap", "nap"):
                        assert 0.5 * ETA0 - 1e-12 <= record.eta_min
                        assert record.eta_max <= 2.0 * ETA0 + 1e-12
                if hook is not None:
                    for snap in hook.snapshots:
                        for _, _, ceiling in snap.values():
                            assert ceiling <= bound + 1e-12


def test_eventual_standard_admm_behavior(protocol_data):
    with criterion("eventual homogeneous penalty (reset/exhaustion)"):
        observations, _ = protocol_data
        cfg_common = dict(convergence_tol=1e-30, max_iterations=105)
        # iteration-capped schemes: homogeneous from the reset point on
        reset_points = {"fixed": 0, "vp": 50, "ap": 50, "vp_ap": 51}
        for scheme, reset_t in reset_points.items():
            result = _protocol_run(
                observations, scheme, "complete", seed=1, **cfg_common
            )
            tail = [r for r in result.records if r.t >= reset_t]
            assert len(tail) >= 50
            for record in tail:
                assert record.eta_min == record.eta_max == ETA0

        # budget schemes: once an edge is exhausted with a stable ceiling,
        # its penalty is eta0 forever after
        for scheme in ("nap", "vp_nap"):
            hook = BudgetHook()
            result = _protocol_run(
                observations, scheme, "complete", seed=1, hook=hook, **cfg_common
            )
            edges = list(hook.snapshots[0])
            horizon = len(hook.snapshots)
            frozen_from = {}
            for edge in edges:
                ceilings = [snap[edge][2] for snap in hook.snapshots]
                spents = [snap[edge][1] for snap in hook.snapshots]
                for t in range(horizon):
                    stable = all(c == ceilings[t] for c in ceilings[t:])
                    if spents[t] >= ceilings[t] and stable:
                        frozen_from[edge] = t
                        break
                if edge in frozen_from:
                    for snap in hook.snapshots[frozen_from[edge] + 1 :]:
                        assert snap[edge][0] == ETA0
            # the run must actually exercise the frozen regime for >= 50
            # iterations on every edge
            assert frozen_from and len(frozen_from) == len(edges)
            assert max(frozen_from.values()) <= horizon - 50


def test_synthetic_qualitative_reproduction(protocol_matrix):
    with criterion("synthetic protocol reproduction (angles and orderings)"):
        median_iters = {}
        for (scheme, topology), runs in protocol_matrix.items():
            reports = [report for _, report, _ in runs]
            assert all(r["converged"] for r in reports), (scheme, topology)
            median_iters[(scheme, topology)] = metrics.lower_median(
                [r["iterations"] for r in reports]
            )
            if topology == "complete":
                median_angle = metrics.lower_median(
                    [r["max_angle_deg"] for r in reports]
                )
                assert median_angle < 10.0, (scheme, median_angle)
        # residual balancing beats the fixed penalty on the complete graph
        assert median_iters[("vp", "complete")] < median_iters[("fixed", "complete")]
        # objective ranking is at least as fast as residual balancing on the
        # weakly connected ring
        assert median_iters[("ap", "ring")] <= median_iters[("vp", "ring")]


def test_t_max_sensitivity(protocol_data, protocol_matrix):
    with criterion("t_max sensitivity (capped schemes match baseline, budget adapts)"):
        observations, _ = protocol_data
        small = dict(penalty_kwargs={"t_max": 5})
        baseline = _protocol_run(observations, "fixed", "complete", seed=1)
        base_iters = baseline.iterations
        base_final = baseline.records[base_iters - 1].objective

        for scheme in ("ap", "vp_ap"):
            capped = _protocol_run(observations, scheme, "complete", seed=1, **small)
            # no acceleration once updates stop at iteration 5: convergence
            # at the baseline's pace onto the baseline's trajectory
            assert capped.iterations >= base_iters - 2
            assert capped.iterations <= base_iters + 10
            final = capped.records[capped.iterations - 1].objective
            assert abs(final - base_final) / abs(base_final) < 0.01
            # settled tails agree pointwise
            horizon = min(capped.iterations, base_iters)
            for k in range(horizon - 5, horizon):
                gap = abs(
                    capped.records[k].objective - baseline.records[k].objective
                ) / abs(baseline.records[k].objective)
                assert gap < 0.01

        # with the default cap the combined scheme does accelerate
        vp_ap_default = protocol_matrix[("vp_ap", "complete")][0][0]
        assert vp_ap_default.iterations < base_iters - 10

        # the budget scheme keeps adapting past iteration 5
        budgeted = _protocol_run(observations, "nap", "complete", seed=1, **small)
        assert any(
            r.t > 5 and (r.eta_min != ETA0 or r.eta_max != ETA0)
            for r in budgeted.records
        )


def test_synthetic_sfm_against_svd_oracle(tmp_path):
    with criterion("synthetic structure-from-motion vs SVD oracle"):
        measurements = data.generate_rigid_measurements(
            num_frames=30, num_points=100, noise_sigma=0.01, seed=5
        )
        path = tmp_path / "rigid.csv"
        np.savetxt(path, measurements, delimiter=",")
        loaded = data.load_measurements(path)
        shards = data.sfm_node_shards(loaded, 5)
        oracle = cli.svd_structure_basis(loaded.values)
        for scheme in ("fixed", "vp_ap"):
            cfg = engine.RunConfig(
                topology="complete",
                num_nodes=5,
                scheme=scheme,
                max_iterations=400,
                convergence_tol=1e-3,
                seed=1,
            )
            result = engine.run(cfg, ppca.make_dppca_factory(3), shards)
            report = metrics.run_report(result, oracle)
            assert report["max_angle_deg"] < 5.0, (scheme, report["max_angle_deg"])


def test_determinism_across_runs_and_modes(tmp_path):
    with criterion("byte-identical traces across reruns"):
        spec = data.SyntheticSpec(
            num_samples=160, ambient_dim=10, latent_dim=3, noise_variance=0.2, seed=0
        )
        observations, _ = data.generate_synthetic(spec)
        shards = data.partition_even(observations, 8)

        def trace(tag):
            cfg = engine.RunConfig(
                topology="complete",
                num_nodes=8,
                scheme="vp_nap",
                max_iterations=40,
                convergence_tol=1e-3,
                seed=4,
            )
            result = engine.run(cfg, ppca.make_dppca_factory(3), shards)
            metrics.write_run(tmp_path / tag, result, metrics.run_report(result))
            return (tmp_path / tag / "trace.csv").read_bytes()

        assert trace("serial_1") == trace("serial_2")
