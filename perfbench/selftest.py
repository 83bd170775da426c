"""Quick tests that the benchmark's checks reject wrong answers.

    python3 perfbench/selftest.py

Runs in about ten seconds from the root of a source checkout.
"""

from __future__ import annotations

import math
import sys
import unittest
from types import SimpleNamespace

import numpy as np

import run
from checks import accuracy_iteration, check_run, covariance_oracle, largest_angles_deg
from spans import DiscardCounter, Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
run.OUTPUT_DIR.mkdir(exist_ok=True)
nd = run.import_netadmm()

PROTOCOL = WORKLOADS["protocol"]


def protocol_instance(seed):
    return PROTOCOL.prepare(nd, [seed], run.OUTPUT_DIR)[0][0]


def rotated(basis, degrees):
    """``basis`` with its first column turned by ``degrees`` out of its span."""
    outside = np.linalg.qr(np.column_stack([basis, np.ones(len(basis))]))[0][:, -1]
    theta = math.radians(degrees)
    turned = basis.copy()
    turned[:, 0] = math.cos(theta) * basis[:, 0] + math.sin(theta) * outside
    return turned


def records(count, eta=10.0):
    return [SimpleNamespace(eta_min=eta, eta_max=eta) for _ in range(count)]


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.instance = protocol_instance(0)
        cls.oracle = covariance_oracle(cls.instance.pooled, PROTOCOL.latent_dim)

    def run_with_bases(self, basis, budget=5, eta=10.0):
        per_iteration = [[basis] * PROTOCOL.num_nodes] * budget
        return check_run("fixed", budget, records(budget, eta), per_iteration, self.oracle)

    def test_angle_of_a_known_rotation(self):
        for degrees in (1e-6, 0.25, 1.0, 30.0, 89.9):
            angle = largest_angles_deg(self.oracle, rotated(self.oracle, degrees)[None])[0]
            self.assertAlmostEqual(angle, degrees, delta=1e-9 * max(1.0, degrees))

    def test_rotated_oracle_fails_and_oracle_passes(self):
        self.assertFalse(self.run_with_bases(self.oracle).failed)
        self.assertFalse(self.run_with_bases(rotated(self.oracle, 0.25)).failed)
        check = self.run_with_bases(rotated(self.oracle, 1.0))
        self.assertTrue(check.failed)
        self.assertAlmostEqual(check.final_deg, 1.0, places=9)

    def test_bad_penalty_fails(self):
        self.assertTrue(self.run_with_bases(self.oracle, eta=0.0).failed)
        self.assertTrue(self.run_with_bases(self.oracle, eta=math.inf).failed)

    def test_accuracy_iteration_counts_the_last_entry(self):
        angles = np.array([[1.0], [0.4], [0.6], [0.3], [0.2]])
        self.assertEqual(accuracy_iteration(angles), 4)
        self.assertEqual(accuracy_iteration(angles[:1] * 0), 1)
        self.assertIsNone(accuracy_iteration(angles[:3]))

    def test_early_stop_of_the_objective_rule_fails(self):
        # The program's relative-objective rule stops fixed with run
        # seed 5 after 3 iterations, with the nodes far from the oracle.
        config = nd.engine.RunConfig(
            topology="complete",
            num_nodes=PROTOCOL.num_nodes,
            scheme="fixed",
            max_iterations=PROTOCOL.budget,
            convergence_tol=1e-3,
            seed=5,
        )
        bases = []
        result = nd.engine.run(
            config,
            nd.ppca.make_dppca_factory(PROTOCOL.latent_dim),
            self.instance.shards,
            trace_hook=lambda t, s, models: bases.append([m.params.W for m in models]),
        )
        self.assertEqual(len(result.records), 3)
        check = check_run("fixed", PROTOCOL.budget, result.records, bases, self.oracle)
        self.assertTrue(check.failed)
        self.assertGreater(check.final_deg, 45.0)
        self.assertEqual(len(check.problems), 3)


class SetUpTests(unittest.TestCase):
    def test_measurement_csv_must_round_trip(self):
        sfm = WORKLOADS["sfm"]
        load = nd.data.load_measurements

        def perturbed(path):
            loaded = load(path)
            return nd.data.MeasurementMatrix(loaded.values + 1e-12)

        sfm.prepare(nd, [1], run.OUTPUT_DIR)
        nd.data.load_measurements = perturbed
        try:
            with self.assertRaises(AssertionError):
                sfm.prepare(nd, [1], run.OUTPUT_DIR)
        finally:
            nd.data.load_measurements = load


class DiscardTests(unittest.TestCase):
    def test_ap_evaluations_after_t_max_are_discarded(self):
        traced = run.import_netadmm()
        tracer = Tracer()
        tracer.install(traced)
        self.assertEqual(tracer.absent, set())
        nodes, t_max, budget = 4, 2, 5
        penalty = traced.penalty.PenaltyConfig(t_max=t_max)
        config = traced.engine.RunConfig(
            topology="complete",
            num_nodes=nodes,
            scheme="ap",
            penalty=penalty,
            max_iterations=budget,
            convergence_tol=1e-300,
            seed=1,
        )
        spec = traced.data.SyntheticSpec(num_samples=40, ambient_dim=6, latent_dim=2, seed=1)
        shards = traced.data.partition_even(traced.data.generate_synthetic(spec)[0], nodes)
        counter = DiscardCounter(tracer, "ap", t_max)
        traced.engine.run(
            config,
            traced.ppca.make_dppca_factory(2),
            shards,
            trace_hook=counter.after_iteration,
        )
        per_iteration = nodes * (nodes - 1)
        values = tracer.snapshot()
        self.assertEqual(values["ppca.objective_neighbor.calls"], budget * per_iteration)
        self.assertEqual(values["ppca.objective_neighbor.discarded"], (budget - t_max) * per_iteration)
        self.assertEqual(values["ppca.m_step.calls"], budget * nodes)
        self.assertGreater(values["engine.run.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
