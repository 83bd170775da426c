"""Consensus ADMM on the quadratic toy model, against its analytic answer.

Each node holds a private center and the objective |theta - c_i|^2; the
network optimum is the mean of the centers. Compares how fast each
penalty scheme drives all nodes to that mean on a complete graph and on
a ring.
"""

import numpy as np

from netadmm.engine import QuadraticNodes, RunConfig, run
from netadmm.penalty import SCHEMES

rng = np.random.default_rng(0)
num_nodes = 8
centers = [rng.normal(size=3) for _ in range(num_nodes)]
mean = np.mean(centers, axis=0)
print(f"{num_nodes} nodes, analytic consensus optimum = mean of centers\n")

for topology in ("complete", "ring"):
    print(f"--- {topology} ---")
    for scheme in SCHEMES:
        cfg = RunConfig(
            topology=topology,
            num_nodes=num_nodes,
            scheme=scheme,
            max_iterations=400,
            convergence_tol=1e-10,
            seed=0,
        )
        result = run(cfg, lambda shards, rngs, graph: QuadraticNodes(shards, graph), centers)
        err = np.abs(result.nodes.theta - mean).max()
        last = result.records[-1]
        print(
            f"{scheme:7s} stopped at t={last.t:3d}  "
            f"max |theta - mean| = {err:.2e}  "
            f"eta range [{last.eta_min:.1f}, {last.eta_max:.1f}]"
        )
    print()
