"""Distributed probabilistic PCA on synthetic subspace data.

Reproduces the convergence-speed comparison at demo scale: 500 samples
of 20-dimensional observations from a 5-dimensional subspace with noise
variance 0.2, split evenly across the nodes. For each scheme the table
shows the median iterations-to-convergence and the median of the worst
per-node subspace angle against the generating subspace, over three
initializations.

The patterns to look for: the residual-balancing schemes converge
fastest on the complete graph, while the objective-ranking schemes hold
up better on the weakly-connected ring.
"""

import time

import numpy as np

from netadmm import data, engine, metrics, penalty, ppca

SEEDS = (1, 2, 3)
NUM_NODES = 12

spec = data.SyntheticSpec(num_samples=500, ambient_dim=20, latent_dim=5,
                          noise_variance=0.2, seed=0)
observations, ground_truth = data.generate_synthetic(spec)
shards = data.partition_even(observations, NUM_NODES)
print(f"data: {spec.ambient_dim} x {spec.num_samples}, "
      f"{NUM_NODES} nodes x {shards[0].shape[1]} samples\n")

centralized = ppca.centralized_em(
    observations, spec.latent_dim,
    init=ppca.initial_params(observations, spec.latent_dim, np.random.default_rng(1)),
    iterations=80,
)
floor = metrics.subspace_angle(centralized.W, ground_truth)
print(f"centralized EM on pooled data: {floor:.2f} deg vs ground truth "
      "(the estimation noise floor)\n")

for topology in ("complete", "ring", "cluster"):
    print(f"--- {topology}({NUM_NODES}) ---")
    print(f"{'scheme':8s} {'median iters':>12s} {'median max angle':>17s}")
    for scheme in penalty.SCHEMES:
        t0 = time.time()
        reports = []
        for seed in SEEDS:
            cfg = engine.RunConfig(
                topology=topology, num_nodes=NUM_NODES, scheme=scheme,
                max_iterations=400, convergence_tol=1e-3, seed=seed,
            )
            result = engine.run(cfg, ppca.make_dppca_factory(spec.latent_dim), shards)
            reports.append(metrics.run_report(result, ground_truth))
        agg = metrics.aggregate_reports(reports)
        print(f"{scheme:8s} {agg['median_iterations']:12d} "
              f"{agg['median_max_angle_deg']:15.2f}  "
              f"({time.time()-t0:.1f}s)")
    print()
