"""Distributed affine structure from motion on a synthetic rigid scene.

A rank-3 measurement matrix (random affine cameras observing a random
point cloud, plus translations and pixel noise) is written to CSV,
loaded back, and factorized by five camera nodes on a complete graph.
Each node's recovered structure subspace is scored against the
centralized SVD factorization, and the per-scheme iteration counts give
the speed-up figures.
"""

import tempfile
from pathlib import Path

import numpy as np

from netadmm import cli, data, engine, metrics, ppca

FRAMES, POINTS = 30, 100

measurements = data.generate_rigid_measurements(FRAMES, POINTS, noise_sigma=0.01, seed=5)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "rigid.csv"
    np.savetxt(path, measurements, delimiter=",")
    loaded = data.load_measurements(path)
print(f"measurement matrix: {2 * loaded.num_frames} x {loaded.num_points} "
      f"({loaded.num_frames} frames, {loaded.num_points} points)")

shards = data.sfm_node_shards(loaded, 5)
print(f"5 cameras, {shards[0].shape[1]} coordinate rows each, "
      "frame translations removed by row centering\n")

oracle = cli.svd_structure_basis(loaded.values)

iterations = {}
for scheme in ("fixed", "vp", "vp_ap"):
    cfg = engine.RunConfig(
        topology="complete", num_nodes=5, scheme=scheme,
        max_iterations=500, convergence_tol=1e-3, seed=1,
    )
    result = engine.run(cfg, ppca.make_dppca_factory(3), shards)
    report = metrics.run_report(result, oracle)
    iterations[scheme] = report["iterations"]
    print(f"{scheme:6s}: {report['iterations']:3d} iterations, "
          f"max angle vs SVD structure {report['max_angle_deg']:.3f} deg")

print()
for scheme in ("vp", "vp_ap"):
    gain = 100.0 * (iterations["fixed"] - iterations[scheme]) / iterations["fixed"]
    print(f"{scheme} speed-up over the fixed penalty: {gain:.1f}%")
