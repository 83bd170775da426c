"""The benchmark's workloads: sizes, schemes, iteration budgets and inputs.

Every workload is built from its seed alone through netadmm's data
layer. The package is passed in as ``nd`` because the set-up timing
imports it afresh on every repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ALL_SCHEMES = ("fixed", "vp", "ap", "nap", "vp_ap", "vp_nap")

#: the paper's protocol: eta0 = 10 with 25 samples per node
PROTOCOL_ETA0 = 10.0
PROTOCOL_SAMPLES_PER_NODE = 25


def scaled_eta0(samples_per_node: int) -> float:
    """eta0 in the protocol's ratio of 10 per 25 samples per node.

    The data term of a node's objective grows with its sample count,
    so a fixed eta0 leaves large shards nearly uncoupled.
    """
    return PROTOCOL_ETA0 * samples_per_node / PROTOCOL_SAMPLES_PER_NODE


@dataclass(frozen=True)
class Instance:
    """One input as the program receives it, plus what the oracle needs:
    the pooled samples (D x N) or the measurement matrix. ``seed`` made
    the data and seeds the node initialization."""

    seed: int
    shards: list[np.ndarray]
    pooled: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "synthetic" or "sfm"
    schemes: tuple[str, ...]
    num_nodes: int
    latent_dim: int
    budget: int
    eta0: float
    #: independent inputs per round; their sums vary less from seed to seed
    instances: int = 1
    num_samples: int = 0
    ambient_dim: int = 0
    num_frames: int = 0
    num_points: int = 0
    noise: float = 0.0

    def describe(self) -> str:
        if self.kind == "synthetic":
            size = f"{self.num_samples}x{self.ambient_dim} synthetic, noise variance {self.noise}"
        else:
            size = (
                f"{self.num_frames} frames x {self.num_points} points rigid scene via CSV, "
                f"noise sigma {self.noise}"
            )
        return (
            f"{size}; complete({self.num_nodes}), M={self.latent_dim}, "
            f"eta0={self.eta0:g}, budget {self.budget} iterations, "
            f"schemes {','.join(self.schemes)}, {self.instances} instance(s) per round"
        )

    def prepare(self, nd, seeds, workdir: Path) -> tuple[list[Instance], float]:
        """Build one instance per seed with netadmm's data layer.

        Returns the instances and the seconds spent in data-layer calls;
        writing the SfM measurement CSV is left out of that time.
        """
        instances, seconds = [], 0.0
        for seed in seeds:
            instance, spent = self._prepare_one(nd, seed, workdir)
            instances.append(instance)
            seconds += spent
        return instances, seconds

    def _prepare_one(self, nd, seed: int, workdir: Path) -> tuple[Instance, float]:
        if self.kind == "synthetic":
            start = perf_counter()
            spec = nd.data.SyntheticSpec(
                num_samples=self.num_samples,
                ambient_dim=self.ambient_dim,
                latent_dim=self.latent_dim,
                noise_variance=self.noise,
                seed=seed,
            )
            pooled, _ = nd.data.generate_synthetic(spec)
            shards = nd.data.partition_even(pooled, self.num_nodes)
            return Instance(seed, shards, pooled), perf_counter() - start

        start = perf_counter()
        matrix = nd.data.generate_rigid_measurements(
            self.num_frames, self.num_points, noise_sigma=self.noise, seed=seed
        )
        generated = perf_counter() - start
        path = workdir / f"{self.name}-{seed}.csv"
        # %.17g round-trips every double, so the loader must return the
        # written matrix exactly.
        np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
        start = perf_counter()
        loaded = nd.data.load_measurements(path)
        shards = nd.data.sfm_node_shards(loaded, self.num_nodes)
        ingested = perf_counter() - start
        path.unlink()
        if not np.array_equal(loaded.values, matrix):
            raise AssertionError("load_measurements did not return the matrix that was written")
        return Instance(seed, shards, loaded.values), generated + ingested


def instance_seeds(seed: int, count: int) -> list[int]:
    """Data and run seeds of a workload's instances, derived from its seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


BIGSHARD_SAMPLES, BIGSHARD_NODES = 12_000, 4

# Budgets clear the slowest accuracy iteration seen by a
# wide margin: protocol 71 (vp_ap, seeds 0-59), bigshard 25 (seeds 0-17),
# sfm 23 (seeds 0-17).
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's synthetic protocol: 380 directed edges and 25
        # samples per node, so per-edge Python work and the ranking
        # evaluations dominate. vp and vp_ap reach the accuracy angle
        # last, after their penalty reset at t_max = 50.
        Workload(
            name="protocol",
            kind="synthetic",
            schemes=ALL_SCHEMES,
            num_nodes=20,
            latent_dim=5,
            budget=90,
            eta0=PROTOCOL_ETA0,
            num_samples=500,
            ambient_dim=20,
            noise=0.2,
        ),
        # Few nodes with 3,000 samples each: per-sample kernels (E-step,
        # M-step block products, NLL solve) dominate, per-edge work is ~1%.
        # Fixed plus two ranking schemes keep the median iteration inside
        # the ranking schemes' cluster of iteration times. eta0 is twice
        # the protocol's ratio: at the ratio itself some initializations
        # settle into a period-2 oscillation 3-6 degrees from the oracle.
        Workload(
            name="bigshard",
            kind="synthetic",
            schemes=("fixed", "ap", "nap"),
            num_nodes=BIGSHARD_NODES,
            latent_dim=5,
            budget=35,
            eta0=2 * scaled_eta0(BIGSHARD_SAMPLES // BIGSHARD_NODES),
            instances=3,
            num_samples=BIGSHARD_SAMPLES,
            ambient_dim=50,
            noise=0.2,
        ),
        # The paper's application: 5 cameras, 16 coordinate rows per
        # node, the points as the ambient dimension; the D x D covariance
        # and its Cholesky in every NLL dominate. One instance's accuracy
        # iterations vary most here (vp_ap: 6 to 22), hence 6 per round.
        Workload(
            name="sfm",
            kind="sfm",
            schemes=("fixed", "nap", "vp_ap"),
            num_nodes=5,
            latent_dim=3,
            budget=35,
            eta0=PROTOCOL_ETA0,
            instances=6,
            num_frames=40,
            num_points=200,
            noise=0.01,
        ),
    )
}
