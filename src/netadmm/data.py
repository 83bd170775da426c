"""Synthetic data generation, even partitioning, and measurement ingestion.

Synthetic observations are drawn from a linear-Gaussian subspace model:
latent coordinates and the ambient noise are standard normal (the noise
scaled by a configurable variance), and the ground-truth projection has
orthonormalized Gaussian columns so subspace-angle evaluation against it
is well conditioned.

For structure-from-motion runs, tracked feature points arrive as a
``2F x N`` measurement matrix (two image coordinates per frame, one
column per point) loaded from CSV. Frames are split evenly across the
camera nodes and each frame row is centered over the points, the usual
affine-factorization step that removes per-frame translation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SyntheticSpec",
    "MeasurementMatrix",
    "generate_synthetic",
    "partition_even",
    "load_measurements",
    "frame_partition",
    "sfm_node_shards",
    "generate_rigid_measurements",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic subspace dataset."""

    num_samples: int = 500
    ambient_dim: int = 20
    latent_dim: int = 5
    noise_variance: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not self.ambient_dim >= self.latent_dim >= 1:
            raise ValueError("need ambient_dim >= latent_dim >= 1")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be finite and >= 0")


def generate_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw samples from a noisy linear subspace.

    Returns
    -------
    data : ndarray, shape (ambient_dim, num_samples)
        Observations ``x_n = W z_n + noise`` with latent ``z_n ~ N(0, I)``
        and isotropic Gaussian noise of the configured variance.
    ground_truth : ndarray, shape (ambient_dim, latent_dim)
        Orthonormal basis of the generating subspace.
    """
    rng = np.random.default_rng(spec.seed)
    raw = rng.standard_normal((spec.ambient_dim, spec.latent_dim))
    ground_truth, _ = np.linalg.qr(raw)
    latent = rng.standard_normal((spec.latent_dim, spec.num_samples))
    noise = np.sqrt(spec.noise_variance) * rng.standard_normal(
        (spec.ambient_dim, spec.num_samples)
    )
    return ground_truth @ latent + noise, ground_truth


def partition_even(data: np.ndarray, num_nodes: int) -> list[np.ndarray]:
    """Split the columns of ``data`` into contiguous, near-equal shards.

    The first ``N mod J`` shards hold one extra column. The shards are
    views of ``data``, not copies; the engine's models only read them.
    Raises when there are fewer columns than nodes.
    """
    n = data.shape[1]
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if n < num_nodes:
        raise ValueError(f"cannot split {n} samples across {num_nodes} nodes")
    return np.array_split(data, num_nodes, axis=1)


@dataclass(frozen=True)
class MeasurementMatrix:
    """Tracked-point measurements: ``2F`` coordinate rows by ``N`` points."""

    values: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.values.shape[0] // 2

    @property
    def num_points(self) -> int:
        return self.values.shape[1]


def load_measurements(path: str | Path) -> MeasurementMatrix:
    """Load a measurement matrix from CSV.

    The file must contain an even number of numeric rows of equal length.
    A UTF-8 byte-order mark and blank rows are ignored. A single header
    row is tolerated and skipped when it is line 1 and its first cell is
    not numeric. Cells are read by ``float()``. The first bad cell in file
    order is reported by row and column (1-based, counted in the file).
    """
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            try:
                parsed = list(map(float, cells))
            except ValueError:
                if lineno == 1 and not _is_number(cells[0]):
                    continue  # header row
                _raise_first_fault(path, lineno, cells)
            if not all(map(math.isfinite, parsed)):
                _raise_first_fault(path, lineno, cells)
            if rows and len(parsed) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {lineno} has {len(parsed)} columns, expected {len(rows[0])}"
                )
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no measurement rows found")
    if len(rows) % 2 != 0:
        raise ValueError(
            f"{path}: expected an even number of coordinate rows, got {len(rows)}"
        )
    return MeasurementMatrix(np.asarray(rows, dtype=float))


def _raise_first_fault(path: Path, lineno: int, cells: list[str]) -> None:
    """Raise the error of the row's first non-numeric or non-finite cell."""
    for col, cell in enumerate(cells, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite value at row {lineno}, column {col}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def frame_partition(num_frames: int, num_nodes: int) -> list[range]:
    """Contiguous, near-even assignment of frame indices to nodes.

    Same remainder placement as :func:`partition_even`: the first
    ``num_frames mod num_nodes`` nodes hold one extra frame.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if num_frames < num_nodes:
        raise ValueError(
            f"cannot split {num_frames} frames across {num_nodes} nodes"
        )
    blocks = np.array_split(np.arange(num_frames), num_nodes)
    return [range(int(block[0]), int(block[-1]) + 1) for block in blocks]


def sfm_node_shards(measurements: MeasurementMatrix, num_nodes: int) -> list[np.ndarray]:
    """Per-camera data shards for a distributed factorization run.

    Each node receives its frames' coordinate rows. Every row is centered
    over the points (removing that frame's translation, a purely local
    operation), then transposed so the shard is ``num_points`` by
    ``2 * frames_of_node``: samples are the node's coordinate rows living
    in point space, and the learned projection spans the 3-D structure.
    """
    shards = []
    for frames in frame_partition(measurements.num_frames, num_nodes):
        row_idx = sorted([2 * f for f in frames] + [2 * f + 1 for f in frames])
        block = measurements.values[row_idx, :]
        block = block - block.mean(axis=1, keepdims=True)
        shards.append(np.ascontiguousarray(block.T))
    return shards


def generate_rigid_measurements(
    num_frames: int,
    num_points: int,
    noise_sigma: float = 0.01,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic rank-3 measurement matrix of a rigid scene.

    Random affine camera rows observe a random 3-D point cloud; per-frame
    translations and isotropic pixel noise are added on top. Shape is
    ``(2 * num_frames, num_points)``.
    """
    rng = np.random.default_rng(seed)
    cameras = rng.standard_normal((2 * num_frames, 3))
    structure = rng.standard_normal((3, num_points))
    translations = rng.standard_normal((2 * num_frames, 1))
    noise = noise_sigma * rng.standard_normal((2 * num_frames, num_points))
    return cameras @ structure + translations + noise
