"""Synthetic scene generation and KITTI-style ``.bin`` scan ingestion."""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

from .core import PointCloud, SparseTensor, _voxel_floor
from .errors import ConfigError, FileFormatError

RECORD_BYTES = 16  # four little-endian float32 values: x, y, z, intensity

PROFILES = ("uniform", "ground+clusters")


def load_lidar_bin(path) -> PointCloud:
    """Read little-endian (x, y, z, intensity) float32 records."""
    size = os.path.getsize(path)
    if size % RECORD_BYTES != 0:
        raise FileFormatError(
            f"{path}: size {size} is not a multiple of {RECORD_BYTES}-byte records"
        )
    with open(path, "rb") as fh:
        raw = fh.read()
    arr = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise FileFormatError(
            f"{path}: {int(bad.sum())} record(s) hold NaN or Inf, "
            f"the first at record {int(np.argmax(bad))}"
        )
    return PointCloud(points=arr[:, :3], attributes=arr[:, 3:4])


def _ground_and_clusters(rng, n_points: int, extent: float):
    """Planar slab plus Gaussian blobs; returns (points, source ids).

    Source id 0 is the ground plane; ids 1..k mark the blobs.
    """
    n_ground = int(round(n_points * 0.55))
    n_rest = n_points - n_ground
    ground = np.empty((n_ground, 3))
    ground[:, :2] = rng.uniform(-extent / 2, extent / 2, size=(n_ground, 2))
    ground[:, 2] = rng.normal(0.0, extent / 120.0, size=n_ground)
    n_blobs = 5
    centers = np.empty((n_blobs, 3))
    centers[:, :2] = rng.uniform(-0.35 * extent, 0.35 * extent, size=(n_blobs, 2))
    centers[:, 2] = rng.uniform(0.05 * extent, 0.2 * extent, size=n_blobs)
    blob_of = rng.integers(0, n_blobs, size=n_rest)
    rest = centers[blob_of] + rng.normal(0.0, extent / 25.0, size=(n_rest, 3))
    points = np.concatenate([ground, rest], axis=0)
    source = np.concatenate([np.zeros(n_ground, dtype=np.int64), blob_of + 1])
    return points, source


def gen_synthetic_scene(seed: int, n_points: int, extent: float,
                        profile: str = "uniform") -> PointCloud:
    """Deterministic synthetic cloud; a desk-scale stand-in for a scan."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    if n_points < 0:
        raise ConfigError("n_points must be >= 0")
    rng = np.random.default_rng(seed)
    if n_points == 0:
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 1)))
    if profile == "uniform":
        points = rng.uniform(-extent / 2, extent / 2, size=(n_points, 3))
    else:
        points, _ = _ground_and_clusters(rng, n_points, extent)
    intensity = rng.uniform(0.0, 1.0, size=(n_points, 1))
    return PointCloud(points, intensity)


def gen_labeled_scene(seed: int, n_points: int, extent: float,
                      num_classes: int = 4) -> Tuple[PointCloud, np.ndarray]:
    """Ground-plus-clusters cloud with per-point class labels.

    Class 0 is ground; blob points cycle through classes 1..num_classes-1.
    """
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    points, source = _ground_and_clusters(rng, n_points, extent)
    intensity = rng.uniform(0.0, 1.0, size=(n_points, 1))
    labels = np.where(source == 0, 0, (source - 1) % (num_classes - 1) + 1)
    return PointCloud(points, intensity), labels


def voxel_majority_labels(cloud: PointCloud, point_labels: np.ndarray,
                          voxel_size: float, t: SparseTensor,
                          num_classes: int) -> np.ndarray:
    """Majority label of the points inside each voxel of ``t`` (ties: lowest
    id).  A point whose voxel does not pack into a key has no vote."""
    rows = t.lookup(_voxel_floor(cloud.points, voxel_size))
    return majority_vote(rows, point_labels, t.num_voxels, num_classes)


def majority_vote(rows: np.ndarray, labels: np.ndarray, num_rows: int,
                  num_classes: int) -> np.ndarray:
    """Most frequent label per row, from one vote ``labels[i]`` for ``rows[i]``.

    Ties go to the smallest label id; a row without votes gets 0.  Votes for
    a negative row are ignored.
    """
    labels = np.asarray(labels, dtype=np.int64)
    keep = rows >= 0
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ConfigError(f"labels must lie in [0, {num_classes})")
    counts = np.bincount(rows[keep] * num_classes + labels[keep],
                         minlength=num_rows * num_classes)
    return counts.reshape(num_rows, num_classes).argmax(axis=1)
