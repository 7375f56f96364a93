"""Benchmark inputs, generated from the run seed and the op index.

Every op gets a cloud that no earlier op of the run has seen: the generator
is seeded with ``(seed, workload tag, op index)``.  Nothing here calls into
link3d, so the inputs do not change when the library does.
"""

from __future__ import annotations

import numpy as np

# uniform cube (encoder-seg, link-wide)
CUBE_POINTS = 120_000
CUBE_EXTENT = 3.5           # metres, edge of the cube centred on the origin

# synthetic 64-beam sweep (scan-det)
BEAMS = 64
# two beam blocks as on the common 64-beam sensor: 32 beams from +2.0 to
# -8.33 degrees and 32 from -8.83 to -24.9 degrees
UPPER_BLOCK_DEG = (2.0, -8.33)
LOWER_BLOCK_DEG = (-8.83, -24.9)
AZIMUTH_STEPS = 2000
SENSOR_HEIGHT = 1.73           # ground plane at z = -SENSOR_HEIGHT
N_BOXES = 40
RANGE_CAP = 70.0
RANGE_NOISE = 0.02             # metres, Gaussian, along the ray


WARM_UP = 10 ** 6   # op index of the set-up scene; timed ops count from 0


def op_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Generator for one op's inputs; ``tag`` keeps workloads apart."""
    return np.random.default_rng([seed, tag, index])


def cube_cloud(rng: np.random.Generator, n_points: int = CUBE_POINTS,
               extent: float = CUBE_EXTENT):
    """Uniform points in a cube of edge ``extent``, one intensity channel."""
    points = rng.uniform(-extent / 2, extent / 2, size=(n_points, 3))
    intensity = rng.uniform(0.0, 1.0, size=(n_points, 1))
    return points, intensity


def _boxes(rng: np.random.Generator):
    """Car-sized axis-aligned boxes on the ground, one per azimuth sector.

    One box per sector, with distances stratified over 8-45 m, keeps the
    occluded share, and so the voxel count, nearly the same from seed to
    seed.  Returns the (lo, hi) corners.
    """
    sector = 2 * np.pi / N_BOXES
    azimuth = (np.arange(N_BOXES) + rng.uniform(0.2, 0.8, N_BOXES)) * sector
    strata = (rng.permutation(N_BOXES) + rng.uniform(0.0, 1.0, N_BOXES)) / N_BOXES
    dist = 8.0 + 37.0 * strata
    centre = np.stack([dist * np.cos(azimuth), dist * np.sin(azimuth)], axis=1)
    size = np.stack(
        [rng.uniform(3.5, 4.8, N_BOXES), rng.uniform(1.6, 2.0, N_BOXES),
         rng.uniform(1.4, 1.8, N_BOXES)], axis=1)
    lo = np.empty((N_BOXES, 3))
    hi = np.empty((N_BOXES, 3))
    lo[:, :2] = centre - size[:, :2] / 2
    hi[:, :2] = centre + size[:, :2] / 2
    lo[:, 2] = -SENSOR_HEIGHT
    hi[:, 2] = -SENSOR_HEIGHT + size[:, 2]
    return lo, hi


def lidar_sweep(rng: np.random.Generator, beams: int = BEAMS,
                azimuth_steps: int = AZIMUTH_STEPS):
    """One sweep of a spinning multi-beam sensor over a ground plane and boxes.

    Each ray returns its nearest hit on the ground plane or a box; rays that
    hit nothing within ``RANGE_CAP`` return no point.  Returns (points,
    intensity) in sensor coordinates.
    """
    half = beams // 2
    elev = np.deg2rad(np.r_[np.linspace(*UPPER_BLOCK_DEG, half),
                            np.linspace(*LOWER_BLOCK_DEG, beams - half)])
    az = rng.uniform(0, 2 * np.pi) + np.arange(azimuth_steps) * (2 * np.pi / azimuth_steps)
    el, a = np.meshgrid(elev, az, indexing="ij")
    d = np.stack([np.cos(el) * np.cos(a), np.cos(el) * np.sin(a), np.sin(el)],
                 axis=-1)                                  # (beams, steps, 3)
    t = np.full(d.shape[:2], np.inf)
    down = d[..., 2] < 0
    t[down] = -SENSOR_HEIGHT / d[down][:, 2]
    lo, hi = _boxes(rng)
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(N_BOXES):
            # only the azimuth columns that can see the box; it never
            # surrounds the sensor, so its corners bound the angular span
            corners = np.array([[lo[b, 0], lo[b, 1]], [lo[b, 0], hi[b, 1]],
                                [hi[b, 0], lo[b, 1]], [hi[b, 0], hi[b, 1]]])
            centre = np.arctan2(*corners.mean(axis=0)[::-1])
            spread = np.angle(np.exp(1j * (np.arctan2(corners[:, 1], corners[:, 0]) - centre)))
            off = np.angle(np.exp(1j * (az - centre)))
            cols = np.flatnonzero((off >= spread.min()) & (off <= spread.max()))
            dc = d[:, cols]
            t1 = lo[b] / dc
            t2 = hi[b] / dc
            near = np.minimum(t1, t2).max(axis=-1)
            far = np.maximum(t1, t2).min(axis=-1)
            hit = (near <= far) & (near > 0)
            tc = t[:, cols]
            t[:, cols] = np.where(hit & (near < tc), near, tc)
    d = d.reshape(-1, 3)
    t = t.reshape(-1)
    keep = t <= RANGE_CAP
    r = t[keep] + rng.normal(0.0, RANGE_NOISE, size=int(keep.sum()))
    points = d[keep] * r[:, None]
    intensity = rng.uniform(0.0, 1.0, size=(points.shape[0], 1))
    return points, intensity


def write_bin(path, points: np.ndarray, intensity: np.ndarray) -> None:
    """KITTI ``.bin`` layout: little-endian float32 (x, y, z, intensity)."""
    rec = np.concatenate([points, intensity[:, :1]], axis=1).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(rec.tobytes())
