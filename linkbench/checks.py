"""Correctness checks, computed apart from the library with plain numpy.

Every check compares the program's output with an independent computation
or with a property the method must have, never with a stored copy of an
earlier output.  A failed check raises :class:`CheckFailed`; a passing one
returns the measured error so the run can report it.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """The program's output is wrong."""


def unique_rows(coords: np.ndarray) -> np.ndarray:
    """Distinct (batch, x, y, z) rows in lexicographic order.

    Same result as ``np.unique(c, axis=0)``, which sorts a structured view and
    took 6.5x as long on 101k rows; the checks run inside the run's time.
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 4)
    c = c[np.lexsort(c.T[::-1])]
    keep = np.ones(c.shape[0], dtype=bool)
    keep[1:] = (c[1:] != c[:-1]).any(axis=1)
    return c[keep]


def voxel_coords(points: np.ndarray, voxel_size: float, batch: int = 0) -> np.ndarray:
    """Occupied voxels of a cloud: unique floor(point / voxel_size)."""
    vox = np.floor(np.asarray(points, dtype=np.float64) / voxel_size).astype(np.int64)
    return unique_rows(np.column_stack([np.full(vox.shape[0], batch), vox]))


def downsampled(coords: np.ndarray, k: int) -> np.ndarray:
    """Stage-k coordinate set: unique (batch, floor(xyz / 2^k))."""
    c = np.array(coords, dtype=np.int64)
    c[:, 1:] = np.floor_divide(c[:, 1:], 2 ** k)
    return unique_rows(c)


def same_coords(what: str, got: np.ndarray, expected: np.ndarray) -> None:
    """``got`` holds each row of ``expected`` exactly once and nothing else."""
    got = np.asarray(got, dtype=np.int64).reshape(-1, 4)
    rows = unique_rows(got)
    if rows.shape[0] != got.shape[0]:
        raise CheckFailed(f"{what}: {got.shape[0] - rows.shape[0]} duplicate coordinate(s)")
    if rows.shape != expected.shape or not np.array_equal(rows, expected):
        n = max(rows.shape[0], expected.shape[0])
        bad = n if rows.shape != expected.shape else int((rows != expected).any(axis=1).sum())
        raise CheckFailed(
            f"{what}: {bad} of {n} coordinate rows differ from numpy "
            f"({rows.shape[0]} vs {expected.shape[0]} voxels)")


def stage_coords(input_coords: np.ndarray, stages) -> None:
    """Stage k (1-based) of an encoder holds exactly unique floor(coords / 2^k)."""
    for k, got in enumerate(stages, start=1):
        same_coords(f"stage {k}", got, downsampled(input_coords, k))


def finite(what: str, values: np.ndarray) -> None:
    bad = int((~np.isfinite(values)).sum())
    if bad:
        raise CheckFailed(f"{what}: {bad} non-finite value(s)")


def rel_err(got, ref) -> float:
    """Largest absolute deviation over the largest reference magnitude."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30))


def within(what: str, err: float, tol: float) -> float:
    if not err <= tol:
        raise CheckFailed(f"{what}: error {err:.3g} exceeds {tol:.0e}")
    return err


def erf(mags: np.ndarray, n_inputs: int, seed_coord, input_coords: np.ndarray,
        stage: int) -> None:
    """ERF magnitudes are finite, non-negative and not all zero, one per input
    voxel, and the seed is the stage voxel nearest the stage centroid."""
    if mags.shape != (n_inputs,):
        raise CheckFailed(f"erf: {mags.shape} magnitudes for {n_inputs} input voxels")
    finite("erf magnitudes", mags)
    if (mags < 0).any():
        raise CheckFailed(f"erf: {int((mags < 0).sum())} negative magnitude(s)")
    if not mags.sum() > 0:
        raise CheckFailed("erf: magnitudes sum to zero")
    top = downsampled(input_coords, stage)
    seed = np.asarray(seed_coord, dtype=np.int64)
    if not (top == seed).all(axis=1).any():
        raise CheckFailed(f"erf: seed {seed.tolist()} is not a stage-{stage} voxel")
    xyz = top[:, 1:].astype(np.float64)
    d2 = ((xyz - xyz.mean(axis=0)) ** 2).sum(axis=1)
    if ((seed[1:] - xyz.mean(axis=0)) ** 2).sum() > d2.min():
        raise CheckFailed(f"erf: seed {seed.tolist()} is not nearest the stage centroid")


def link_direct_sum(coords: np.ndarray, feats: np.ndarray, weight: np.ndarray,
                    block: int, neighbor_range: int, rows: np.ndarray) -> np.ndarray:
    """Float64 pure-mode LinK output at ``rows``, summed pair by pair.

    out[p, c] = sum_q cos(w_c . (p - q)) f[q, c] / |N(p)|, where N(p) holds
    the voxels of p's batch whose block lies in the r^3 block cube around
    p's block (offsets -(r // 2) .. -(r // 2) + r - 1 per axis).
    """
    w = np.asarray(weight, dtype=np.float64)   # (C, 3), one group
    xyz = coords[:, 1:]
    blk = np.floor_divide(xyz, block)
    lo = -(neighbor_range // 2)
    out = np.empty((rows.shape[0], feats.shape[1]))
    for i, p in enumerate(rows):
        rel = blk - blk[p]
        near = (coords[:, 0] == coords[p, 0]) & ((rel >= lo) & (rel < lo + neighbor_range)).all(axis=1)
        d = (xyz[p] - xyz[near]).astype(np.float64)
        out[i] = (np.cos(d @ w.T) * feats[near].astype(np.float64)).sum(axis=0) / near.sum()
    return out


def kink_safe_derivative(fn, expected: float, h: float) -> float:
    """Finite-difference derivative of ``fn`` at 0, as close to |expected| as
    a kink allows.

    A ReLU whose input crosses zero within ``2 h`` of the base point bends
    ``fn`` on that side, and a central difference across the bend is wrong
    even though the analytic gradient is right.  The central difference and
    the second-order one-sided differences on either side are computed; the
    one whose magnitude is nearest ``|expected|`` is returned.  A wrong
    gradient misses all three.
    """
    f0, p1, p2, m1, m2 = (fn(k * h) for k in (0, 1, 2, -1, -2))
    estimates = ((p1 - m1) / (2 * h),
                 (-3 * f0 + 4 * p1 - p2) / (2 * h),
                 (3 * f0 - 4 * m1 + m2) / (2 * h))
    return min(estimates, key=lambda d: abs(abs(d) - abs(expected)))


def adjoint(f, lf, g, ltg) -> float:
    """<L f, g> against <f, L^T g>, over the sum of |L f * g| as the scale."""
    f, lf, g, ltg = (np.asarray(a, dtype=np.float64).ravel() for a in (f, lf, g, ltg))
    scale = np.abs(lf * g).sum()
    return float(abs(lf @ g - f @ ltg) / max(scale, 1e-30))


def per_batch_match(batched, solo, batch: int) -> float:
    """Rows of ``batch`` in a batched output against a run of that scan alone
    (as batch 0); returns rel_err after aligning rows by coordinate."""
    bc, bf = batched.coords, batched.features
    sel = bc[:, 0] == batch
    got_c = bc[sel].copy()
    got_c[:, 0] = 0
    got_f = bf[sel]
    go = np.lexsort(got_c.T[::-1])
    so = np.lexsort(solo.coords.T[::-1])
    if got_c.shape != solo.coords.shape or not np.array_equal(got_c[go], solo.coords[so]):
        raise CheckFailed(f"batch {batch}: coordinates differ from the solo run")
    return rel_err(got_f[go], solo.features[so])
