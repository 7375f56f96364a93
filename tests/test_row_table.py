"""A set's two coordinate indexes give the same answers.

A set whose padded box has at most ``core.TABLE_CELLS`` cells per voxel
reads its row table; any other set searches its sorted keys.  On either
kind, every stride-1 pair list, order included, equals a reference built
from ``probe_keys`` alone, and ``SparseTensor.lookup`` agrees with a dict
of the set's coordinates.
"""

import math

import numpy as np
import pytest

from conftest import box_coords
from link3d import SparseTensor, core
from link3d.conv import build_kernel_map, kernel_offsets

EDGE = core.COORD_BOUND - 1
INT64 = np.iinfo(np.int64)


def keep_corners(coords, keep):
    """The rows of the box ``coords`` (in key order) under the bool mask
    ``keep``, with the first and last kept so the bounding box stays."""
    keep[[0, -1]] = True
    return coords[keep]


def rule_edge(kernel, inside):
    """A set of a 7^3 box, corners kept, with just as many voxels as the
    table rule allows at ``kernel``'s padding (``inside``) or one fewer."""
    rng = np.random.default_rng(kernel)
    cells = 7 + kernel // 2
    n = -(-cells ** 3 // core.TABLE_CELLS) - (0 if inside else 1)
    coords = box_coords((7, 7, 7), corner=(2, -3, 1))
    keep = np.zeros(coords.shape[0], bool)
    keep[rng.choice(np.arange(1, coords.shape[0] - 1), n - 2, replace=False)] = True
    return keep_corners(coords, keep)


def scene(name, kernel):
    rng = np.random.default_rng(11)
    if name == "full-cube":
        return box_coords((6, 6, 6), corner=(-3, 2, 5))
    if name == "cube-30%":
        coords = box_coords((12, 12, 12), corner=(4, -6, 1))
        return keep_corners(coords, rng.random(coords.shape[0]) < 0.3)
    if name == "sparse-slab":
        coords = box_coords((40, 40, 1), corner=(-20, 3, 7))
        return keep_corners(coords, rng.random(coords.shape[0]) < 0.1)
    if name == "two-batches":
        coords = box_coords((7, 7, 7), batches=2)
        return keep_corners(coords, rng.random(coords.shape[0]) < 0.6)
    if name == "row-order":
        coords = box_coords((9, 8, 7), batches=2, corner=(1, 2, 3))
        return rng.permutation(keep_corners(coords, rng.random(coords.shape[0]) < 0.5))
    if name == "packable-edges":
        # x and z end at +(2^15 - 1), y starts at -(2^15 - 1)
        coords = box_coords((4, 4, 4), corner=(EDGE - 3, -EDGE, EDGE - 3))
        return rng.permutation(keep_corners(coords, rng.random(coords.shape[0]) < 0.7))
    if name == "rule-inside":
        return rule_edge(kernel, True)
    if name == "rule-outside":
        return rule_edge(kernel, False)
    raise KeyError(name)


SCENES = ["full-cube", "cube-30%", "sparse-slab", "two-batches", "row-order",
          "packable-edges", "rule-inside", "rule-outside"]
# the scenes that take each index kind at every K
TABLE = {"full-cube", "two-batches", "row-order", "rule-inside"}
KEYS = {"sparse-slab", "rule-outside"}


def tensor(coords):
    return SparseTensor(coords, np.zeros((coords.shape[0], 1)))


def reference_pairs(t, offsets):
    """Per offset, (in rows, out rows) by one key probe each, sorted by out row."""
    keys, order = t._sorted_keys, t._order
    in_rows, out_rows = [], []
    for offset in offsets:
        dst, src = core.probe_keys(keys, keys, offset)
        dst, src = order[dst], order[src]
        by_dst = np.argsort(dst)
        in_rows.append(src[by_dst])
        out_rows.append(dst[by_dst])
    return in_rows, out_rows


def probes(coords, rng):
    """Hits, misses, cells outside the box, unpackable coordinates and
    int64 extremes."""
    first, last = coords.min(axis=0), coords.max(axis=0)
    moved = [coords + [0, *rng.integers(-2, 3, size=3)] for _ in range(4)]
    outside = np.concatenate([np.tile(first, (4, 1)), np.tile(last, (4, 1))])
    for axis in range(4):
        outside[axis, axis] -= 1
        outside[4 + axis, axis] += 1
    unpackable = np.array([(0, core.COORD_BOUND, 0, 0), (0, 0, -core.COORD_BOUND - 1, 0),
                           (-1, 0, 0, 0), (core.BATCH_BOUND, 0, 0, 0),
                           (0, EDGE + 1, EDGE + 1, EDGE + 1)])
    extremes = np.array([(INT64.max, 0, 0, 0), (0, INT64.min, 0, 0), (0, 0, INT64.max, INT64.min),
                         (INT64.min, INT64.max, INT64.min, INT64.max)])
    return np.concatenate([coords, *moved, outside, unpackable, extremes])


def reference_lookup(coords, queries):
    rows = {tuple(c): r for r, c in enumerate(coords.tolist())}
    return np.array([rows.get(tuple(q), -1) for q in queries.tolist()], dtype=np.int64)


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("name", SCENES)
def test_pairs_and_lookup_match_key_search(name, kernel):
    coords = scene(name, kernel)
    t = tensor(coords)
    pad = kernel // 2
    queries = probes(coords, np.random.default_rng(kernel))
    want_rows = reference_lookup(coords, queries)
    # before any map: no table, the keys are searched
    assert np.array_equal(t.lookup(queries), want_rows)

    km = build_kernel_map(t, kernel, 1)
    table = t._maps.get("table")
    padded = coords.shape[0] and math.prod(
        [e + (pad if axis else 0) for axis, e in enumerate(coords.max(0) - coords.min(0) + 1)])
    assert (table is not None) == (padded <= core.TABLE_CELLS * coords.shape[0])
    assert name not in TABLE or table is not None
    assert name not in KEYS or table is None
    if table is not None:
        assert table.pad == pad

    in_rows, out_rows = reference_pairs(t, kernel_offsets(kernel, 1))
    for got, want in zip(km.in_rows + km.out_rows, in_rows + out_rows):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(t.lookup(queries), want_rows)


def test_wider_kernel_rebuilds_the_table():
    t = tensor(scene("cube-30%", 3))
    build_kernel_map(t, 3, 1)
    bounds = t._maps["bounds"]
    assert t._maps["table"].pad == 1
    km = build_kernel_map(t, 5, 1)
    assert t._maps["table"].pad == 2 and t._maps["bounds"] is bounds
    in_rows, out_rows = reference_pairs(t, kernel_offsets(5, 1))
    for got, want in zip(km.in_rows + km.out_rows, in_rows + out_rows):
        assert np.array_equal(got, want)
    # a narrower kernel reads the wider table
    build_kernel_map(t, 3, 1)
    assert t._maps["table"].pad == 2


def test_empty_set_has_no_table():
    t = tensor(np.zeros((0, 4), np.int64))
    km = build_kernel_map(t, 3, 1)
    assert "table" not in t._maps and km.box is None
    assert t.lookup([(0, 0, 0, 0)]).tolist() == [-1]
