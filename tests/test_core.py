import itertools
import tracemalloc

import numpy as np
import pytest

from link3d import (
    BoundsError,
    ConfigError,
    DimensionError,
    DuplicateCoordError,
    PointCloud,
    SparseTensor,
    core,
    pack_keys,
    voxelize,
)
from conftest import box_coords
from oracles import blocked_product, regroup_voxels


BATCH_0 = -(2 ** 63)   # batch 0's top field, -2^15, as a signed key


def dense_box(coords, pad=0):
    """The dense plans' box of ``coords``, padded by ``pad``: their layout
    when they fill at least half of their bounding box, else None."""
    bounds = core.box_bounds(coords)
    if not core.fills(bounds, coords.shape[0], core.DENSE_CELLS):
        return None
    return core.lay_out(coords, bounds, pad)


class TestPackKey:
    def test_zero_coord(self):
        assert pack_keys((0, 0, 0, 0)).tolist() == [BATCH_0 + 0x8000_8000_8000]

    def test_domain_minimum(self):
        assert pack_keys((0, -(2 ** 15), -(2 ** 15), -(2 ** 15))).tolist() == [BATCH_0]

    def test_layout(self):
        # batch-2^15 | x+2^15 | y+2^15 | z+2^15
        keys = pack_keys([(1, 0, 0, 0), (0, 1, 2, 3)])
        assert keys.tolist() == [BATCH_0 + (1 << 48) + 0x8000_8000_8000,
                                 BATCH_0 + 0x8001_8002_8003]

    def test_key_order_is_coordinate_order_for_every_batch(self, rng):
        # batches from 2^15 up sort after batch 0, as their coordinates do
        top, bottom = 2 ** 15 - 1, -(2 ** 15)
        batches = np.array([0, 2 ** 15 - 1, 2 ** 15, 2 ** 16 - 1])
        corners = np.array([(bottom, bottom, bottom), (0, -1, 1), (top, top, top)])
        coords = np.concatenate([
            np.concatenate([np.repeat(batches, 3)[:, None], np.tile(corners, (4, 1))], 1),
            np.concatenate([rng.choice(batches, (200, 1)),
                            rng.integers(bottom, top + 1, (200, 3))], 1),
        ])
        coords = np.unique(coords, axis=0)
        coords = coords[rng.permutation(coords.shape[0])]
        by_key = coords[np.argsort(pack_keys(coords))]
        assert np.array_equal(by_key, coords[np.lexsort(coords.T[::-1])])
        assert np.array_equal(core._unpack_keys(np.sort(pack_keys(coords))), by_key)

    def test_roundtrip(self, rng):
        # key order is lexicographic (batch, x, y, z) order
        coords = np.stack(
            [
                rng.integers(0, 100, 50),
                rng.integers(-(2 ** 15), 2 ** 15, 50),
                rng.integers(-(2 ** 15), 2 ** 15, 50),
                rng.integers(-(2 ** 15), 2 ** 15, 50),
            ],
            axis=1,
        )
        by_key = coords[np.argsort(pack_keys(coords), kind="stable")]
        by_coord = coords[np.lexsort(coords.T[::-1])]
        assert np.array_equal(by_key, by_coord)

    def test_unpack_inverts_pack(self, rng):
        top, bottom = 2 ** 15 - 1, -(2 ** 15)
        coords = np.concatenate([
            rng.integers([0, bottom, bottom, bottom], [2 ** 16, top + 1, top + 1, top + 1],
                         size=(200, 4)),
            [(0, bottom, bottom, bottom), (2 ** 16 - 1, top, top, top), (2 ** 15, 0, -1, 1)],
        ])
        assert np.array_equal(core._unpack_keys(pack_keys(coords)), coords)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coord",
        [(0, 2 ** 15, 0, 0), (0, 0, -(2 ** 15) - 1, 0), (-1, 0, 0, 0), (2 ** 16, 0, 0, 0),
         (0, 1e30, 0, 0), (0, 0, -np.inf, 0), (np.inf, 0, 0, 0), (0, 0, 0, 2.0 ** 15)],
    )
    def test_out_of_bounds(self, coord):
        with pytest.raises(BoundsError):
            pack_keys(coord)
        with pytest.raises(BoundsError):
            SparseTensor([coord], np.zeros((1, 1)))

    @pytest.mark.parametrize("coord", [(0, 1.7, 0, 0), (0, 0, np.nan, 0), (0.5, 0, 0, 0)])
    def test_fractional_or_nan_rejected(self, coord):
        with pytest.raises(DimensionError):
            pack_keys([coord])
        with pytest.raises(DimensionError):
            SparseTensor([coord], np.zeros((1, 1)))

    def test_integral_floats_pack_as_integers(self):
        coords = [(1, -3, 0, 2 ** 15 - 1), (0, -(2 ** 15), 7, 0)]
        assert pack_keys(np.array(coords, float)).tolist() == pack_keys(coords).tolist()
        t = SparseTensor(np.array(coords, np.float32), np.zeros((2, 1)))
        assert t.coords.dtype == np.int64 and t.coords.tolist() == [list(c) for c in coords]

    def test_injective_on_million_random_coords(self, rng):
        coords = np.stack(
            [
                rng.integers(0, 4, 1_000_000),
                rng.integers(-(2 ** 15), 2 ** 15, 1_000_000),
                rng.integers(-(2 ** 15), 2 ** 15, 1_000_000),
                rng.integers(-(2 ** 15), 2 ** 15, 1_000_000),
            ],
            axis=1,
        )
        coords = np.unique(coords, axis=0)
        keys = np.sort(pack_keys(coords))
        assert (np.diff(keys) != 0).all()


class TestCoordIndex:
    """``SparseTensor.lookup``, the coordinate -> row index."""

    def test_empty(self):
        t = SparseTensor(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 1)))
        assert t.num_voxels == 0
        assert t.lookup([(0, 0, 0, 0)]).tolist() == [-1]
        assert t.lookup(np.zeros((0, 4), dtype=np.int64)).shape == (0,)

    def test_single(self):
        t = SparseTensor([(0, 0, 0, 0)], np.zeros((1, 1)))
        probes = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0),
                  (0, 2 ** 15, 0, 0), (-1, 0, 0, 0)]
        assert t.lookup(probes).tolist() == [0, -1, -1, -1, -1]

    def test_duplicate_raises(self):
        with pytest.raises(DuplicateCoordError):
            SparseTensor([(0, 1, 2, 3), (0, 1, 2, 3)], np.zeros((2, 1)))

    def test_random_hits_and_misses(self, rng):
        coords = np.unique(
            rng.integers(-500, 500, size=(10_000, 4)) * [0, 1, 1, 1], axis=0
        )
        t = SparseTensor(coords, np.zeros((coords.shape[0], 1)))
        hits = rng.choice(coords.shape[0], 200, replace=False)
        assert t.lookup(coords[hits]).tolist() == hits.tolist()
        present = {tuple(c) for c in coords}
        misses = []
        while len(misses) < 200:
            c = tuple(rng.integers(-500, 500, size=4) * [0, 1, 1, 1])
            if c not in present:
                misses.append(c)
        assert (t.lookup(misses) == -1).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("table", [False, True])
    def test_float_probes(self, table):
        # on the row table and on the sorted keys alike
        t = SparseTensor(box_coords((3, 3, 3), corner=(-1, -1, -1)), np.zeros((27, 1)))
        if table:
            t._table(1)
        assert ("table" in t._maps) == table
        probes = [(0, 1.0, -1.0, 0.0), (0, 5.0, 0, 0), (0, 1e30, 0, 0),
                  (0, 0, -np.inf, 0), (np.inf, 0, 0, 0), (-1.0, 0, 0, 0)]
        assert t.lookup(np.array(probes)).tolist() == [19, -1, -1, -1, -1, -1]
        for bad in ((0, 1.9, 0, 0), (0, np.nan, 0, 0)):
            with pytest.raises(DimensionError):
                t.lookup([bad])

    def test_identity_permutation(self, rng):
        coords = np.unique(rng.integers(-40, 40, size=(500, 4)), axis=0)
        coords[:, 0] = np.abs(coords[:, 0])
        t = SparseTensor(coords, np.zeros((coords.shape[0], 1)))
        assert t.lookup(coords).tolist() == list(range(coords.shape[0]))


class TestSparseTensor:
    def test_duplicate_coords_rejected(self):
        with pytest.raises(DuplicateCoordError):
            SparseTensor([(0, 0, 0, 0), (0, 0, 0, 0)], np.zeros((2, 1)))

    def test_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            SparseTensor([(0, 0, 0, 0)], np.zeros((2, 1)))

    def test_index_property(self, rng):
        coords = np.unique(np.abs(rng.integers(-20, 20, size=(100, 4))), axis=0)
        t = SparseTensor(coords, np.zeros((coords.shape[0], 1)))
        for i in (0, len(coords) // 2, len(coords) - 1):
            assert t.lookup(coords[i]).tolist() == [i]

    def test_lookup(self, rng):
        coords = np.unique(rng.integers(-30, 30, size=(300, 4)), axis=0)
        coords[:, 0] = 0
        coords = np.unique(coords, axis=0)
        t = SparseTensor(coords, np.zeros((coords.shape[0], 1)))
        rows = t.lookup(coords)
        assert np.array_equal(rows, np.arange(coords.shape[0]))
        absent = coords.copy()
        absent[:, 1] += 1000
        assert (t.lookup(absent) == -1).all()
        # out-of-bounds probes miss instead of raising
        far = coords.copy()
        far[:, 1] = 2 ** 15
        assert (t.lookup(far) == -1).all()


class TestAccumulate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unweighted_paths_match_fancy_add(self, dtype, rng):
        # lists covering every row in order, every row out of order, most rows
        # and few rows: all gathered, added and scattered; the ascending ones
        # again with ascending=True, where a list that covers every row adds in place
        n_out, n_x = 40, 60
        lists = [np.arange(n_out), rng.permutation(n_out),
                 np.sort(rng.choice(n_out, 30, replace=False)),
                 np.sort(rng.choice(n_out, 5, replace=False)), np.zeros(0, np.int64)]
        x = rng.normal(size=(n_x, 3)).astype(dtype)
        for ascending in (False, True):
            dst_rows = [d for d in lists + lists[::-1]
                        if not ascending or (np.diff(d) > 0).all()]
            src_rows = [rng.integers(0, n_x, d.shape[0]) for d in dst_rows]
            out = np.zeros((n_out, 3), dtype)
            core._accumulate(out, x, src_rows, dst_rows, ascending=ascending)
            expected = np.zeros((n_out, 3), dtype)
            for src, dst in zip(src_rows, dst_rows):
                expected[dst] += x[src]
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 16])
    def test_weighted_matches_per_list_product(self, channels, dtype, rng):
        # every row in order and out of order, about 90%, 50% and 5% of the
        # rows, and none; 300 rows take two product blocks; the ascending
        # lists again with ascending=True
        n_out, n_x = 300, 400
        lists = [np.arange(n_out), rng.permutation(n_out),
                 *(np.sort(rng.choice(n_out, k, replace=False)) for k in (270, 150, 15)),
                 np.zeros(0, np.int64)]
        x = rng.normal(size=(n_x, channels)).astype(dtype)
        for ascending in (False, True):
            dst_rows = [d for d in lists if not ascending or (np.diff(d) > 0).all()]
            src_rows = [rng.integers(0, n_x, d.shape[0]) for d in dst_rows]
            weights = rng.normal(size=(len(dst_rows), channels, channels)).astype(dtype)
            out = np.zeros((n_out, channels), dtype)
            core._accumulate(out, x, src_rows, dst_rows, weights, ascending)
            expected = np.zeros((n_out, channels), dtype)
            for o, (src, dst) in enumerate(zip(src_rows, dst_rows)):
                if dst.shape[0]:
                    expected[dst] += blocked_product(x[src], weights[o])
            assert out.tobytes() == expected.tobytes()

    def test_empty_out_is_left_alone(self):
        out = np.zeros((0, 2))
        core._accumulate(out, np.ones((3, 2)), [np.zeros(0, np.int64)], [np.zeros(0, np.int64)])
        assert out.shape == (0, 2)


class TestShiftSum:
    """The dense-box primitive against ``_accumulate`` over ``probe_keys``
    pairs of the same moves, byte for byte."""

    KERNEL = list(itertools.product(range(-1, 2), range(-1, 2), range(-2, 3)))
    # moves along x, then y, then z, over windows of their own
    AXES = [[tuple(d * (a == axis) for a in range(3)) for d in window]
            for axis, window in enumerate((range(-2, 2), range(-1, 3), range(-2, 3)))]

    @staticmethod
    def scene(rng, name):
        """Coordinates, in row order, that fill at least half of their box."""
        if name == "one-voxel":
            return np.array([[0, 7, -3, 12]])
        coords = box_coords((4, 5, 6), 2 if name == "two-batches" else 1,
                            rng.integers(-30, 30, size=3))
        # 70% of the voxels, and both corners so the box stays the full box
        keep = rng.random(coords.shape[0]) < 0.7
        keep[[0, -1]] = True
        coords = coords[keep]
        if name != "key-order":
            coords = coords[rng.permutation(coords.shape[0])]
        return coords

    @staticmethod
    def pair_sum(t, values, passes, weights):
        """The passes on pairs: pass k's targets are the set's keys moved by
        every move of the passes after it."""
        targets = [t._sorted_keys]
        for moves in passes[:0:-1]:
            at = core._unpack_keys(targets[0])
            targets.insert(0, np.unique(np.concatenate(
                [pack_keys(at + (0, *move)) for move in moves])))
        x, src_keys = values[t._order], t._sorted_keys
        for moves, dst_keys in zip(passes, targets):
            pairs = [core.probe_keys(dst_keys, src_keys, move) for move in moves]
            out = np.zeros((dst_keys.shape[0], x.shape[1] if weights is None
                            else weights.shape[2]), x.dtype)
            core._accumulate(out, x, [src for _, src in pairs], [dst for dst, _ in pairs],
                             weights)
            x, src_keys = out, dst_keys
        rows = np.empty_like(x)
        rows[t._order] = x
        return rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chained", [False, True])
    # one voxel makes one-pair lists: one row of a 256-row product on either side
    @pytest.mark.parametrize("name,weighted", [
        (name, weighted) for name in ("key-order", "permuted", "two-batches", "one-voxel")
        for weighted in (False, True)])
    def test_bits_equal_pairs(self, name, weighted, chained, dtype, rng):
        coords = self.scene(rng, name)
        passes = self.AXES if chained else [self.KERNEL]
        pad = max(abs(d) for moves in passes for move in moves for d in move)
        box = dense_box(coords, pad)
        assert box is not None
        t = SparseTensor(coords, rng.normal(size=(coords.shape[0], 4)).astype(dtype))
        values = t.features.copy()
        values[1::5] = -0.0
        weights = None
        if weighted:
            # weights[o] multiplies move o of every pass
            weights = rng.normal(size=(max(map(len, passes)), 4, 4)).astype(dtype)
        got = core._shift_sum(values, box, [np.array(moves) for moves in passes], weights)
        assert got.tobytes() == self.pair_sum(t, values, passes, weights).tobytes()


class TestDilateKeys:
    """``dilate_keys`` sorts and drops repeats: the output is ``np.unique``'s."""

    @staticmethod
    def unique_union(keys, axis, lo, hi):
        shift = core.KEY_XYZ_SHIFTS[axis]
        field = (keys >> shift) & (core.KEY_FIELD - 1)
        moved = [keys[(field + d >= 0) & (field + d < core.KEY_FIELD)] + (d << shift)
                 for d in range(lo, hi + 1)]
        return np.unique(np.concatenate(moved))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("lo,hi", [(0, 0), (-1, 1), (-2, 1), (-3, 3)])
    def test_equals_unique(self, rng, axis, lo, hi):
        # neighbouring keys overlap when moved, so the union holds duplicates
        coords = rng.integers(-4, 4, size=(300, 4))
        coords[:, 0] = rng.integers(0, 2, size=300)
        keys = np.unique(pack_keys(coords))
        got = core.dilate_keys(keys, axis, lo, hi)
        want = self.unique_union(keys, axis, lo, hi)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if hi > lo:
            assert got.shape[0] < keys.shape[0] * (hi - lo + 1)

    def test_unsorted_input(self, rng):
        keys = pack_keys(np.unique(rng.integers(0, 6, size=(100, 4)), axis=0))
        shuffled = keys[rng.permutation(keys.shape[0])]
        assert np.array_equal(core.dilate_keys(shuffled, 1, -1, 2),
                              self.unique_union(keys, 1, -1, 2))

    def test_empty(self):
        got = core.dilate_keys(np.zeros(0, np.int64), 0, -1, 1)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_moves_that_leave_the_box_are_dropped(self):
        edge = core.COORD_BOUND
        keys = np.sort(pack_keys([(0, -edge, 0, edge - 1), (0, edge - 1, 5, -edge),
                                  (1, 0, -edge, 0)]))
        for axis in (0, 1, 2):
            got = core.dilate_keys(keys, axis, -2, 2)
            want = self.unique_union(keys, axis, -2, 2)
            assert np.array_equal(got, want)
            # on every axis some key sits at its field's end and loses two moves
            assert got.shape[0] < 5 * keys.shape[0]
            assert np.array_equal(core.pack_keys(core._unpack_keys(got)), got)


class TestDenseBox:
    @staticmethod
    def shifted_box(rng, shape, batches=1):
        return box_coords(shape, batches, rng.integers(-50, 50, size=3))

    def test_half_full_takes_the_box(self, rng):
        coords = self.shifted_box(rng, (4, 3, 2), batches=2)
        keep = np.sort(rng.permutation(coords.shape[0])[: coords.shape[0] // 2])
        # keep both corners so the bounding box stays the full box
        keep[0], keep[-1] = 0, coords.shape[0] - 1
        keep = np.unique(keep)
        coords = coords[keep]
        assert 2 * coords.shape[0] >= 48
        box = dense_box(coords, pad=1)
        assert box.shape == (2, 5, 4, 3)
        first = coords.min(axis=0)
        assert np.array_equal(box.cells, np.ravel_multi_index((coords - first).T, box.shape))

    def test_rows_in_key_order_have_ascending_cells(self, rng):
        coords = self.shifted_box(rng, (3, 4, 5), batches=2)
        coords = coords[np.argsort(pack_keys(coords))]
        box = dense_box(coords, pad=2)
        assert (np.diff(box.cells) > 0).all()

    def test_below_half_is_none(self, rng):
        coords = self.shifted_box(rng, (4, 4, 4))
        assert dense_box(coords[:32]) is not None
        corners = coords[[0, 63]]
        assert dense_box(np.concatenate([corners, coords[1:31]])) is not None
        assert dense_box(np.concatenate([corners, coords[1:30]])) is None
        assert dense_box(np.zeros((0, 4), np.int64)) is None

    def test_far_corners_do_not_overflow(self):
        edge = core.COORD_BOUND
        coords = np.array([(0, -edge, -edge, -edge), (65535, edge - 1, edge - 1, edge - 1)])
        assert dense_box(coords) is None

    def test_sparse_set_allocates_nothing_of_its_size(self, rng):
        coords = rng.integers(-1000, 1000, size=(20000, 4))
        coords[:, 0] = 0
        tracemalloc.start()
        try:
            assert dense_box(coords, pad=1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 < coords.nbytes


class TestVoxelize:
    def test_two_points_one_voxel_mean(self):
        cloud = PointCloud(
            np.array([[0.01, 0.02, 0.03], [0.04, 0.01, 0.02]]),
            np.array([[1.0], [3.0]]),
        )
        t = voxelize(cloud, 0.05)
        assert t.num_voxels == 1
        assert tuple(t.coords[0]) == (0, 0, 0, 0)
        np.testing.assert_allclose(t.features, [[2.0]])

    def test_negative_point_floors(self):
        t = voxelize(PointCloud(np.array([[-0.01, 0.0, 0.0]]), np.ones((1, 1))), 0.05)
        assert tuple(t.coords[0]) == (0, -1, 0, 0)

    def test_random_cube_matches_regroup_oracle(self, rng):
        points = rng.uniform(-1.0, 1.0, size=(1000, 3))
        attrs = rng.uniform(0.0, 2.0, size=(1000, 2))
        t = voxelize(PointCloud(points, attrs), 0.05, dtype=np.float64)
        expected = regroup_voxels(points, attrs, 0.05)
        assert t.num_voxels == len(expected)
        for coord, feats in zip(t.coords, t.features):
            key = (int(coord[1]), int(coord[2]), int(coord[3]))
            np.testing.assert_allclose(feats, expected[key], atol=1e-12)
        # count-weighted mass is preserved
        counts = {
            key: sum(
                1
                for p in points
                if tuple(int(np.floor(v / 0.05)) for v in p) == key
            )
            for key in expected
        }
        mass = sum(
            t.features[i] * counts[(int(c[1]), int(c[2]), int(c[3]))]
            for i, c in enumerate(t.coords)
        )
        np.testing.assert_allclose(mass, attrs.sum(axis=0), rtol=1e-12)

    def test_idempotent_on_voxel_centers(self, rng):
        coords = np.unique(rng.integers(-20, 20, size=(200, 3)), axis=0)
        centers = (coords + 0.5) * 0.05
        t = voxelize(PointCloud(centers, np.ones((coords.shape[0], 1))), 0.05)
        assert np.array_equal(np.sort(t.coords[:, 1:], axis=0), np.sort(coords, axis=0))

    def test_empty_cloud(self):
        t = voxelize(PointCloud(np.zeros((0, 3)), np.zeros((0, 1))), 0.05)
        assert t.num_voxels == 0
        assert t.coords.shape == (0, 4) and t.features.shape == (0, 1)
        assert t.lookup(np.zeros((1, 4), dtype=np.int64)).tolist() == [-1]

    def test_means_bits_equal_sequential_adds(self, rng):
        # each voxel adds its points in row order from 0.0, as np.add.at does
        points = rng.uniform(-1, 1, size=(2000, 3))
        attrs = rng.normal(size=(2000, 3))
        t = voxelize(PointCloud(points, attrs), 0.1, dtype=np.float64)
        rows = np.searchsorted(t.keys, pack_keys(
            np.concatenate([np.zeros((2000, 1), np.int64),
                            np.floor(points / 0.1).astype(np.int64)], axis=1)))
        sums = np.zeros((t.num_voxels, 3))
        np.add.at(sums, rows, attrs)
        means = sums / np.bincount(rows)[:, None]
        assert t.features.tobytes() == means.tobytes()

    def test_no_attribute_columns(self, rng):
        points = rng.uniform(-1, 1, size=(100, 3))
        t = voxelize(PointCloud(points, np.zeros((100, 0))), 0.5)
        assert t.num_voxels > 1 and t.features.shape == (t.num_voxels, 0)
        empty = voxelize(PointCloud(np.zeros((0, 3)), np.zeros((0, 0))), 0.5)
        assert empty.coords.shape == (0, 4) and empty.features.shape == (0, 0)

    def test_key_cache_equals_a_fresh_tensor(self, rng):
        # voxelize reuses its sorted unique keys instead of packing and sorting again
        points = rng.uniform(-1, 1, size=(500, 3))
        t = voxelize(PointCloud(points, rng.uniform(size=(500, 2))), 0.1)
        fresh = SparseTensor(t.coords, t.features)
        for name in ("keys", "_order", "_sorted_keys"):
            a, b = getattr(t, name), getattr(fresh, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_out_of_bounds_point(self):
        with pytest.raises(BoundsError):
            voxelize(PointCloud(np.array([[1700.0, 0, 0]]), np.ones((1, 1))), 0.05)

    def test_invalid_voxel_size(self):
        for size in (0.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                voxelize(PointCloud(np.array([[0.0, 0, 0]]), np.ones((1, 1))), size)

    def test_rows_sorted_by_key(self, rng):
        points = rng.uniform(-1, 1, size=(300, 3))
        t = voxelize(PointCloud(points, np.ones((300, 1))), 0.1)
        assert (np.diff(pack_keys(t.coords)) > 0).all()

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.inf, 0, 0]]), np.ones((1, 1)))
