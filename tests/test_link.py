import numpy as np
import pytest

from link3d import (
    ConfigError,
    KernelGenerator,
    LinKConfig,
    SparseTensor,
    anchored_xyz,
    count_dense_kernel_params,
    count_generator_params,
    generate_kernel,
    link,
    link_backward,
    link_forward,
    link_oracle,
    partition_blocks,
    push_proxies,
)
from link3d.verify import finite_difference, random_scene, relative_error
from conftest import box_coords
from oracles import block_regroup, neighbor_window, neighborhood_rows


def make_generator(rng, channels, groups=1, mode="pure", s=3, r=2):
    return KernelGenerator.create(
        channels, groups=groups, mode=mode, kernel_extent=s * r, rng=rng
    )


class TestGenerateKernel:
    def test_zero_coordinate_pure(self, rng):
        gen = make_generator(rng, 4)
        k_cos, k_sin = generate_kernel(gen, np.zeros((1, 3), dtype=np.int64))
        np.testing.assert_array_equal(k_cos, np.ones((1, 4)))
        np.testing.assert_array_equal(k_sin, np.zeros((1, 4)))

    def test_zero_coordinate_augmented(self, rng):
        gen = make_generator(rng, 4, mode="augmented")
        k_cos, k_sin = generate_kernel(gen, np.zeros((1, 3), dtype=np.int64))
        np.testing.assert_array_equal(k_cos, np.ones((1, 4)))
        np.testing.assert_array_equal(k_sin, np.zeros((1, 4)))

    def test_pythagorean_identity(self, rng):
        gen = make_generator(rng, 6, groups=2)
        coords = rng.integers(-50, 50, size=(500, 3))
        k_cos, k_sin = generate_kernel(gen, coords)
        np.testing.assert_allclose(k_cos ** 2 + k_sin ** 2, 1.0, atol=1e-12)

    def test_group_tiling_pattern(self, rng):
        gen = make_generator(rng, 4, groups=2)
        coords = rng.integers(-10, 10, size=(7, 3))
        k_cos, _ = generate_kernel(gen, coords)
        # two generated channels (a, b) repeated as [a, b, a, b]
        by_hand = np.cos(coords.astype(np.float64) @ gen.weight.T)
        np.testing.assert_array_equal(k_cos[:, :2], by_hand)
        np.testing.assert_array_equal(k_cos[:, 2:], by_hand)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ConfigError):
            KernelGenerator.create(5, groups=2)

    def test_pure_mode_pins_frequency(self, rng):
        gen = make_generator(rng, 4)
        with pytest.raises(ConfigError):
            KernelGenerator(
                weight=gen.weight,
                frequency=np.full(4, 2.0),
                mode="pure",
                groups=1,
                channels=4,
            )

    def test_frequency_must_be_positive(self, rng):
        gen = make_generator(rng, 4)
        with pytest.raises(ConfigError):
            KernelGenerator(
                weight=gen.weight,
                frequency=np.array([1.0, -0.5, 1.0, 1.0]),
                mode="augmented",
                groups=1,
                channels=4,
            )


class TestKernelIdentities:
    def test_sum_to_product_10k_pairs(self, rng):
        gen = make_generator(rng, 8, groups=2)
        a = rng.integers(-60, 60, size=(10_000, 3))
        b = rng.integers(-60, 60, size=(10_000, 3))
        (ca, sa), (cb, sb) = generate_kernel(gen, a), generate_kernel(gen, b)
        product_form = ca * cb + sa * sb
        direct = np.tile(
            np.cos((a - b).astype(np.float64) @ gen.weight.T), (1, gen.groups)
        )
        assert np.abs(product_form - direct).max() <= 1e-12

    def test_offset_purity_under_translation(self, rng):
        gen = make_generator(rng, 4)
        p = rng.integers(-30, 30, size=(2000, 3))
        x = rng.integers(-30, 30, size=(2000, 3))
        shift = rng.integers(-40, 40, size=(2000, 3))
        (cp, sp), (cx, sx) = generate_kernel(gen, p), generate_kernel(gen, x)
        (cps, sps), (cxs, sxs) = generate_kernel(gen, p + shift), generate_kernel(gen, x + shift)
        assert np.abs((cp * cx + sp * sx) - (cps * cxs + sps * sxs)).max() <= 1e-12


class TestPartition:
    def test_floor_block_assignment(self):
        t = SparseTensor([(0, 7, 2, -1)], np.ones((1, 1)))
        part = partition_blocks(t, 3)
        assert tuple(part.block_coords[0]) == (0, 2, 0, -1)

    def test_block_size_one_is_per_voxel(self, rng):
        t = random_scene(rng, 100, 10, 1)
        part = partition_blocks(t, 1)
        assert part.num_blocks == t.num_voxels
        assert (part.populations == 1).all()

    def test_random_against_regroup_oracle(self, rng):
        t = random_scene(rng, 500, 20, 1, batches=2)
        part = partition_blocks(t, 4)
        expected = block_regroup(t.coords, 4)
        assert part.num_blocks == len(expected)
        seen = np.zeros(t.num_voxels, dtype=bool)
        members = np.split(part.row_order, part.segment_starts[1:])
        for b in range(part.num_blocks):
            rows = members[b]
            key = tuple(int(v) for v in part.block_coords[b])
            assert sorted(rows.tolist()) == expected[key]
            assert not seen[rows].any()
            seen[rows] = True
        assert seen.all()

    def test_bad_block_size(self, rng):
        with pytest.raises(ConfigError):
            partition_blocks(random_scene(rng, 5, 4, 1), 0)


class TestNeighborWindow:
    def test_odd_symmetric(self):
        assert link.neighbor_window(3) == (-1, 1)

    def test_even_floor_centered(self):
        assert link.neighbor_window(2) == (-1, 0)

    def test_r1_is_self(self):
        assert link.neighbor_window(1) == (0, 0)


class TestPushGatherPull:
    def test_push_single_voxel(self, rng):
        t = SparseTensor([(0, 3, 1, 2)], np.full((1, 4), 1.0))
        gen = make_generator(rng, 4)
        k_cos, k_sin = generate_kernel(gen, anchored_xyz(t))
        part = partition_blocks(t, 3)
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        np.testing.assert_array_equal(proxies, np.concatenate([k_cos, k_sin], axis=1))

    def test_push_two_voxels_hand_sum(self, rng):
        t = SparseTensor(
            [(0, 0, 0, 0), (0, 1, 0, 0)], np.array([[2.0], [3.0]])
        )
        gen = make_generator(rng, 1)
        part = partition_blocks(t, 2)
        coords = anchored_xyz(t)
        k_cos, k_sin = generate_kernel(gen, coords)
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        phases = coords.astype(np.float64) @ gen.weight.T
        expected = np.cos(phases[0]) * 2.0 + np.cos(phases[1]) * 3.0
        np.testing.assert_allclose(proxies[0, :1], expected, atol=1e-15)

    def test_push_matches_per_block_loop(self, rng):
        t = random_scene(rng, 300, 16, 3)
        gen = make_generator(rng, 3, s=4)
        part = partition_blocks(t, 4)
        k_cos, k_sin = generate_kernel(gen, anchored_xyz(t))
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        members = np.split(part.row_order, part.segment_starts[1:])
        for b in range(part.num_blocks):
            rows = members[b]
            np.testing.assert_allclose(
                proxies[b],
                sum(np.concatenate([k_cos[i], k_sin[i]]) * np.tile(t.features[i], 2)
                    for i in rows),
                atol=1e-12,
            )

    def test_gather_r1_is_own_proxy(self, rng):
        t = random_scene(rng, 200, 12, 2)
        gen = make_generator(rng, 2)
        part = partition_blocks(t, 3)
        k_cos, k_sin = generate_kernel(gen, anchored_xyz(t))
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        g_cos, _, count, _ = link._gather(part, proxies, 1)
        np.testing.assert_array_equal(g_cos, proxies[:, :2])
        np.testing.assert_array_equal(count, part.populations)

    def test_gather_isolated_block(self, rng):
        t = SparseTensor([(0, 0, 0, 0), (0, 1, 1, 0)], np.ones((2, 2)))
        gen = make_generator(rng, 2)
        part = partition_blocks(t, 2)
        k_cos, k_sin = generate_kernel(gen, anchored_xyz(t))
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        g_cos, _, count, _ = link._gather(part, proxies, 3)
        np.testing.assert_array_equal(g_cos, proxies[:, :2])
        assert count.tolist() == [2]

    def test_gather_matches_bruteforce_enumeration(self, rng):
        t = random_scene(rng, 400, 14, 2, batches=2)
        gen = make_generator(rng, 2)
        part = partition_blocks(t, 3)
        k_cos, k_sin = generate_kernel(gen, anchored_xyz(t))
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        g_cos, _, count, _ = link._gather(part, proxies, 3)
        support = neighborhood_rows(t.coords, 3, 3)
        for v in range(t.num_voxels):
            b = part.voxel_block[v]
            assert count[b] == len(support[v])
            np.testing.assert_allclose(
                g_cos[b],
                sum(k_cos[i] * t.features[i] for i in support[v]),
                atol=1e-12,
            )

    def test_anchor_is_each_batch_smallest_key_voxel(self, rng):
        # batches from 2^15 up pack into negative keys and sort first
        coords = np.unique(np.concatenate(
            [rng.integers([0, -9, -9, -9], [3, 9, 9, 9], size=(300, 4)),
             rng.integers([40000, -9, -9, -9], [40002, 9, 9, 9], size=(200, 4))]), axis=0)
        t = permuted(SparseTensor(coords, np.zeros((coords.shape[0], 1))), rng)
        expected = np.empty((t.num_voxels, 3), np.int64)
        for b in np.unique(t.coords[:, 0]):
            rows = np.flatnonzero(t.coords[:, 0] == b)
            anchor = t.coords[rows[np.argmin(t.keys[rows])], 1:]
            expected[rows] = t.coords[rows, 1:] - anchor
        assert np.array_equal(anchored_xyz(t), expected)

    def test_pull_two_voxels_closed_form(self, rng):
        # both voxels share one block; r = 1
        t = SparseTensor(
            [(0, 0, 0, 0), (0, 1, 0, 1)], np.array([[0.7], [-1.3]])
        )
        gen = make_generator(rng, 1, s=2, r=1)
        cfg = LinKConfig(2, 1, gen)
        out = link_forward(t, cfg)
        phases = (
            anchored_xyz(t).astype(np.float64) @ gen.weight.T
        ).reshape(-1)
        f_p, f_q = 0.7, -1.3
        expected_p = (f_p + np.cos(phases[0] - phases[1]) * f_q) / 2.0
        expected_q = (f_q + np.cos(phases[1] - phases[0]) * f_p) / 2.0
        np.testing.assert_allclose(
            out.features.reshape(-1), [expected_p, expected_q], atol=1e-14
        )


def corner_scene(rng, channels):
    """Two batches at the packable box's corners, s=1 block coordinates.

    Batch 0 reaches x = y = z = 2^15 - 1, so an unmasked x, y or z move past
    it would carry into the next field up, landing on batch 1's blocks at
    -2^15 or on batch 0's own neighbouring rows.
    """
    top = 2 ** 15 - 1
    bottom = -(2 ** 15)
    pts = [(0, top, top, top), (0, top, top, top - 1), (0, top - 1, top, top),
           (0, top, bottom, top), (0, top, top, bottom), (1, bottom, top, top),
           (1, bottom, bottom, bottom), (1, bottom + 1, bottom, bottom),
           (1, bottom, top, bottom)]
    near = random_scene(rng, 60, 6, 1).coords
    near[:, 1:] += top - 2
    coords = np.unique(np.concatenate([np.array(pts), near]), axis=0)
    return SparseTensor(coords, rng.normal(size=(coords.shape[0], channels)))


def block_window_sums(part, values, r):
    """Per-block sums of ``values`` over the r-window, by dict enumeration."""
    index = {tuple(int(v) for v in bc): i for i, bc in enumerate(part.block_coords)}
    out = np.zeros_like(values)
    for i, (b, x, y, z) in enumerate(part.block_coords):
        for dx in neighbor_window(r):
            for dy in neighbor_window(r):
                for dz in neighbor_window(r):
                    j = index.get((int(b), int(x) + dx, int(y) + dy, int(z) + dz))
                    if j is not None:
                        out[i] += values[j]
    return out


def pushed(t, s, rng):
    part = partition_blocks(t, s)
    k_cos, k_sin = generate_kernel(make_generator(rng, t.num_channels), anchored_xyz(t))
    return part, push_proxies(part, t.features, k_cos, k_sin)


class TestSeparableGather:
    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_matches_block_enumeration(self, s, r):
        rng = np.random.default_rng(10 * s + r)
        t = random_scene(rng, 500, 4 * s + 6, 2, batches=2)
        part, proxies = pushed(t, s, rng)
        g_cos, g_sin, count, _ = link._gather(part, proxies, r)
        np.testing.assert_allclose(
            np.concatenate([g_cos, g_sin], axis=1), block_window_sums(part, proxies, r),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_array_equal(count, block_window_sums(part, part.populations, r))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_corner_of_packable_box(self, r, rng):
        t = corner_scene(rng, 2)
        part, proxies = pushed(t, 1, rng)
        g_cos, _, count, _ = link._gather(part, proxies, r)
        np.testing.assert_allclose(
            g_cos, block_window_sums(part, proxies[:, :2], r), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(count, block_window_sums(part, part.populations, r))

    @pytest.mark.parametrize("s,r,corner", [(1, 2, True), (3, 3, False),
                                            (2, 4, False), (3, 5, False)])
    def test_adjoint_identity(self, s, r, corner, rng):
        t = corner_scene(rng, 1) if corner else random_scene(rng, 600, 24, 1, batches=2)
        part, proxies = pushed(t, s, rng)
        _, _, _, sets = link._gather(part, proxies, r)
        p = rng.normal(size=(part.num_blocks, 3))
        d = rng.normal(size=(part.num_blocks, 3))
        box = link._box_sum(p, sets)
        box_t = link._box_sum(d, sets, adjoint=True)
        lhs = float((box * d).sum())
        rhs = float((p * box_t).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
        np.testing.assert_allclose(box, block_window_sums(part, p, r), rtol=0, atol=1e-12)

    def test_dropped_offset_is_left_out(self, rng):
        t = random_scene(rng, 400, 14, 2)
        part, proxies = pushed(t, 3, rng)
        full_cos, _, full_count, _ = link._gather(part, proxies, 3)
        dropped_cos, _, dropped_count, _ = link._gather(
            part, proxies, 3, drop_offset=(0, 0, 1)
        )
        outside_cos, _, _, _ = link._gather(part, proxies, 3, drop_offset=(0, 0, 2))
        index = {tuple(bc): i for i, bc in enumerate(part.block_coords.tolist())}
        lost = np.zeros_like(full_cos)
        lost_count = np.zeros_like(full_count)
        for i, (b, x, y, z) in enumerate(part.block_coords.tolist()):
            j = index.get((b, x, y, z + 1))
            if j is not None:
                lost[i] = proxies[j, :2]
                lost_count[i] = part.populations[j]
        np.testing.assert_allclose(dropped_cos, full_cos - lost, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(dropped_count, full_count - lost_count)
        assert lost_count.any()
        np.testing.assert_array_equal(outside_cos, full_cos)

    @pytest.mark.parametrize("s,r,corner", [(1, 2, True), (1, 4, True), (3, 3, False),
                                            (2, 4, False), (3, 5, False), (7, 2, False)])
    def test_box_sum_bits_match_per_offset_formula(self, s, r, corner, rng):
        t = corner_scene(rng, 1) if corner else random_scene(rng, 900, 30, 1, batches=2)
        part, _ = pushed(t, s, rng)
        keys = part.block_keys
        lo, hi = link.neighbor_window(r)
        plans = [link._key_plan(keys, lo, hi), link._grid_plan(part.block_coords, lo, hi)]
        plans = [p for p in plans if p is not None]
        for dtype in (np.float32, np.float64):
            v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
            ref = reference_box_sum(v, keys, lo, hi).tobytes()
            ref_t = reference_box_sum(v, keys, lo, hi, adjoint=True).tobytes()
            for sets in plans:
                assert link._box_sum(v, sets).tobytes() == ref
                assert link._box_sum(v, sets, adjoint=True).tobytes() == ref_t


def reference_box_sum(values, keys, lo, hi, adjoint=False):
    """The per-offset formula the planned box sum replaced: each pass probes
    its r offsets in ascending order and adds ``out[rows] += values[src]``;
    the adjoint runs the passes z, y, x over the reflected window."""
    along_z = link.dilate_keys(keys, 2, lo, hi)
    along_zy = link.dilate_keys(along_z, 1, lo, hi)
    passes = [(along_zy, keys, 0), (along_z, along_zy, 1), (keys, along_z, 2)]
    if adjoint:
        passes = [(src, dst, axis) for dst, src, axis in reversed(passes)]
        lo, hi = -hi, -lo
    for dst, src, axis in passes:
        out = np.zeros((dst.shape[0], values.shape[1]), values.dtype)
        offset = [0, 0, 0]
        for d in range(lo, hi + 1):
            offset[axis] = d
            rows, cols = link.probe_keys(dst, src, offset)
            out[rows] += values[cols]
        values = out
    return values


def dense_scene(rng, edge, batches, corner=None):
    """Row-permuted boxes of ``edge`` voxels per side (one edge, or one per
    axis), one per batch, each with 30% of its voxels dropped; ``corner``
    "top" or "bottom" puts them at that corner of the packable box."""
    edge = np.broadcast_to(edge, 3)
    axes = np.meshgrid(*(np.arange(e) for e in edge), indexing="ij")
    cube = np.stack(axes, -1).reshape(-1, 3)
    start = {None: rng.integers(-20, 20, size=3), "top": 2 ** 15 - edge,
             "bottom": -(2 ** 15)}[corner]
    parts = []
    for b in range(batches):
        kept = cube[rng.random(cube.shape[0]) < 0.7] + start
        parts.append(np.concatenate([np.full((kept.shape[0], 1), b), kept], axis=1))
    coords = np.concatenate(parts)
    return permuted(SparseTensor(coords, rng.normal(size=(coords.shape[0], 2))), rng)


class TestGridPlan:
    """The dense block grid against the sorted-key plan, bit for bit."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_grid_bits_equal_key_plan(self, s, r, monkeypatch):
        rng = np.random.default_rng(100 * s + r)
        batches = 1 + (s + r) % 3
        scenes = [dense_scene(rng, 2 * s + 5, batches)]
        if s == 1:
            scenes += [dense_scene(rng, 6, 2, "top"), dense_scene(rng, 6, 1, "bottom")]
        lo, hi = link.neighbor_window(r)
        for t in scenes:
            part = partition_blocks(t, s)
            grid = link._grid_plan(part.block_coords, lo, hi)
            assert isinstance(grid, link.BlockGrid)
            keys = link._key_plan(part.block_keys, lo, hi)
            for dtype in (np.float32, np.float64):
                v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
                for adjoint in (False, True):
                    assert (link._box_sum(v, grid, adjoint).tobytes()
                            == link._box_sum(v, keys, adjoint).tobytes())
                proxies = rng.normal(size=(part.num_blocks, 4)).astype(dtype)
                for drop in (None, (0, 0, hi), (lo, 0, 0)):
                    on_grid = link._gather(part, proxies, r, drop_offset=drop)
                    with monkeypatch.context() as m:
                        m.setattr(link, "_grid_plan", lambda *args: None)
                        on_keys = link._gather(part, proxies, r, drop_offset=drop)
                    assert isinstance(on_grid[3], link.BlockGrid)
                    assert isinstance(on_keys[3], link.GatherSets)
                    for a, b in zip(on_grid[:3], on_keys[:3]):
                        assert a.tobytes() == b.tobytes()

    def test_choice_reads_occupancy(self, rng):
        dense = dense_scene(rng, 11, 2)
        far = dense.coords.copy()
        far[far[:, 0] == 1, 1] += 3000   # batch 1 moves far along x
        sparse = random_scene(rng, 300, 60, 1)
        for t, plan in ((dense, link.BlockGrid),
                        (SparseTensor(far, dense.features), link.GatherSets),
                        (sparse, link.GatherSets),
                        (corner_scene(rng, 1), link.GatherSets)):
            part, proxies = pushed(t, 3, rng)
            assert isinstance(link._gather(part, proxies, 3)[3], plan)
        top, bottom = 2 ** 15 - 1, -(2 ** 15)
        for coords, plan in (
            # 2 blocks in a box of 4 fill half of it; in a box of 5, less
            ([(0, 0, 0, 0), (0, 3, 0, 0)], link.BlockGrid),
            ([(0, 0, 0, 0), (0, 4, 0, 0)], link.GatherSets),
            # 2^16 batches by 2^48 cells: 2^64 wraps to 0 in int64
            ([(0, bottom, bottom, bottom), (2 ** 16 - 1, top, top, top)], link.GatherSets),
        ):
            part, proxies = pushed(SparseTensor(coords, np.ones((2, 1))), 1, rng)
            assert isinstance(link._gather(part, proxies, 2)[3], plan)

    def test_first_field_counts_x_pass_targets(self, rng):
        t = dense_scene(rng, 12, 1)
        part, proxies = pushed(t, 3, rng)
        grid = link._gather(part, proxies, 5)[3]
        assert grid[0].shape[0] == int(np.prod(grid.box.shape))
        assert int(grid.occupied.sum()) == part.num_blocks

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("r", [7, 9, 12])
    def test_window_wider_than_box(self, width, s, r):
        # a slab ``width`` blocks of voxels thick along one axis and 5 along
        # the others: the window's shifts reach past the box along the slab's
        # axis, and at r = 12 along every axis
        rng = np.random.default_rng(100 * s + 10 * r + width)
        edge = [5 * s] * 3
        edge[width - 1] = width * s
        t = dense_scene(rng, edge, 2)
        part, proxies = pushed(t, s, rng)
        grid = link._gather(part, proxies, r)[3]
        assert isinstance(grid, link.BlockGrid)
        # an unaligned start spreads the slab over one more block
        assert np.ptp(part.block_coords[:, width]) + 1 <= width + 1
        keys = link._key_plan(part.block_keys, *link.neighbor_window(r))
        for dtype in (np.float32, np.float64):
            v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
            for adjoint in (False, True):
                assert (link._box_sum(v, grid, adjoint).tobytes()
                        == link._box_sum(v, keys, adjoint).tobytes())
        if r == 7:
            cfg = LinKConfig(s, r, make_generator(rng, 2, 1, "pure", s, r))
            diff = link_forward(t, cfg).features - link_oracle(t, cfg).features
            assert np.abs(diff).max() <= 1e-12

    def test_window_far_wider_than_box(self, rng):
        # at s = 1, r = 41 the window reaches 20 blocks either way across a
        # box of 3: each shift of 3 or more is dropped, and the box is padded
        # by the longest one kept, not by the window's reach
        edge, batches = 3, 2
        coords = box_coords((edge,) * 3, batches, (5, -4, 9))
        t = permuted(SparseTensor(coords, rng.normal(size=(coords.shape[0], 2))), rng)
        part, proxies = pushed(t, 1, rng)
        grid = link._gather(part, proxies, 41)[3]
        assert isinstance(grid, link.BlockGrid)
        assert grid.occupied.shape[0] <= batches * (2 * edge) ** 3
        keys = link._key_plan(part.block_keys, *link.neighbor_window(41))
        for dtype in (np.float32, np.float64):
            v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
            for adjoint in (False, True):
                assert (link._box_sum(v, grid, adjoint).tobytes()
                        == link._box_sum(v, keys, adjoint).tobytes())


def push_loop(part, features, k_cos, k_sin):
    """Per-block proxies by an explicit loop: each block adds its members'
    ``[k_cos * f | k_sin * f]`` rows to +0.0 one at a time, in ascending row."""
    dtype = np.result_type(k_cos, features)
    out = np.zeros((part.num_blocks, 2 * features.shape[1]), dtype)
    for b, rows in enumerate(np.split(part.row_order, part.segment_starts[1:])):
        for i in np.sort(rows):
            out[b] += np.concatenate([k_cos[i] * features[i], k_sin[i] * features[i]])
    return out


def permuted(t, rng):
    """``t``'s voxels in a random row order."""
    order = rng.permutation(t.num_voxels)
    return SparseTensor(t.coords[order], t.features[order])


class TestPushSummationOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 3, 7])
    def test_push_bits_match_row_order_loop(self, dtype, s, rng):
        t = permuted(random_scene(rng, 1500, 3 * s + 6, 3, dtype), rng)
        part = partition_blocks(t, s)
        if s == 3:
            # blocks of 4..27 members are where a pairwise reduction adds in another order
            assert part.populations.max() >= 4
        k_cos, k_sin = generate_kernel(make_generator(rng, 3, s=s), anchored_xyz(t), dtype)
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        assert proxies.dtype == dtype
        assert proxies.tobytes() == push_loop(part, t.features, k_cos, k_sin).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_blocks(self, dtype, rng):
        # a 9^3 cube is 27 full s=3 blocks: every block fills all 27 slots
        axis = np.arange(9)
        xyz = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        coords = np.concatenate([np.zeros((xyz.shape[0], 1), np.int64), xyz], 1)
        t = permuted(SparseTensor(coords, rng.normal(size=(coords.shape[0], 2)).astype(dtype)),
                     rng)
        part = partition_blocks(t, 3)
        assert (part.populations == 27).all() and len(part.slot_rows) == 27
        k_cos, k_sin = generate_kernel(make_generator(rng, 2), anchored_xyz(t), dtype)
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        assert proxies.tobytes() == push_loop(part, t.features, k_cos, k_sin).tobytes()

    def test_single_voxel_blocks(self, rng):
        t = permuted(random_scene(rng, 300, 12, 2), rng)
        part = partition_blocks(t, 1)
        assert len(part.slot_rows) == 1
        k_cos, k_sin = generate_kernel(make_generator(rng, 2), anchored_xyz(t))
        proxies = push_proxies(part, t.features, k_cos, k_sin)
        assert proxies.tobytes() == push_loop(part, t.features, k_cos, k_sin).tobytes()

    def test_empty_scene(self, rng):
        t = SparseTensor(np.zeros((0, 4), np.int64), np.zeros((0, 3)))
        part = partition_blocks(t, 3)
        assert part.slot_rows == [] and part.pop_rank.shape == (0,)
        k = np.zeros((0, 3))
        proxies = push_proxies(part, t.features, k, k)
        assert proxies.shape == (0, 6)

    def test_slots_hold_members_in_rank_order(self, rng):
        t = permuted(random_scene(rng, 800, 14, 1, batches=2), rng)
        part = partition_blocks(t, 3)
        pops = part.populations
        assert len(set(pops.tolist())) > 3
        # ranks: descending population, ties in ascending block id
        by_rank = np.argsort(part.pop_rank)
        assert sorted(part.pop_rank.tolist()) == list(range(part.num_blocks))
        assert by_rank.tolist() == sorted(range(part.num_blocks), key=lambda b: (-pops[b], b))
        members = np.split(part.row_order, part.segment_starts[1:])
        assert len(part.slot_rows) == pops.max()
        for j, rows in enumerate(part.slot_rows):
            holders = [b for b in by_rank if pops[b] > j]
            assert rows.tolist() == [int(np.sort(members[b])[j]) for b in holders]
        # every row is in exactly one slot
        assert np.array_equal(np.sort(np.concatenate(part.slot_rows)), np.arange(t.num_voxels))


def whole_kernels(gen, coords, dtype):
    """Phase and group-tiled kernels by whole-array formulas."""
    x = np.asarray(coords)
    if gen.mode == "pure":
        phase = x.astype(np.float64) @ gen.weight.T
        if np.dtype(dtype) != np.float64:
            phase = (phase - 2 * np.pi * np.rint(phase / (2 * np.pi))).astype(dtype)
        k_cos, k_sin = np.cos(phase), np.sin(phase)
    else:
        phase = x.astype(dtype) @ gen.weight.astype(dtype).T
        scaled = gen.frequency.astype(dtype) * phase
        k_cos, k_sin = np.cos(scaled) + phase, np.sin(scaled) + phase
    return phase, np.tile(k_cos, (1, gen.groups)), np.tile(k_sin, (1, gen.groups))


def whole_pull(part, g_cos, g_sin, count, k_cos, k_sin):
    b = part.voxel_block
    out = g_cos[b] * k_cos + g_sin[b] * k_sin
    return out / count[b][:, None].astype(out.dtype)


def whole_backward(grad_out, t, cfg, state):
    """``link_backward`` by whole-array formulas around the library's push
    and adjoint box sum."""
    gen, b = cfg.generator, state.partition.voxel_block
    dtype = link._working_dtype(gen.mode, t.dtype)
    g = grad_out / state.count[b][:, None].astype(dtype)
    dg = push_proxies(state.partition, g, state.k_cos, state.k_sin)
    c = g.shape[1]
    dproxy = link._box_sum(dg, state.gather_sets, adjoint=True)
    dpc, dps = dproxy[:, :c], dproxy[:, c:]
    grad_features = (dpc[b] * state.k_cos + dps[b] * state.k_sin).astype(t.dtype)
    features = t.features.astype(dtype)
    dkc = g * state.g_cos[b] + dpc[b] * features
    dks = g * state.g_sin[b] + dps[b] * features
    n, gc = t.num_voxels, gen.gen_channels
    if gen.groups > 1:
        dkc = dkc.reshape(n, gen.groups, gc).sum(axis=1)
        dks = dks.reshape(n, gen.groups, gc).sum(axis=1)
    if gen.mode == "pure":
        dphase = -state.k_sin[:, :gc] * dkc + state.k_cos[:, :gc] * dks
        grad_frequency = np.zeros(gc)
    else:
        phase, freq = state.phase, gen.frequency.astype(dtype)
        s_, c_ = np.sin(freq * phase), np.cos(freq * phase)
        dphase = dkc * (1.0 - freq * s_) + dks * (1.0 + freq * c_)
        grad_frequency = (dkc * (-phase * s_) + dks * (phase * c_)).sum(axis=0).astype(np.float64)
    grad_weight = (dphase.T @ state.anchored_xyz.astype(dtype)).astype(np.float64)
    return grad_features, grad_weight, grad_frequency


def exact_scene(rng, n, channels, dtype):
    """``n`` distinct voxels of two batches, in a random row order."""
    cells = rng.choice(2 * 24 ** 3, size=n, replace=False)
    coords = np.stack([cells // 24 ** 3, *np.unravel_index(cells % 24 ** 3, (24,) * 3)], 1)
    return SparseTensor(coords, rng.normal(size=(n, channels)).astype(dtype))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


TILE = link.TILE_ROWS


class TestRowTiles:
    """The per-voxel chains run one row tile at a time, with the bits of the
    whole-array formulas at every tile boundary."""

    @pytest.mark.parametrize("n", [0, 1, 2, 100, TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    @pytest.mark.parametrize("mode,dtype,groups", [
        ("pure", np.float32, 1), ("pure", np.float64, 2),
        ("augmented", np.float32, 4), ("augmented", np.float64, 1),
    ])
    def test_bits_match_whole_array(self, n, mode, dtype, groups):
        rng = np.random.default_rng(n + 7 * groups)
        t = exact_scene(rng, n, 8, dtype)
        gen = make_generator(rng, 8, groups, mode, 3, 3)
        if mode == "augmented":
            gen.frequency = rng.uniform(0.5, 2.0, gen.gen_channels)
        cfg = LinKConfig(3, 3, gen)
        work = link._working_dtype(mode, dtype)
        coords = anchored_xyz(t)

        phase, k_cos, k_sin = link._kernel_parts(gen, coords, work)
        ref_phase, ref_cos, ref_sin = whole_kernels(gen, coords, work)
        assert same_bits(k_cos, ref_cos) and same_bits(k_sin, ref_sin)
        assert phase is None if mode == "pure" else same_bits(phase, ref_phase)

        part = partition_blocks(t, 3)
        proxies = push_proxies(part, t.features.astype(work), k_cos, k_sin)
        g_cos, g_sin, count, _ = link._gather(part, proxies, 3)
        ref_pull = whole_pull(part, g_cos, g_sin, count, k_cos, k_sin)
        assert same_bits(link.pull(part, g_cos, g_sin, count, k_cos, k_sin), ref_pull)
        out, state = link_forward(t, cfg, return_state=True)
        ref_out = ref_pull.astype(dtype)
        assert same_bits(out.features, ref_out)

        grad = rng.normal(size=t.features.shape).astype(dtype)
        got = link_backward(grad, t, cfg, state)
        for a, b in zip(got, whole_backward(grad, t, cfg, state)):
            assert same_bits(a, b)
        input_only = link_backward(grad, t, cfg, state, params=False)
        assert same_bits(input_only[0], got[0]) and input_only[1:] == (None, None)


class TestForwardOracleEquivalence:
    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    @pytest.mark.parametrize("s,r", [(1, 1), (3, 2), (7, 3), (2, 2)])
    def test_forward_equals_oracle(self, mode, s, r):
        rng = np.random.default_rng(s * 10 + r)
        channels = 4
        # augmented kernel values grow with the phase span, so scenes scale
        # with the kernel extent to keep the absolute tolerance meaningful
        extent = int(np.clip(2 * s * r + 2, 4, 40))
        t = random_scene(rng, 400, extent, channels)
        cfg = LinKConfig(s, r, make_generator(rng, channels, 2, mode, s, r))
        a = link_forward(t, cfg)
        b = link_oracle(t, cfg)
        assert np.abs(a.features - b.features).max() <= 1e-12

    def test_float32_tolerance(self, rng):
        t = random_scene(rng, 600, 20, 8, dtype=np.float32)
        cfg = LinKConfig(3, 3, make_generator(rng, 8, 2, "pure", 3, 3))
        a = link_forward(t, cfg)
        b = link_oracle(t, cfg)
        assert a.features.dtype == np.float32
        assert np.abs(a.features - b.features).max() <= 1e-5

    def test_float32_pure_wide_scene(self, rng):
        # clusters spread over ~2,400 voxels put anchored coordinates, and so
        # the phases, in the thousands; the reference sums cos(W(p - q)) f_q
        # in float64 from the small integer differences p - q
        centers = rng.integers(0, 2400, size=(12, 3))
        centers[0] = 0
        pts = centers[:, None, :] + rng.integers(0, 8, size=(12, 40, 3))
        coords = np.unique(pts.reshape(-1, 3), axis=0)
        coords = np.concatenate([np.zeros((coords.shape[0], 1), np.int64), coords], 1)
        feats = rng.normal(size=(coords.shape[0], 16)).astype(np.float32)
        t = SparseTensor(coords, feats)
        assert anchored_xyz(t).max() > 2000
        cfg = LinKConfig(3, 2, make_generator(rng, 16, 1, "pure", 3, 2))
        out = link_forward(t, cfg)
        ref = np.zeros(feats.shape)
        for v, rows in enumerate(neighborhood_rows(coords, 3, 2)):
            diff = (coords[v, 1:] - coords[rows, 1:]).astype(np.float64)
            ref[v] = (np.cos(diff @ cfg.generator.weight.T) * feats[rows]).mean(axis=0)
        assert out.features.dtype == np.float32
        assert np.abs(out.features - ref).max() <= 1e-5

    @pytest.mark.parametrize("s,r,channels", [(1, 2, 4), (3, 2, 8), (7, 3, 32)])
    def test_float32_augmented_rounds_once(self, s, r, channels):
        # augmented mode accumulates in float64 and rounds once, so both
        # float32 paths sit within half a float32 ulp of a float64 oracle
        rng = np.random.default_rng(100 * s + r)
        extent = int(np.clip(2 * s * r + 2, 4, 40))
        t = random_scene(rng, 600, extent, channels, dtype=np.float32)
        cfg = LinKConfig(s, r, make_generator(rng, channels, 2, "augmented", s, r))
        ref = link_oracle(t.with_features(t.features.astype(np.float64)), cfg).features
        half_ulp = 0.5 * np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
        out, state = link_forward(t, cfg, return_state=True)
        oracle = link_oracle(t, cfg)
        assert out.features.dtype == np.float32
        assert oracle.features.dtype == np.float32
        assert (np.abs(out.features - ref) <= half_ulp).all()
        assert (np.abs(oracle.features - ref) <= half_ulp).all()
        probe = rng.normal(size=t.features.shape).astype(np.float32)
        gf, _, _ = link_backward(probe, t, cfg, state)
        assert gf.dtype == np.float32

    def test_multibatch_independence(self, rng):
        # two batches aggregate independently even at identical coordinates
        t = random_scene(rng, 300, 12, 2, batches=2)
        cfg = LinKConfig(3, 2, make_generator(rng, 2))
        a = link_forward(t, cfg)
        b = link_oracle(t, cfg)
        assert np.abs(a.features - b.features).max() <= 1e-12


class TestInvariances:
    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    def test_single_voxel_identity_all_configs(self, mode, rng):
        feats = rng.normal(size=(1, 4))
        t = SparseTensor([(0, 5, -3, 9)], feats)
        for s in (1, 3, 7):
            for r in (1, 2, 3):
                cfg = LinKConfig(s, r, make_generator(rng, 4, 1, mode, s, r))
                out = link_forward(t, cfg)
                np.testing.assert_array_equal(out.features, feats)

    @pytest.mark.parametrize("s,r", [(3, 2), (7, 3), (4, 2)])
    def test_block_translation_bit_identical(self, s, r, rng):
        t = random_scene(rng, 300, 16, 4)
        cfg = LinKConfig(s, r, make_generator(rng, 4, 2, "pure", s, r))
        shift = np.array([3, -2, 5]) * s
        moved = t.coords.copy()
        moved[:, 1:] += shift
        out1 = link_forward(t, cfg)
        out2 = link_forward(SparseTensor(moved, t.features), cfg)
        assert np.array_equal(out1.features, out2.features)

    def test_forward_deterministic_repeat(self, rng):
        t = random_scene(rng, 500, 20, 8, dtype=np.float32)
        cfg = LinKConfig(3, 2, make_generator(rng, 8, 2))
        a = link_forward(t, cfg).features
        b = link_forward(t, cfg).features
        assert np.array_equal(a, b)

    def test_empty_scene(self, rng):
        t = SparseTensor(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 2)))
        cfg = LinKConfig(3, 2, make_generator(rng, 2))
        out = link_forward(t, cfg)
        assert out.num_voxels == 0

    def test_scene_at_coordinate_bound(self, rng):
        # neighbor probes past the packable box must be treated as misses;
        # block size 1 puts block coords right at the corner
        base = random_scene(rng, 200, 10, 2)
        coords = base.coords.copy()
        coords[:, 1:] += 2 ** 15 - 5  # max component becomes 2^15 - 1
        assert coords[:, 1:].max() == 2 ** 15 - 1
        t = SparseTensor(coords, base.features)
        cfg = LinKConfig(1, 3, make_generator(rng, 2, 1, "pure", 1, 3))
        a = link_forward(t, cfg)
        b = link_oracle(t, cfg)
        assert np.abs(a.features - b.features).max() <= 1e-12


def x_pass_reads(monkeypatch, t, cfg):
    """Proxy rows the gather's first (x) pass reads in one ``link_forward``,
    counted from the plan ``_gather`` returns: on the key plan its x pass's
    (dst, src) pairs, on the grid plan the cells holding a block that its
    shifts read from the cells of the padded box."""
    gather = link._gather
    plans = []

    def keep_plan(*args, **kwargs):
        out = gather(*args, **kwargs)
        plans.append(out[3])
        return out

    with monkeypatch.context() as m:
        m.setattr(link, "_gather", keep_plan)
        link_forward(t, cfg)
    (plan,) = plans
    if isinstance(plan, link.GatherSets):
        return sum(dst.shape[0] for dst in plan.passes[0][0])
    # cell c reads cell c + s, s = dx * ny * nz, where that lies in the box [0, n)
    held, n = plan.occupied, plan.occupied.shape[0]
    _, _, ny, nz = plan.box.shape
    shifts = (plan.passes[0][:, 0] * ny * nz).tolist()
    return sum(int(held[max(s, 0) : n + min(s, 0)].sum()) for s in shifts)


class TestCounters:
    def test_push_pull_independent_of_range(self, rng):
        t = random_scene(rng, 800, 20, 4)
        # one saved kernel row per voxel feeds both push and pull at any range
        for r in (1, 5):
            cfg = LinKConfig(3, r, make_generator(rng, 4, 1, "pure", 3, r))
            _, state = link_forward(t, cfg, return_state=True)
            for saved in (state.k_cos, state.k_sin):
                assert saved.shape[0] == t.num_voxels
            # the pure-mode backward reads no phase, so none is saved
            assert state.phase is None

    def test_gather_reads_bounded_by_r_cubed(self, rng, monkeypatch):
        t = random_scene(rng, 800, 20, 4)
        for r in (1, 3, 5):
            cfg = LinKConfig(3, r, make_generator(rng, 4, 1, "pure", 3, r))
            m = partition_blocks(t, 3).num_blocks
            assert x_pass_reads(monkeypatch, t, cfg) <= r ** 3 * m

    def test_gather_reads_grow_slower_than_r_cubed(self, rng, monkeypatch):
        # a fully occupied 21^3 cube is 7^3 blocks at s=3; enumerating block
        # pairs would read ~71x as many proxies at r=5 as at r=1
        axis = np.arange(21)
        xyz = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        coords = np.concatenate([np.zeros((xyz.shape[0], 1), np.int64), xyz], 1)
        t = SparseTensor(coords, rng.normal(size=(xyz.shape[0], 1)))
        reads = {}
        for r in (1, 5):
            cfg = LinKConfig(3, r, make_generator(rng, 1, 1, "pure", 3, r))
            reads[r] = x_pass_reads(monkeypatch, t, cfg)
        assert reads[1] == 7 ** 3
        assert reads[5] / reads[1] <= 10

    def test_oracle_pair_count_monotone_in_range(self, rng):
        # the oracle pairs every voxel with each voxel of its block neighborhood
        t = random_scene(rng, 500, 16, 2)
        counts = [sum(len(rows) for rows in neighborhood_rows(t.coords, 3, r))
                  for r in (1, 3, 5)]
        assert counts[0] < counts[1] < counts[2]


class TestParamCounts:
    def test_dense_21_cube(self):
        assert count_dense_kernel_params(21, 32, 64) == 18_966_528

    def test_dense_pointwise(self):
        assert count_dense_kernel_params(1, 17, 17) == 17 ** 2

    def test_dense_3_cube_by_hand(self):
        assert count_dense_kernel_params(3, 4, 4) == 432

    def test_generator_augmented_grouped(self, rng):
        gen = KernelGenerator.create(64, groups=2, mode="augmented", rng=rng)
        assert count_generator_params(gen) == 128

    def test_generator_pure_ungrouped(self, rng):
        gen = KernelGenerator.create(64, groups=1, mode="pure", rng=rng)
        assert count_generator_params(gen) == 192

    def test_independent_of_extent(self, rng):
        a = KernelGenerator.create(32, 2, "augmented", kernel_extent=3 * 2, rng=rng)
        b = KernelGenerator.create(32, 2, "augmented", kernel_extent=7 * 3, rng=rng)
        assert count_generator_params(a) == count_generator_params(b)


class TestBackward:
    def test_zero_grad(self, rng):
        t = random_scene(rng, 50, 10, 4)
        cfg = LinKConfig(3, 2, make_generator(rng, 4, 2))
        _, state = link_forward(t, cfg, return_state=True)
        gf, gw, gfr = link_backward(np.zeros_like(t.features), t, cfg, state)
        assert (gf == 0).all() and (gw == 0).all() and (gfr == 0).all()

    def test_grad_linearity(self, rng):
        t = random_scene(rng, 50, 10, 4)
        cfg = LinKConfig(3, 2, make_generator(rng, 4, 2))
        _, state = link_forward(t, cfg, return_state=True)
        g = rng.normal(size=t.features.shape)
        gf1, _, _ = link_backward(g, t, cfg, state)
        gf2, _, _ = link_backward(2 * g, t, cfg, state)
        np.testing.assert_allclose(gf2, 2 * gf1, atol=1e-12)

    def test_empty_scene(self, rng):
        t = SparseTensor(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4)))
        cfg = LinKConfig(3, 2, make_generator(rng, 4, 2))
        _, state = link_forward(t, cfg, return_state=True)
        gf, gw, gfr = link_backward(np.zeros((0, 4)), t, cfg, state)
        assert gf.shape == (0, 4)
        assert (gw == 0).all() and gw.shape == (2, 3)
        assert (gfr == 0).all()

    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    def test_single_voxel(self, mode, rng):
        t = SparseTensor([(0, 4, -2, 7)], rng.normal(size=(1, 4)))
        gen = make_generator(rng, 4, 2, mode, 3, 3)
        cfg = LinKConfig(3, 3, gen)
        probe = rng.normal(size=(1, 4))

        def loss():
            return float((link_forward(t, cfg).features * probe).sum())

        _, state = link_forward(t, cfg, return_state=True)
        gf, gw, gfr = link_backward(probe, t, cfg, state)
        # pure mode: the output is the input, so grad_weight is zero
        np.testing.assert_allclose(gf, finite_difference(loss, t.features), rtol=0, atol=1e-7)
        np.testing.assert_allclose(gw, finite_difference(loss, gen.weight), rtol=0, atol=1e-7)
        np.testing.assert_allclose(gfr, finite_difference(loss, gen.frequency), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    def test_input_only_equals_the_default(self, mode, dtype, rng):
        t = random_scene(rng, 300, 12, 4, dtype)
        cfg = LinKConfig(3, 2, make_generator(rng, 4, 2, mode))
        _, state = link_forward(t, cfg, return_state=True)
        g = rng.normal(size=t.features.shape).astype(dtype)
        gf, _, _ = link_backward(g, t, cfg, state)
        got, gw, gfr = link_backward(g, t, cfg, state, params=False)
        assert gw is None and gfr is None
        assert got.dtype == gf.dtype == dtype and got.tobytes() == gf.tobytes()

    def test_missing_state(self, rng):
        t = random_scene(rng, 10, 6, 2)
        cfg = LinKConfig(3, 2, make_generator(rng, 2))
        with pytest.raises(ConfigError):
            link_backward(np.zeros_like(t.features), t, cfg, None)

    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, mode, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 40, 8, 4)
        gen = make_generator(rng, 4, 2, mode, 2, 2)
        cfg = LinKConfig(2, 2, gen)
        probe = rng.normal(size=t.features.shape)

        def loss():
            return float((link_forward(t, cfg).features * probe).sum())

        _, state = link_forward(t, cfg, return_state=True)
        gf, gw, gfr = link_backward(probe, t, cfg, state)
        assert relative_error(finite_difference(loss, t.features), gf) <= 1e-4
        assert relative_error(finite_difference(loss, gen.weight), gw) <= 1e-4
        if mode == "augmented":
            assert relative_error(finite_difference(loss, gen.frequency), gfr) <= 1e-4
