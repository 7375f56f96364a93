import dataclasses
import itertools

import numpy as np
import pytest

from link3d import conv, core, link
from link3d import (
    ConfigError,
    ConvWeights,
    SparseTensor,
    build_kernel_map,
    kernel_offsets,
    sparse_conv_backward,
    sparse_conv_forward,
)
from link3d.layers import LayerNormParams, layer_norm_forward
from link3d.net import ResidualBlock
from link3d.verify import finite_difference, random_scene, relative_error
from conftest import box_coords
from oracles import blocked_product, dense_conv_oracle


def offset_index(km, offset):
    return int(np.where((km.offsets == offset).all(axis=1))[0][0])


class TestKernelMap:
    def test_single_voxel_center_only(self):
        t = SparseTensor([(0, 0, 0, 0)], np.ones((1, 2)))
        km = build_kernel_map(t, 3, 1)
        counts = [len(r) for r in km.in_rows]
        assert sum(counts) == 1
        assert counts[offset_index(km, (0, 0, 0))] == 1

    def test_collinear_pair_counts(self):
        t = SparseTensor(
            [(0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0)], np.ones((3, 1))
        )
        km = build_kernel_map(t, 3, 1)
        assert len(km.in_rows[offset_index(km, (1, 0, 0))]) == 2
        assert len(km.in_rows[offset_index(km, (-1, 0, 0))]) == 2
        assert len(km.in_rows[offset_index(km, (0, 0, 0))]) == 3
        assert km.pair_count() == 7

    def test_pairs_satisfy_offset_relation(self, rng):
        t = random_scene(rng, 200, 8, 1)
        km = build_kernel_map(t, 3, 1)
        for o, off in enumerate(km.offsets):
            for ir, orow in zip(km.in_rows[o], km.out_rows[o]):
                assert np.array_equal(
                    t.coords[ir, 1:], km.out_coords[orow, 1:] + off
                )
                assert t.coords[ir, 0] == km.out_coords[orow, 0]

    def test_submanifold_out_coords_equal_input(self, rng):
        t = random_scene(rng, 100, 10, 1)
        km = build_kernel_map(t, 3, 1)
        assert km.out_coords is t.coords

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_row_permutation_permutes_the_map(self, rng, kernel):
        # pairs stay sorted by out row, which fixes grad_weights' summation order
        t = random_scene(rng, 300, 8, 1, batches=2)
        perm = rng.permutation(t.num_voxels)
        row_of = np.argsort(perm)        # row in t -> row in the permuted tensor
        km = build_kernel_map(t, kernel, 1)
        kp = build_kernel_map(SparseTensor(t.coords[perm], t.features[perm]), kernel, 1)
        for o in range(km.offsets.shape[0]):
            assert (np.diff(km.out_rows[o]) > 0).all()
            by_out = np.argsort(row_of[km.out_rows[o]])
            assert np.array_equal(kp.out_rows[o], row_of[km.out_rows[o]][by_out])
            assert np.array_equal(kp.in_rows[o], row_of[km.in_rows[o]][by_out])

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (5, 1), (2, 2)])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_grad_rows_are_the_pairs_swapped_by_in_row(self, rng, kernel, stride, shuffle):
        t = random_scene(rng, 300, 8, 1, batches=2)
        if shuffle:
            t = permuted(t, rng)
        km = build_kernel_map(t, kernel, stride)
        for o, (src, dst) in enumerate(zip(*km.grad_rows)):
            by_in = np.argsort(km.in_rows[o])
            assert (np.diff(dst) > 0).all()
            assert np.array_equal(dst, km.in_rows[o][by_in])
            assert np.array_equal(src, km.out_rows[o][by_in])

    def test_row_permutation_keeps_the_downsample_outputs(self, rng):
        t = random_scene(rng, 300, 8, 1, batches=2)
        perm = rng.permutation(t.num_voxels)
        km = build_kernel_map(t, 2, 2)
        kp = build_kernel_map(SparseTensor(t.coords[perm], t.features[perm]), 2, 2)
        assert np.array_equal(kp.out_coords, km.out_coords)
        for o in range(km.offsets.shape[0]):
            assert np.array_equal(kp.out_rows[o], km.out_rows[o])
            assert np.array_equal(kp.in_rows[o], np.argsort(perm)[km.in_rows[o]])

    def test_downsample_two_voxels_merge(self):
        t = SparseTensor([(0, 0, 0, 0), (0, 1, 1, 1)], np.ones((2, 1)))
        km = build_kernel_map(t, 2, 2)
        assert km.num_out == 1
        assert tuple(km.out_coords[0]) == (0, 0, 0, 0)
        assert km.pair_count() == 2

    def test_downsample_negative_floor(self):
        t = SparseTensor([(0, -1, -2, 3)], np.ones((1, 1)))
        km = build_kernel_map(t, 2, 2)
        assert tuple(km.out_coords[0]) == (0, -1, -1, 1)

    @pytest.mark.parametrize("kernel,stride", [(4, 1), (3, 2), (2, 1), (3, 3)])
    def test_unsupported_combination(self, kernel, stride):
        t = SparseTensor([(0, 0, 0, 0)], np.ones((1, 1)))
        with pytest.raises(ConfigError):
            build_kernel_map(t, kernel, stride)

    def test_batches_never_mix(self):
        # adjacent coordinates in different batches are not neighbors
        t = SparseTensor(
            [(0, 0, 0, 0), (1, 1, 0, 0)], np.array([[5.0], [7.0]])
        )
        km = build_kernel_map(t, 3, 1)
        assert km.pair_count() == 2  # each voxel pairs only with itself
        km2 = build_kernel_map(t, 2, 2)
        assert km2.num_out == 2
        assert sorted(tuple(c) for c in km2.out_coords) == [
            (0, 0, 0, 0), (1, 0, 0, 0),
        ]


class TestForward:
    def test_identity_center_kernel(self, rng):
        t = random_scene(rng, 60, 6, 3)
        w = ConvWeights(np.zeros((27, 3, 3)))
        w.weights[13] = np.eye(3)
        out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        np.testing.assert_array_equal(out.features, t.features)

    def test_zero_weights(self, rng):
        t = random_scene(rng, 60, 6, 3)
        w = ConvWeights(np.zeros((27, 3, 5)), np.zeros(5))
        out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        assert (out.features == 0).all()

    def test_pointwise_degenerates_to_matmul(self, rng):
        t = random_scene(rng, 50, 6, 4)
        w = ConvWeights.random(1, 4, 3, rng)
        out = sparse_conv_forward(t, w, build_kernel_map(t, 1, 1))
        np.testing.assert_allclose(
            out.features, t.features @ w.weights[0] + w.bias, atol=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle_float64(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 200, 8, 3)
        w = ConvWeights.random(3, 3, 4, rng)
        out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        expected = dense_conv_oracle(t.coords, t.features, w.weights, w.bias, 3)
        for c, f in zip(out.coords, out.features):
            np.testing.assert_allclose(f, expected[tuple(c)], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_oracle_float32(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 120, 6, 3, dtype=np.float32)
        w = ConvWeights.random(3, 3, 4, rng)
        out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        expected = dense_conv_oracle(
            t.coords, t.features.astype(np.float64), w.weights, w.bias, 3
        )
        worst = max(
            np.abs(f - expected[tuple(c)]).max()
            for c, f in zip(out.coords, out.features)
        )
        assert worst <= 1e-5

    @pytest.mark.parametrize("seed", [3, 4])
    def test_downsample_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 80, 6, 2)
        w = ConvWeights.random(2, 2, 3, rng, stride=2)
        km = build_kernel_map(t, 2, 2)
        out = sparse_conv_forward(t, w, km)
        expected = dense_conv_oracle(t.coords, t.features, w.weights, w.bias, 2, 2)
        assert {tuple(c) for c in out.coords} == set(expected)
        for c, f in zip(out.coords, out.features):
            np.testing.assert_allclose(f, expected[tuple(c)], atol=1e-12)

    def test_deterministic_repeat(self, rng):
        t = random_scene(rng, 150, 8, 4, dtype=np.float32)
        w = ConvWeights.random(3, 4, 4, rng)
        km = build_kernel_map(t, 3, 1)
        a = sparse_conv_forward(t, w, km).features
        b = sparse_conv_forward(t, w, km).features
        assert np.array_equal(a, b)

    def test_channel_mismatch(self, rng):
        t = random_scene(rng, 10, 4, 3)
        w = ConvWeights.random(3, 4, 4, rng)
        with pytest.raises(ValueError):
            sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))

    def test_empty_tensor(self):
        t = SparseTensor(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 3)))
        w = ConvWeights.random(3, 3, 2, np.random.default_rng(0))
        out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        assert out.num_voxels == 0 and out.num_channels == 2


class TestBackward:
    def test_zero_grad(self, rng):
        t = random_scene(rng, 40, 6, 3)
        w = ConvWeights.random(3, 3, 2, rng)
        km = build_kernel_map(t, 3, 1)
        gf, gw, gb = sparse_conv_backward(np.zeros((km.num_out, 2)), t, w, km)
        assert (gf == 0).all() and (gw == 0).all() and (gb == 0).all()

    def test_linearity_in_grad(self, rng):
        t = random_scene(rng, 40, 6, 3)
        w = ConvWeights.random(3, 3, 2, rng)
        km = build_kernel_map(t, 3, 1)
        g = rng.normal(size=(km.num_out, 2))
        gf1, gw1, gb1 = sparse_conv_backward(g, t, w, km)
        gf2, gw2, gb2 = sparse_conv_backward(2 * g, t, w, km)
        np.testing.assert_allclose(gf2, 2 * gf1, atol=1e-12)
        np.testing.assert_allclose(gw2, 2 * gw1, atol=1e-12)
        np.testing.assert_allclose(gb2, 2 * gb1, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 30, 5, 3)
        w = ConvWeights.random(3, 3, 2, rng)
        km = build_kernel_map(t, 3, 1)
        probe = rng.normal(size=(km.num_out, 2))

        def loss():
            return float((sparse_conv_forward(t, w, km).features * probe).sum())

        gf, gw, gb = sparse_conv_backward(probe, t, w, km)
        assert relative_error(finite_difference(loss, t.features), gf) <= 1e-4
        assert relative_error(finite_difference(loss, w.weights), gw) <= 1e-4
        assert relative_error(finite_difference(loss, w.bias), gb) <= 1e-4

    @pytest.mark.parametrize("seed", [5])
    def test_downsample_backward_fd(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 30, 6, 2)
        w = ConvWeights.random(2, 2, 3, rng, stride=2)
        km = build_kernel_map(t, 2, 2)
        probe = rng.normal(size=(km.num_out, 3))

        def loss():
            return float((sparse_conv_forward(t, w, km).features * probe).sum())

        gf, gw, gb = sparse_conv_backward(probe, t, w, km)
        assert relative_error(finite_difference(loss, t.features), gf) <= 1e-4
        assert relative_error(finite_difference(loss, w.weights), gw) <= 1e-4

    def test_grad_shape_mismatch(self, rng):
        t = random_scene(rng, 20, 5, 3)
        w = ConvWeights.random(3, 3, 2, rng)
        km = build_kernel_map(t, 3, 1)
        with pytest.raises(ValueError):
            sparse_conv_backward(np.zeros((km.num_out, 5)), t, w, km)


def reference_conv(t, w, km, grad_out):
    """The per-offset formula the shared primitive replaced: a fancy get, add
    and set of out rows for each offset, and the same loop by hand for the
    features' gradient, each offset's product in 256-row blocks.  Returns
    (out, grad_features, grad_weights)."""
    weights = w.weights.astype(t.dtype)
    out = np.zeros((km.num_out, w.c_out), t.dtype)
    grad_features = np.zeros_like(t.features)
    grad_weights = np.zeros_like(weights)
    for o, (ir, orow) in enumerate(zip(km.in_rows, km.out_rows)):
        if ir.shape[0] == 0:
            continue
        out[orow] += blocked_product(t.features[ir], weights[o])
        g = grad_out[orow]
        grad_features[ir] += blocked_product(g, np.ascontiguousarray(weights[o].T))
        grad_weights[o] = t.features[ir].T @ g
    out += w.bias.astype(t.dtype)
    return out, grad_features, grad_weights


def filled_block(edge, channels, dtype, rng, step=1):
    """Every voxel of an ``edge``^3 cube (coordinates ``step`` apart)."""
    axis = np.arange(edge) * step
    xyz = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    coords = np.concatenate([np.zeros((xyz.shape[0], 1), np.int64), xyz], axis=1)
    return SparseTensor(coords, rng.normal(size=(coords.shape[0], channels)).astype(dtype))


def permuted(t, rng):
    perm = rng.permutation(t.num_voxels)
    return SparseTensor(t.coords[perm], t.features[perm])


# Scenes chosen so that lists of every coverage run: a filled 6^3 block
# covers at least half of the rows at every stride-1 offset (it runs on the
# dense plan, which TestDensePlan compares with the pair plan); a sparse
# two-batch scene covers fewer than half at every offset but the centre; an
# even-coordinate block at stride 2 covers every fine row from one offset,
# in a row order the permutation scrambles, so both of the primitive's
# paths run: the in-place add and the gather, add and scatter.
SCENES = {
    "block": lambda c, dt, rng: filled_block(6, c, dt, rng),
    "sparse": lambda c, dt, rng: random_scene(rng, 300, 8, c, dt, batches=2),
    "permuted-block": lambda c, dt, rng: permuted(filled_block(6, c, dt, rng), rng),
    "permuted-sparse":
        lambda c, dt, rng: permuted(random_scene(rng, 300, 8, c, dt, batches=2), rng),
    "permuted-even-block": lambda c, dt, rng: permuted(filled_block(3, c, dt, rng, step=2), rng),
}


SCENE_STRIDES = [
    ("block", 1), ("sparse", 1), ("permuted-block", 1), ("permuted-sparse", 1),
    ("block", 2), ("sparse", 2), ("permuted-sparse", 2), ("permuted-even-block", 2),
]


class TestSharedPrimitive:
    """Forward and backward are byte-equal to the per-offset formula on lists
    that cover all rows, at least half of them, and fewer."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # at (8, 32) and (2, 16) the features' gradient by the transposed view W[o].T
    # has other bits than by its contiguous copy
    @pytest.mark.parametrize("c_in,c_out", [(3, 4), (1, 4), (4, 1), (16, 2), (32, 2),
                                            (8, 32), (2, 16)])
    @pytest.mark.parametrize("scene,stride", SCENE_STRIDES)
    def test_byte_equal_to_the_per_offset_formula(self, scene, stride, c_in, c_out, dtype):
        rng = np.random.default_rng(11)
        t = SCENES[scene](c_in, dtype, rng)
        kernel = 3 if stride == 1 else 2
        w = ConvWeights.random(kernel, c_in, c_out, rng, stride=stride, dtype=dtype)
        w.bias[:] = rng.normal(size=c_out)
        km = build_kernel_map(t, kernel, stride)
        grad_out = rng.normal(size=(km.num_out, c_out)).astype(dtype)
        out, grad_features, grad_weights = reference_conv(t, w, km, grad_out)
        got = sparse_conv_forward(t, w, km).features
        gf, gw, _ = sparse_conv_backward(grad_out, t, w, km)
        gf_only, gw_none, gb_none = sparse_conv_backward(grad_out, t, w, km, params=False)
        assert gw_none is None and gb_none is None
        for a, b in ((got, out), (gf, grad_features), (gw, grad_weights), (gf_only, gf)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_scenes_reach_every_path(self):
        rng = np.random.default_rng(11)

        def fractions(t, kernel, stride):
            km = build_kernel_map(t, kernel, stride)
            fwd = [len(r) / km.num_out for r in km.out_rows if len(r)]
            bwd = [len(r) / km.num_in for r in km.in_rows if len(r)]
            return sorted(fwd), sorted(bwd)

        # the last fraction is the centre's, which covers every row
        fwd, bwd = fractions(SCENES["block"](1, np.float64, rng), 3, 1)
        assert fwd == bwd and fwd[-1] == 1.0 and 0.5 <= fwd[0] <= fwd[-2] < 1.0
        fwd, bwd = fractions(SCENES["sparse"](1, np.float64, rng), 3, 1)
        assert fwd == bwd and fwd[-1] == 1.0 and fwd[-2] < 0.5
        t = SCENES["permuted-even-block"](1, np.float64, rng)
        fwd, bwd = fractions(t, 2, 2)
        assert fwd == [1.0] and bwd == [1.0]
        in_rows = next(r for r in build_kernel_map(t, 2, 2).in_rows if len(r))
        assert (np.diff(in_rows) < 0).any()

    def test_float64_grad_out_on_float32_tensor(self, rng):
        # grad_out is rounded to the tensor's dtype once, on entry
        t = random_scene(rng, 200, 8, 3, np.float32)
        w = ConvWeights.random(3, 3, 4, rng, dtype=np.float32)
        km = build_kernel_map(t, 3, 1)
        g64 = rng.normal(size=(km.num_out, 4))
        got = sparse_conv_backward(g64, t, w, km)
        want = sparse_conv_backward(g64.astype(np.float32), t, w, km)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert a.tobytes() == b.tobytes()


def box_scene(shape, batches, channels, dtype, rng, corner=(0, 0, 0)):
    """Every voxel of a (batches, *shape) box whose first voxel is at ``corner``."""
    coords = box_coords(shape, batches, corner)
    return SparseTensor(coords, rng.normal(size=(coords.shape[0], channels)).astype(dtype))


def half_scene(channels, dtype, rng):
    """The even-parity half of a 4^3 box: exactly half full, corners kept."""
    t = box_scene((4, 4, 4), 1, channels, dtype, rng)
    even = t.coords[:, 1:].sum(axis=1) % 2 == 0
    return SparseTensor(t.coords[even], t.features[even])


# (scene, whether it fills half of its box); above K=1 the 2^3 cube has
# one-pair lists, each one row of a PRODUCT_ROWS-row product on both plans
DENSE_SCENES = {
    "cube": (lambda c, dt, rng: box_scene((6, 6, 6), 1, c, dt, rng, (-3, 2, 5)), True),
    "permuted-cube": (lambda c, dt, rng: permuted(box_scene((6, 5, 7), 1, c, dt, rng), rng), True),
    "slab": (lambda c, dt, rng: box_scene((7, 6, 1), 1, c, dt, rng, (3, -2, 4)), True),
    "two-batches": (lambda c, dt, rng: permuted(box_scene((5, 5, 5), 2, c, dt, rng), rng), True),
    "cube-2": (lambda c, dt, rng: box_scene((2, 2, 2), 1, c, dt, rng), True),
    "half": (half_scene, True),
    "sparse": (lambda c, dt, rng: random_scene(rng, 300, 8, c, dt, batches=2), False),
}


class TestDensePlan:
    """The dense plan gives the pair plan's bits in the forward and in both
    backwards, and runs exactly where its rule says."""

    @staticmethod
    def check_bits(scene, c_in, c_out, kernel, dtype):
        rng = np.random.default_rng(23)
        make, fills = DENSE_SCENES[scene]
        t = make(c_in, dtype, rng)
        w = ConvWeights.random(kernel, c_in, c_out, rng, dtype=dtype)
        w.bias[:] = rng.normal(size=c_out)
        km = build_kernel_map(t, kernel, 1)
        one_pair = any(r.shape[0] == 1 for r in km.in_rows)
        assert one_pair == (scene == "cube-2" and kernel > 1)
        assert (km.box is not None) == fills
        # finite weights: the box alone decides, at every width
        assert conv._dense(km, w.weights) == (km.box is not None)
        pairs = dataclasses.replace(km, box=None)
        grad_out = rng.normal(size=(km.num_out, c_out)).astype(dtype)
        got = [sparse_conv_forward(t, w, km).features,
               *sparse_conv_backward(grad_out, t, w, km),
               sparse_conv_backward(grad_out, t, w, km, params=False)[0]]
        want = [sparse_conv_forward(t, w, pairs).features,
                *sparse_conv_backward(grad_out, t, w, pairs),
                sparse_conv_backward(grad_out, t, w, pairs, params=False)[0]]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (scene, c_in, c_out, kernel, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("c_in,c_out", [(a, b) for a in (1, 2, 8, 16) for b in (1, 2, 8, 16)])
    @pytest.mark.parametrize("scene", list(DENSE_SCENES))
    def test_bits_equal_pair_plan(self, scene, c_in, c_out, kernel, dtype):
        self.check_bits(scene, c_in, c_out, kernel, dtype)

    # wide and non-square widths; each case runs every scene, kernel and dtype
    @pytest.mark.parametrize("c_in,c_out", [(32, 32), (64, 64), (16, 2), (32, 2), (2, 32),
                                            (1, 64)])
    def test_bits_equal_pair_plan_wide(self, c_in, c_out):
        for scene, kernel, dtype in itertools.product(DENSE_SCENES, [1, 3, 5],
                                                      [np.float32, np.float64]):
            self.check_bits(scene, c_in, c_out, kernel, dtype)

    def test_nonfinite_weights_take_the_pair_plan(self, rng):
        # an empty cell's zero row times inf would add NaN to its neighbours
        t = box_scene((4, 4, 4), 1, 2, np.float64, rng)
        w = ConvWeights.random(3, 2, 2, rng)
        w.weights[0, 0, 0] = np.inf
        km = build_kernel_map(t, 3, 1)
        assert km.box is not None and not conv._dense(km, w.weights)


def conv_runs(t, w, km, grad_out):
    """The forward, both backward gradients and the features' gradient alone."""
    return [sparse_conv_forward(t, w, km).features,
            *sparse_conv_backward(grad_out, t, w, km)[:2],
            sparse_conv_backward(grad_out, t, w, km, params=False)[0]]


class TestPairTiles:
    """``_accumulate``'s out-row tiles give the bits of one tile, on the conv's
    pair plan and on LinK's sorted-key box sum.  The scenes hold a few hundred
    rows, and a tail shorter than a tile joins the tile before it, so the
    tiles shrink to 64 and 16 rows."""

    @pytest.mark.parametrize("tile", [64, 16])
    def test_conv_bits_equal_one_tile(self, tile, monkeypatch):
        rng = np.random.default_rng(31)
        cases = ([(SCENES[scene], stride, 3 if stride == 1 else 2)
                  for scene, stride in SCENE_STRIDES]
                 + [(make, 1, kernel) for make, _ in DENSE_SCENES.values() for kernel in (3, 5)])
        tiled = unordered = 0
        for (make, stride, kernel), dtype, (c_in, c_out) in itertools.product(
                cases, [np.float32, np.float64], [(3, 4), (1, 16), (16, 1)]):
            t = make(c_in, dtype, rng)
            w = ConvWeights.random(kernel, c_in, c_out, rng, stride=stride, dtype=dtype)
            w.bias[:] = rng.normal(size=c_out)
            km = dataclasses.replace(build_kernel_map(t, kernel, stride), box=None)
            grad_out = rng.normal(size=(km.num_out, c_out)).astype(dtype)
            want = conv_runs(t, w, km, grad_out)
            with monkeypatch.context() as m:
                m.setattr(core, "PAIR_TILE_ROWS", tile)
                got = conv_runs(t, w, km, grad_out)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (make, stride, kernel, dtype, c_in, c_out)
            tiled += max(km.num_in, km.num_out) >= 2 * tile
            # a stride-2 features' gradient on rows not in key order, in several tiles
            in_key_order = (np.diff(t._order) > 0).all()
            unordered += stride == 2 and not in_key_order and km.num_in >= 2 * tile
        assert tiled and unordered

    @pytest.mark.parametrize("tile", [core.PRODUCT_ROWS, 16])
    def test_link_box_sum_bits_equal_one_tile(self, tile, monkeypatch):
        rng = np.random.default_rng(37)
        t = random_scene(rng, 900, 30, 1, batches=2)
        part = link.partition_blocks(t, 1)
        lo, hi = link.neighbor_window(3)
        sets = link._key_plan(part.block_keys, lo, hi)
        assert link._grid_plan(part.block_coords, lo, hi) is None
        assert part.num_blocks > 2 * tile
        for dtype in (np.float32, np.float64):
            v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
            for adjoint in (False, True):
                want = link._box_sum(v, sets, adjoint)
                with monkeypatch.context() as m:
                    m.setattr(core, "PAIR_TILE_ROWS", tile)
                    got = link._box_sum(v, sets, adjoint)
                assert got.tobytes() == want.tobytes()


class TestDenseTiles:
    """``_shift_sum``'s box-cell tiles give the bits of one tile, on the conv's
    dense plan and on LinK's block grid.  The boxes hold at most a few thousand
    cells, so the tiles shrink to ``PRODUCT_ROWS`` cells."""

    def test_conv_bits_equal_one_tile(self, monkeypatch):
        rng = np.random.default_rng(41)
        tiled = 0
        for (make, fills), kernel, dtype, (c_in, c_out) in itertools.product(
                DENSE_SCENES.values(), [1, 3, 5], [np.float32, np.float64], [(3, 4), (16, 1)]):
            if not fills:
                continue
            t = make(c_in, dtype, rng)
            w = ConvWeights.random(kernel, c_in, c_out, rng, dtype=dtype)
            km = build_kernel_map(t, kernel, 1)
            assert conv._dense(km, w.weights)
            grad_out = rng.normal(size=(km.num_out, c_out)).astype(dtype)
            want = [sparse_conv_forward(t, w, km).features,
                    sparse_conv_backward(grad_out, t, w, km, params=False)[0]]
            with monkeypatch.context() as m:
                m.setattr(core, "DENSE_TILE_ROWS", core.PRODUCT_ROWS)
                got = [sparse_conv_forward(t, w, km).features,
                       sparse_conv_backward(grad_out, t, w, km, params=False)[0]]
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (make, kernel, dtype, c_in, c_out)
            tiled += np.prod(km.box.shape) >= 2 * core.PRODUCT_ROWS
        assert tiled

    def test_link_box_sum_bits_equal_one_tile(self, monkeypatch):
        rng = np.random.default_rng(43)
        part = link.partition_blocks(box_scene((9, 8, 7), 2, 1, np.float64, rng), 1)
        lo, hi = link.neighbor_window(3)
        grid = link._grid_plan(part.block_coords, lo, hi)
        assert isinstance(grid, link.BlockGrid)
        assert np.prod(grid.box.shape) >= 4 * core.PRODUCT_ROWS
        for dtype in (np.float32, np.float64):
            v = rng.normal(size=(part.num_blocks, 5)).astype(dtype)
            for adjoint in (False, True):
                want = link._box_sum(v, grid, adjoint)
                with monkeypatch.context() as m:
                    m.setattr(core, "DENSE_TILE_ROWS", core.PRODUCT_ROWS)
                    got = link._box_sum(v, grid, adjoint)
                assert got.tobytes() == want.tobytes()


def extreme_values(shape, dtype, rng):
    """Normal values with every third one replaced, in turn, by +-0.0, a
    subnormal or a value near the dtype's largest."""
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, info.smallest_subnormal, -3 * info.smallest_subnormal,
                        info.smallest_normal / 5, info.max / 2, -info.max / 3, 0.9 * info.max],
                       dtype)
    values = rng.normal(size=shape).astype(dtype).ravel()
    values[::3] = np.resize(special, values[::3].shape)
    return values.reshape(shape)


class TestOneChannelProducts:
    """A 1->C forward and a C->1 conv's features' gradient, on inputs that
    hold +-0.0, subnormals and values near the dtype's max, keep the
    per-offset formula's bytes on both plans."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("plan", ["dense", "pairs"])
    @pytest.mark.parametrize("c_in,c_out", [(1, 16), (16, 1)])
    def test_bytes_equal_reference(self, c_in, c_out, plan, dtype):
        rng = np.random.default_rng(41)
        t = DENSE_SCENES["cube"][0](c_in, dtype, rng)
        w = ConvWeights.random(3, c_in, c_out, rng, dtype=dtype)
        km = build_kernel_map(t, 3, 1)
        if plan == "pairs":
            km = dataclasses.replace(km, box=None)
        assert conv._dense(km, w.weights) == (plan == "dense")
        if c_in == 1:
            t = t.with_features(extreme_values(t.features.shape, dtype, rng))
        grad_out = rng.normal(size=(km.num_out, c_out)).astype(dtype)
        if c_out == 1:
            grad_out = extreme_values(grad_out.shape, dtype, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            out, grad_features, _ = reference_conv(t, w, km, grad_out)
            got = sparse_conv_forward(t, w, km).features
            gf = sparse_conv_backward(grad_out, t, w, km, params=False)[0]
        assert got.tobytes() == out.tobytes()
        assert gf.tobytes() == grad_features.tobytes()


class TestRowsIndependentOfTheSet:
    """A row's output and features' gradient have the same bits whatever
    else the set holds: every product is 256 rows, however long the lists."""

    @pytest.mark.parametrize("plan", ["dense", "pairs"])
    @pytest.mark.parametrize("c_in,c_out,dtype", [
        (4, 1, np.float32), (16, 1, np.float32), (16, 1, np.float64), (16, 2, np.float64)])
    def test_copy_in_another_batch_keeps_the_bits(self, c_in, c_out, dtype, plan):
        rng = np.random.default_rng(5)
        t = box_scene((6, 6, 6), 1, c_in, dtype, rng)
        n = t.num_voxels
        copy = t.coords.copy()
        copy[:, 0] = 1
        twice = SparseTensor(np.concatenate([t.coords, copy]), np.concatenate([t.features] * 2))
        w = ConvWeights.random(3, c_in, c_out, rng, dtype=dtype)
        grad_out = rng.normal(size=(n, c_out)).astype(dtype)
        got = []
        for s, g in ((t, grad_out), (twice, np.concatenate([grad_out] * 2))):
            km = build_kernel_map(s, 3, 1)
            if plan == "pairs":
                km = dataclasses.replace(km, box=None)
            assert conv._dense(km, w.weights) == (plan == "dense")
            got.append([sparse_conv_forward(s, w, km).features[:n],
                        sparse_conv_backward(g, s, w, km, params=False)[0][:n]])
        for a, b in zip(*got):
            assert a.tobytes() == b.tobytes()


class TestResidualBlock:
    def test_zero_weights_is_relu(self, rng):
        # zero convs and zero norm scale/shift leave only the skip
        t = random_scene(rng, 40, 6, 3)
        block = ResidualBlock(3, rng)
        for _, arr in block.named_parameters():
            arr[...] = 0.0
        out = block.forward(t)
        np.testing.assert_array_equal(out.features, np.maximum(t.features, 0))

    def test_single_voxel_identity_center(self, rng):
        x = np.array([[1.5, -2.0, 0.5]])
        t = SparseTensor([(0, 0, 0, 0)], x)
        block = ResidualBlock(3, rng)
        for conv in (block.conv1, block.conv2):
            conv.conv.weights[...] = 0.0
            conv.conv.weights[13] = np.eye(3)
            conv.conv.bias[...] = 0.0
        out = block.forward(t)

        def norm(v):
            return layer_norm_forward(v, LayerNormParams.identity(3))[0]

        np.testing.assert_allclose(
            out.features, np.maximum(norm(np.maximum(norm(x), 0)) + x, 0)
        )

    def test_coords_preserved(self, rng):
        t = random_scene(rng, 80, 8, 4)
        out = ResidualBlock(4, rng).forward(t)
        assert out.coords is t.coords

    def test_channel_mismatch(self, rng):
        t = random_scene(rng, 20, 6, 3)
        with pytest.raises(ValueError):
            ResidualBlock(5, rng).forward(t)
