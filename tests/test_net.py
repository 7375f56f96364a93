import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from link3d import (
    ConfigError,
    DimensionError,
    SparseTensor,
    build_encoder,
    count_dense_kernel_params,
    count_generator_params,
    downsample_labels,
    erf_map,
    erf_mass_radius,
    toy_train,
)
import link3d
from link3d import net
from link3d.core import coarsen
from link3d.layers import (
    LN_EPS,
    layer_norm_backward,
    layer_norm_forward,
    relu_backward,
)
from link3d.net import EncoderConfig, LinKModule, ResidualBlock, SegModel, SparseConv
from link3d.verify import finite_difference, random_scene
from conftest import kept_state, modules
from oracles import compare_sampled, dense_conv_oracle, loop_majority


def dense_slab(width, depth, channels=1, seed=0, dtype=np.float64):
    xs, ys, zs = np.meshgrid(
        np.arange(width), np.arange(width), np.arange(depth), indexing="ij"
    )
    coords = np.stack(
        [np.zeros(xs.size, dtype=np.int64), xs.ravel(), ys.ravel(), zs.ravel()],
        axis=1,
    )
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.5, 1.5, size=(coords.shape[0], channels)).astype(dtype)
    return SparseTensor(coords, feats)


def small_config(channels=4, s=3, r=2, mode="pure", groups=1, link_enabled=True,
                 dtype=np.float64):
    return EncoderConfig(
        in_channels=1,
        stem_channels=channels,
        stage_channels=(channels,) * 4,
        block_sizes=(s,) * 4,
        neighbor_ranges=(r,) * 4,
        mode=mode,
        groups=groups,
        link_enabled=link_enabled,
        dtype=dtype,
    )


class TestLinKModule:
    def test_all_zero_params_gives_zero(self, rng):
        t = random_scene(rng, 40, 8, 4)
        module = LinKModule(4, 3, 2, "pure", 1, rng)
        for _, arr in module.named_parameters():
            arr[...] = 0.0
        # zero generator weight still yields cos(0)=1 kernels, but zero
        # pointwise and bypass weights make both branches vanish
        out = module.forward(t)
        assert (out.features == 0).all()

    def test_single_voxel_identity_composition(self, rng):
        x = np.array([[0.8, -0.4, 1.2]])
        t = SparseTensor([(0, 2, 5, -1)], x)
        module = LinKModule(3, 3, 2, "pure", 1, rng)
        module.pointwise.weight[...] = np.eye(3)
        module.pointwise.bias[...] = 0.0
        module.bypass.conv.weights[...] = 0.0
        center = module.bypass.conv.weights.shape[0] // 2
        module.bypass.conv.weights[center] = np.eye(3)
        module.bypass.conv.bias[...] = 0.0
        out = module.forward(t)
        expected = np.maximum(layer_norm_forward(2 * x, module.norm.scale, module.norm.shift)[0], 0)
        np.testing.assert_allclose(out.features, expected, atol=1e-12)

    def test_coords_preserved(self, rng):
        t = random_scene(rng, 80, 10, 4)
        module = LinKModule(4, 3, 2, "pure", 2, rng)
        out = module.forward(t)
        assert out.coords is t.coords


class TestResidualBlockRoutes:
    def test_layer_matches_functional_composition(self, rng):
        """The layer against dense-grid convolutions, LayerNorm and ReLU."""
        t = random_scene(rng, 70, 8, 4)
        layer = ResidualBlock(4, rng)
        for norm in (layer.norm1, layer.norm2):
            norm.scale[...] = rng.uniform(0.5, 1.5, size=4)
            norm.shift[...] = rng.normal(size=4)

        def conv(feats, sc):
            out = dense_conv_oracle(t.coords, feats, sc.conv.weights, sc.conv.bias, 3)
            return np.array([out[tuple(c)] for c in t.coords])

        def norm(x, layer_norm):
            return layer_norm_forward(x, layer_norm.scale, layer_norm.shift)[0]

        h = np.maximum(norm(conv(t.features, layer.conv1), layer.norm1), 0)
        h = norm(conv(h, layer.conv2), layer.norm2)
        expected = np.maximum(h + t.features, 0)
        out = layer.forward(t)
        assert out.coords is t.coords
        np.testing.assert_allclose(out.features, expected, rtol=0, atol=1e-12)


class TestEncoder:
    def test_stage_extents_halve(self, rng):
        t = dense_slab(16, 16)
        enc = build_encoder(small_config(channels=2), seed=0)
        outs = enc.forward(t)
        extents = [
            int(o.coords[:, 1].max() - o.coords[:, 1].min()) + 1 for o in outs
        ]
        assert extents == [8, 4, 2, 1]

    def test_stage_coords_are_downsampled_parents(self, rng):
        t = random_scene(rng, 200, 16, 1)
        enc = build_encoder(small_config(channels=2), seed=0)
        outs = enc.forward(t)
        prev = t.coords
        for o in outs:
            down = prev.copy()
            down[:, 1:] = np.floor_divide(down[:, 1:], 2)
            expected = np.unique(down, axis=0)
            got = np.unique(o.coords, axis=0)
            assert np.array_equal(expected, got)
            prev = o.coords

    def test_segmentation_layout_kernel_extent(self):
        cfg = EncoderConfig(
            in_channels=1,
            stem_channels=64,
            stage_channels=(64, 64, 64, 64),
            block_sizes=(3,) * 4,
            neighbor_ranges=(2,) * 4,
        )
        enc = build_encoder(cfg, seed=0)
        for stage in enc.stages:
            assert stage.link_module.link.cfg.kernel_extent == 6

    def test_fewer_params_than_dense_large_kernel(self):
        cfg = small_config(channels=16, s=7, r=3, groups=2)
        enc = build_encoder(cfg, seed=0)
        total = sum(arr.size for _, arr in enc.named_parameters())
        gen_total = sum(
            count_generator_params(st.link_module.link.cfg.generator)
            for st in enc.stages
        )
        dense_total = total - gen_total + sum(
            count_dense_kernel_params(7, c, c) for c in cfg.stage_channels
        )
        assert total < dense_total

    def test_requires_four_stages(self):
        with pytest.raises(ConfigError):
            EncoderConfig(stage_channels=(8, 8, 8))

    def test_parameter_paths_unique_and_match_grads(self, rng):
        enc = build_encoder(small_config(channels=3, mode="augmented"), seed=0)
        params = list(enc.named_parameters())
        paths = [name for name, _ in params]
        assert len(set(paths)) == len(paths)
        assert len({id(arr) for _, arr in params}) == len(params)
        assert {"stem1.conv.weight", "stem2.norm.shift", "stage1.down.conv.weight",
                "stage4.link_module.link.frequency"} <= set(paths)
        outs = enc.forward(random_scene(rng, 60, 10, 1), grad=True)
        enc.zero_grads()
        enc.backward([np.ones_like(o.features) for o in outs])
        grads = list(enc.named_grads())
        assert [name for name, _ in grads] == paths
        for (_, g), (_, arr) in zip(grads, params):
            assert g is not None and g.shape == arr.shape


class TestModuleTree:
    """The ordered ``named_modules`` prefixes and ``named_parameters`` names,
    pinned as (count, sha256 of the names joined by newlines)."""

    ENCODER_MODULES = (87, "3c112e71ac72a5d6de8bf5e7e405aa056e94470aa4d080d640346fcec88d866f")
    ENCODER_PARAMS = (116, "126d85291498eabfaf27c8f4464afb67f846cccbdc3c567545b746b4cea3fe9a")
    SEG_MODULES = (89, "6dd35403a64b121780f69278f77e1fab964fc8913f5634cf998819d0adbc4277")
    SEG_PARAMS = (122, "8cf7efc96f2874a5df69cbe325ae1ddffbe9cee124f44864628910c40ddcf221")

    @staticmethod
    def check(model, modules_pin, params_pin):
        for names, pin in (([p for p, _ in model.named_modules()], modules_pin),
                           ([n for n, _ in model.named_parameters()], params_pin)):
            digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
            assert (len(names), digest) == pin, names

    def test_encoder(self, rng):
        enc = build_encoder(small_config(dtype=np.float32), seed=0)
        self.check(enc, self.ENCODER_MODULES, self.ENCODER_PARAMS)
        enc.forward(random_scene(rng, 200, 10, 1, np.float32), grad=True)
        # the forward kept its backward state, and none of it is a child
        assert ("LinKOp", "_state") in kept_state(enc)
        self.check(enc, self.ENCODER_MODULES, self.ENCODER_PARAMS)

    def test_augmented_seg_model(self, rng):
        model = SegModel(small_config(mode="augmented"), 4, seed=0)
        self.check(model, self.SEG_MODULES, self.SEG_PARAMS)
        assert "encoder.stage4.link_module.link.frequency" in dict(model.named_parameters())
        t = random_scene(rng, 200, 10, 1)
        labels = rng.integers(0, 4, t.num_voxels)
        model.loss_and_grad(t, downsample_labels(t.coords, labels, 4))
        assert ("SparseConv", "_km") in kept_state(model)
        self.check(model, self.SEG_MODULES, self.SEG_PARAMS)


class TestKernelMapCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        """(kernel_size, stride) of every map the network builds."""
        calls = []
        build = net.build_kernel_map

        def counting(t, kernel_size, stride=1):
            calls.append((kernel_size, stride))
            return build(t, kernel_size, stride)

        monkeypatch.setattr(net, "build_kernel_map", counting)
        return calls

    def test_encoder_builds_each_map_once(self, rng, builds):
        t = random_scene(rng, 400, 12, 1)
        enc = build_encoder(small_config(), seed=0)
        first = enc.forward(t)
        # the stem and each stage's set: one 3^3 map; each downsample: one 2^3 map
        assert sorted(builds) == [(2, 2)] * 4 + [(3, 1)] * 5
        builds.clear()
        second = enc.forward(t)
        assert builds == []
        for a, b in zip(first, second):
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.features, b.features)

    def test_cache_follows_the_coordinate_set(self, rng, builds):
        t = random_scene(rng, 200, 8, 2)
        conv = SparseConv(3, 2, 2, rng)
        twin = t.with_features(2 * t.features)
        fresh = SparseTensor(t.coords, t.features)
        assert twin._maps is t._maps and fresh._maps is not t._maps
        conv.forward(t)
        conv.forward(twin)
        assert len(builds) == 1
        conv.forward(fresh)
        assert len(builds) == 2
        down = SparseConv(2, 2, 2, rng, stride=2)
        d1, d2 = down.forward(t), down.forward(twin)
        assert len(builds) == 3 and d1._maps is d2._maps


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_encoder_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        t = random_scene(rng, 60, 10, 1)
        enc = build_encoder(
            small_config(channels=3, mode="augmented", groups=1), seed=seed
        )
        outs = enc.forward(t)
        probes = [rng.normal(size=o.features.shape) for o in outs]

        def loss():
            return float(
                sum((o.features * p).sum() for o, p in zip(enc.forward(t), probes))
            )

        enc.zero_grads()
        enc.forward(t, grad=True)
        g_in = enc.backward(probes)
        grads = dict(enc.named_grads())
        for name, arr in enc.named_parameters():
            # seeded by the path, so module order does not move the samples
            sample_rng = np.random.default_rng([seed + 100, zlib.crc32(name.encode())])
            fd = finite_difference(loss, arr, sample=2, rng=sample_rng)
            assert compare_sampled(fd, grads[name]) <= 1e-3, name
        # the input gradient, from the full and from the input-only backward
        fd = finite_difference(loss, t.features, sample=8, rng=np.random.default_rng(seed + 200))
        assert compare_sampled(fd, g_in) <= 1e-3
        enc.forward(t, grad=True)
        assert compare_sampled(fd, enc.backward(probes, params=False)) <= 1e-3


def seed_grads(encoder, t, seed_coord, stage):
    """Stage gradients for a ones-vector at ``seed_coord``, as erf_map seeds."""
    top = encoder.forward(t, n_stages=stage, grad=True)[-1]
    seed = np.zeros_like(top.features)
    seed[(top.coords == seed_coord).all(axis=1)] = 1.0
    return [None] * (stage - 1) + [seed]


class TestInputOnlyBackward:
    """``params=False`` computes the input gradient with the same bits and
    no parameter gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["pure", "augmented"])
    def test_erf_equals_the_default_backward(self, mode, dtype):
        t = random_scene(np.random.default_rng(5), 400, 14, 1, dtype)
        enc = build_encoder(small_config(channels=4, mode=mode, groups=2, dtype=dtype),
                            seed=3)
        for stage in (1, 4):
            _, mags, seed_coord = erf_map(t, enc, stage)
            assert all(g is None for _, g in enc.named_grads())
            g_in = enc.backward(seed_grads(enc, t, seed_coord, stage))
            want = np.abs(g_in).sum(axis=1)
            assert mags.dtype == want.dtype and mags.tobytes() == want.tobytes()

    def test_input_only_leaves_grads_unchanged(self, rng):
        t = random_scene(rng, 80, 10, 1)
        enc = build_encoder(small_config(channels=3), seed=0)
        probes = [np.ones_like(o.features) for o in enc.forward(t, grad=True)]
        enc.zero_grads()
        enc.backward(probes)
        before = {name: g.copy() for name, g in enc.named_grads()}
        enc.backward(probes, params=False)
        for name, g in enc.named_grads():
            assert g.tobytes() == before[name].tobytes(), name

    def test_layer_norm_input_only(self, rng):
        x = rng.normal(size=(50, 6)).astype(np.float32)
        _, cache = layer_norm_forward(
            x, rng.uniform(0.5, 1.5, 6).astype(np.float32), np.zeros(6, np.float32))
        g = rng.normal(size=x.shape).astype(np.float32)
        gx, _, _ = layer_norm_backward(g, cache)
        got = layer_norm_backward(g, cache, params=False)
        assert got[1] is None and got[2] is None
        assert got[0].tobytes() == gx.tobytes()


    @pytest.mark.parametrize("x_dtype,p_dtype,g_dtype", [
        (np.float32, np.float32, np.float32), (np.float64, np.float64, np.float64),
        (np.float32, np.float64, np.float32), (np.float64, np.float32, np.float32),
        (np.float32, np.float32, np.float64),
    ])
    def test_layer_norm_bits_match_plain_formulas(self, rng, x_dtype, p_dtype, g_dtype):
        x = (3 * rng.normal(size=(300, 7)) + 1).astype(x_dtype)
        scale = rng.uniform(0.5, 1.5, 7).astype(p_dtype)
        shift = rng.normal(size=7).astype(p_dtype)
        grad_y = rng.normal(size=x.shape).astype(g_dtype)
        # the formulas layer_norm_forward and layer_norm_backward work in place
        centered = x - x.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + LN_EPS)
        x_hat = centered * inv_std
        y = x_hat * scale + shift
        g = grad_y * scale
        grad_x = inv_std * (g - g.mean(axis=1, keepdims=True)
                            - x_hat * (g * x_hat).mean(axis=1, keepdims=True))
        got_y, cache = layer_norm_forward(x, scale, shift)
        got = layer_norm_backward(grad_y, cache)
        expected = [y, x_hat, inv_std, grad_x, (grad_y * x_hat).sum(axis=0), grad_y.sum(axis=0)]
        for a, b in zip([got_y, cache[0], cache[1], *got], expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestForwardState:
    """A forward keeps backward state only with ``grad=True``."""

    STATE = {
        ("Encoder", "_shapes"), ("SparseConv", "_t"), ("SparseConv", "_km"),
        ("PointwiseConv", "_x"), ("Norm", "_cache"), ("LinKOp", "_t"), ("LinKOp", "_state"),
        ("ConvNormReLU", "_pre"), ("ResidualBlock", "_pre1"), ("ResidualBlock", "_pre2"),
        ("LinKModule", "_pre"),
    }

    def test_default_forward_keeps_none_and_same_bytes(self, rng):
        t = random_scene(rng, 300, 12, 1, np.float32, batches=2)
        enc = build_encoder(small_config(mode="augmented", dtype=np.float32), seed=0)
        kept = enc.forward(t, grad=True)
        assert kept_state(enc) == self.STATE
        outs = enc.forward(t)
        assert kept_state(enc) == set()
        for a, b in zip(kept, outs):
            assert a.coords.tobytes() == b.coords.tobytes()
            assert a.features.tobytes() == b.features.tobytes()

    @pytest.mark.parametrize("earlier_grad", [False, True])
    def test_backward_without_state_raises(self, rng, earlier_grad):
        t = random_scene(rng, 200, 10, 1)
        enc = build_encoder(small_config(channels=3), seed=0)
        outs = enc.forward(t, grad=earlier_grad)
        enc.forward(t)
        with pytest.raises(ConfigError, match="grad=True"):
            enc.backward([np.ones_like(o.features) for o in outs])
        # every module, leaf or composite, checks before it computes
        for module in modules(enc.stages[0]):
            with pytest.raises(ConfigError, match="grad=True"):
                module.backward(np.ones((1, 3)))

    def test_misshapen_stage_gradient_raises_before_any_backward(self, rng):
        t = random_scene(rng, 300, 12, 1)
        enc = build_encoder(small_config(), seed=0)
        outs = enc.forward(t, grad=True)
        grads = [np.ones_like(o.features) for o in outs]
        grads[1] = np.ones((3, 4))
        want = f"stage2 gradient has shape (3, 4), expected {outs[1].features.shape}"
        assert outs[1].num_voxels != 3
        with pytest.raises(DimensionError, match=re.escape(want)):
            enc.backward(grads)
        # stages 4 and 3 come first in the backward chain, and left no gradient
        assert all(g is None for _, g in enc.named_grads())

    def test_no_forward_raises(self, rng):
        with pytest.raises(ConfigError, match="SparseConv.backward"):
            SparseConv(3, 2, 2, rng).backward(np.ones((4, 2)))

    def test_forward_only_peak_below_half(self):
        """tracemalloc peak of a forward-only pass on a two-batch scene at the
        detection preset, against the same pass keeping its backward state."""
        t = random_scene(np.random.default_rng(0), 20000, 60, 1, np.float32, batches=2)
        enc = build_encoder(EncoderConfig(
            stage_channels=(16,) * 4, block_sizes=(7,) * 4, neighbor_ranges=(3,) * 4,
            mode="augmented", dtype=np.float32), seed=0)
        enc.forward(t)  # the kernel maps, cached on t, count in neither peak

        def peak(grad):
            tracemalloc.start()
            try:
                enc.forward(t, grad=grad)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        inference, training = peak(False), peak(True)
        assert inference < 0.5 * training, (inference, training)


class TestErf:
    def test_bypass_only_respects_theoretical_bound(self):
        # stage 1, bypass-only: stem reach 2, stage convs reach 4 at stride 2,
        # downsample window {0, 1}: support within [2v - 10, 2v + 11]
        t = dense_slab(48, 4)
        enc = build_encoder(small_config(channels=4, link_enabled=False), seed=0)
        coords, mags, seed_coord = erf_map(t, enc, 1)
        nz = mags > 0
        offsets = coords[nz, 1:] - np.asarray(seed_coord[1:]) * 2
        assert offsets.min() >= -10
        assert offsets.max() <= 11

    def test_link_extends_beyond_bypass_bound(self):
        t = dense_slab(48, 4)
        enc = build_encoder(
            small_config(channels=4, s=7, r=3, link_enabled=True), seed=0
        )
        coords, mags, seed_coord = erf_map(t, enc, 1)
        nz = mags > 0
        offsets = np.abs(coords[nz, 1:] - np.asarray(seed_coord[1:]) * 2)
        assert offsets.max() > 11

    def test_zero_input_features_zero_map(self):
        coords = dense_slab(12, 4).coords
        t = SparseTensor(coords, np.zeros((coords.shape[0], 1)))
        enc = build_encoder(small_config(channels=4), seed=0)
        _, mags, _ = erf_map(t, enc, 1)
        assert (mags == 0).all()

    def test_90_mass_radius_dominance(self):
        t = dense_slab(96, 4, dtype=np.float32)
        radii = {}
        for enabled in (False, True):
            enc = build_encoder(
                small_config(channels=8, s=7, r=3, link_enabled=enabled,
                             dtype=np.float32),
                seed=0,
            )
            coords, mags, seed_coord = erf_map(t, enc, 2)
            radii[enabled] = erf_mass_radius(coords, mags, seed_coord, 2)
        assert radii[True] > radii[False]

    def test_empty_scene_rejected(self):
        t = SparseTensor(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 1)))
        enc = build_encoder(small_config(channels=2), seed=0)
        with pytest.raises(ConfigError):
            erf_map(t, enc, 1)


# the segmentation benchmark's encoder on its first cube cloud of seed 3:
# 120k uniform points in a 3.5 m cube, voxelized at 0.05 m (about 101k voxels)
ERF_HASH_SCRIPT = """
import hashlib
import numpy as np
from link3d import core, net
rng = np.random.default_rng([3, 1, 0])
points = rng.uniform(-1.75, 1.75, size=(120000, 3))
intensity = rng.uniform(0.0, 1.0, size=(120000, 1))
cfg = net.EncoderConfig(in_channels=1, stem_channels=16, stage_channels=(16,) * 4,
                        block_sizes=(3,) * 4, neighbor_ranges=(2,) * 4, mode="pure",
                        dtype=np.float32)
t = core.voxelize(core.PointCloud(points, intensity), 0.05)
_, mags, _ = net.erf_map(t, net.build_encoder(cfg, seed=3), 4)
print(hashlib.sha256(mags.tobytes()).hexdigest())
"""


def test_erf_bits_do_not_depend_on_blas_threads():
    # forward outputs and input gradients run every product in 256-row blocks
    src = str(Path(link3d.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", ERF_HASH_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        hashes.append(run.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


# the float32 8->32 conv's features' gradient, whose bits the contiguous W[o].T
# copy moved, on the dense plan and on the pair plan of a 70%-full 24^3 box
CONV_GRAD_HASH_SCRIPT = """
import dataclasses
import hashlib
import numpy as np
from link3d import SparseTensor, conv
rng = np.random.default_rng(8)
axis = np.arange(24)
xyz = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
xyz = xyz[rng.random(xyz.shape[0]) < 0.7]
coords = np.concatenate([np.zeros((xyz.shape[0], 1), np.int64), xyz], axis=1)
t = SparseTensor(coords, rng.normal(size=(coords.shape[0], 8)).astype(np.float32))
w = conv.ConvWeights.random(3, 8, 32, rng, dtype=np.float32)
km = conv.build_kernel_map(t, 3, 1)
assert km.box is not None
grad_out = rng.normal(size=(km.num_out, 32)).astype(np.float32)
for plan in (km, dataclasses.replace(km, box=None)):
    gf = conv.sparse_conv_backward(grad_out, t, w, plan, params=False)[0]
    print(hashlib.sha256(gf.tobytes()).hexdigest())
"""


def test_conv_features_grad_bits_do_not_depend_on_blas_threads():
    src = str(Path(link3d.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", CONV_GRAD_HASH_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs.append(run.stdout.split())
    # two plans, the same bits on each, at either thread count
    assert len(runs[0]) == 2 and runs[0][0] == runs[0][1]
    assert runs[0] == runs[1]


class TestToyTrain:
    def _scene(self, rng, n=120):
        t = random_scene(rng, n, 10, 1)
        labels = rng.integers(0, 3, size=t.num_voxels)
        return t, labels

    def test_lr_zero_constant_trace(self, rng):
        t, labels = self._scene(rng)
        trace = toy_train([t], [labels], small_config(channels=4), 5, 0.0,
                          num_classes=3, seed=0)
        assert len(trace) == 5
        assert all(x == trace[0] for x in trace)

    def test_initial_loss_near_log_num_classes(self, rng):
        t, labels = self._scene(rng)
        trace = toy_train([t], [labels], small_config(channels=4), 1, 0.1,
                          num_classes=3, seed=0)
        assert abs(trace[0] - np.log(3)) < 0.1

    def test_overfit_with_doubled_lr_search(self, rng):
        t, labels = self._scene(rng, n=90)
        cfg = small_config(channels=8)
        final = None
        lr = 0.25
        while lr <= 2.0:
            trace = toy_train([t], [labels], cfg, 150, lr, num_classes=3, seed=0)
            final = trace[-1]
            if final < 0.1:
                break
            lr *= 2
        assert final is not None and final < 0.1

    def test_label_validation(self, rng):
        t, _ = self._scene(rng)
        bad = np.full(t.num_voxels, 9)
        with pytest.raises(ConfigError):
            toy_train([t], [bad], small_config(channels=4), 1, 0.1, num_classes=4)

    @pytest.mark.parametrize(
        "case,error",
        [("no-scenes", ConfigError), ("no-labels", ConfigError), ("empty-scene", ConfigError),
         ("short-labels", DimensionError), ("2d-labels", DimensionError)],
    )
    def test_input_validation(self, rng, case, error):
        t, labels = self._scene(rng)
        empty = SparseTensor(np.zeros((0, 4), np.int64), np.zeros((0, 1)))
        scenes, scene_labels = {
            "no-scenes": ([], []),
            "no-labels": ([t], []),
            "empty-scene": ([empty], [np.zeros(0, np.int64)]),
            "short-labels": ([t], [labels[:-1]]),
            "2d-labels": ([t], [labels[:, None]]),
        }[case]
        with pytest.raises(error):
            toy_train(scenes, scene_labels, small_config(channels=4), 1, 0.1, num_classes=3)


class TestReluBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_equal_where(self, rng, dtype):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5])
        g = np.concatenate([np.repeat(special, special.size), rng.normal(size=1000)])
        x = np.concatenate([np.tile(special, special.size), rng.normal(size=1000)])
        g, x = (v.astype(dtype).reshape(-1, 4) for v in (g, x))
        got = relu_backward(g, x)
        want = np.where(x > 0, g, 0)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # -0.0, and NaN in g where x > 0, keep their bits; x = NaN or 0 gives +0.0
        assert np.signbit(got[(x > 0) & (g == 0) & np.signbit(g)]).all()
        assert not np.signbit(got[~(x > 0)]).any()


class TestDownsampleLabels:
    def test_majority_and_tie_break(self):
        coords = np.array(
            [(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 4, 4, 4)],
            dtype=np.int64,
        )
        out_coords = coarsen(coords, 2)[0]
        labels = np.array([2, 1, 1, 3])
        down = downsample_labels(coords, labels, 4)
        by_coord = {tuple(c): l for c, l in zip(out_coords, down)}
        assert by_coord[(0, 0, 0, 0)] == 1  # two votes for 1, one for 2
        assert by_coord[(0, 2, 2, 2)] == 3

    def test_exact_tie_takes_smaller_label(self):
        coords = np.array([(0, 0, 0, 0), (0, 1, 1, 1)], dtype=np.int64)
        assert coarsen(coords, 2)[0].shape[0] == 1
        down = downsample_labels(coords, np.array([3, 1]), 4)
        assert down[0] == 1


    def test_matches_loop_with_ties(self, rng):
        t = random_scene(rng, 400, 10, 1, batches=2)
        labels = rng.integers(0, 3, size=t.num_voxels)
        out_coords = coarsen(t.coords, 2)[0]
        down = downsample_labels(t.coords, labels, 3)
        by_coord = {tuple(c): i for i, c in enumerate(out_coords.tolist())}
        fl = t.coords.copy()
        fl[:, 1:] = np.floor_divide(fl[:, 1:], 2)
        rows = np.array([by_coord[tuple(c)] for c in fl.tolist()])
        counts = np.zeros((out_coords.shape[0], 3), dtype=np.int64)
        np.add.at(counts, (rows, labels), 1)
        assert ((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        np.testing.assert_array_equal(
            down, loop_majority(rows, labels, out_coords.shape[0], 3)
        )


class TestSegModel:
    def test_loss_decreases_one_step(self, rng):
        t = random_scene(rng, 100, 10, 1)
        labels = rng.integers(0, 4, size=t.num_voxels)
        cfg = small_config(channels=6)
        trace = toy_train([t], [labels], cfg, 30, 0.5, num_classes=4, seed=1)
        assert trace[-1] < trace[0]

    def test_label_length_checked(self, rng):
        t = random_scene(rng, 50, 8, 1)
        model = SegModel(small_config(channels=4), 4, seed=0)
        with pytest.raises(ValueError):
            model.loss_and_grad(t, np.zeros(3, dtype=np.int64))
