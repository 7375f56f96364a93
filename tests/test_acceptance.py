"""Acceptance suite: every contract criterion at its pinned tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to stream them).

Decomposition equivalence in augmented mode at 32-bit: the augmented
activation adds an unbounded identity term to the kernel weights, so outputs
grow with the coordinate span.  Both the factorized and the pairwise path
accumulate augmented kernels in float64 and round once to float32; the test
checks that they then agree within the same fixed absolute tolerance as pure
mode.
"""

import statistics
import time
import zlib

import numpy as np
import pytest

from link3d import (
    ConvWeights,
    KernelGenerator,
    LinKConfig,
    SparseTensor,
    build_encoder,
    build_kernel_map,
    count_dense_kernel_params,
    count_generator_params,
    erf_map,
    erf_mass_radius,
    generate_kernel,
    link_forward,
    link_oracle,
    sparse_conv_forward,
    voxelize,
)
from link3d.cli import main as cli_main
from link3d.data import gen_synthetic_scene
from link3d.net import EncoderConfig
from link3d.verify import finite_difference, random_scene, suite_gradient
from oracles import compare_sampled, dense_conv_oracle

GRID = [(s, r, c) for s in (1, 3, 7) for r in (1, 2, 3) for c in (1, 4, 32)]


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")


def scene_extent(s, r):
    # a couple of receptive cubes per scene, independent of voxel budget
    return int(np.clip(2 * s * r + 2, 4, 40))


def decomposition_sweep(mode, dtype, max_voxels=1900):
    worst = 0.0
    for i, (s, r, channels) in enumerate(GRID):
        rng = np.random.default_rng(1000 + i)
        t = random_scene(rng, max_voxels, scene_extent(s, r), channels, dtype)
        assert t.num_voxels <= 2000
        groups = 2 if channels % 2 == 0 else 1
        gen = KernelGenerator.create(channels, groups, mode, s * r, rng)
        cfg = LinKConfig(s, r, gen)
        diff = np.abs(
            link_forward(t, cfg).features - link_oracle(t, cfg).features
        ).max()
        worst = max(worst, float(diff))
    return worst


class TestDecompositionEquivalence:
    """Criterion 1: factorized operator equals the pairwise reference."""

    def test_float64_both_modes(self):
        start = time.perf_counter()
        worst = max(
            decomposition_sweep("pure", np.float64),
            decomposition_sweep("augmented", np.float64),
        )
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12
        report(
            "decomposition_equivalence_64bit", ok,
            f"max_err={worst:.3e} tol=1e-12 ({elapsed:.0f}s, 54 scenes)",
        )
        assert ok
        assert elapsed < 60.0

    def test_float32_pure(self):
        worst = decomposition_sweep("pure", np.float32)
        ok = worst <= 1e-5
        report("decomposition_equivalence_32bit_pure", ok,
               f"max_err={worst:.3e} tol=1e-05")
        assert ok

    def test_float32_augmented(self):
        worst = decomposition_sweep("augmented", np.float32)
        ok = worst <= 1e-5
        report("decomposition_equivalence_32bit_augmented", ok,
               f"max_err={worst:.3e} tol=1e-05")
        assert ok, (
            f"max |delta| = {worst:.3e} exceeds 1e-5: augmented kernel weights "
            "are unbounded, so both paths must accumulate in float64 and round "
            "once to float32 to agree at this tolerance"
        )


class TestSumToProduct:
    """Criterion 2: product form equals the direct offset cosine."""

    def test_ten_thousand_pairs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        gen = KernelGenerator.create(8, 2, "pure", 6, rng)
        a = rng.integers(-80, 80, size=(10_000, 3))
        b = rng.integers(-80, 80, size=(10_000, 3))
        ca, sa = generate_kernel(gen, a)
        cb, sb = generate_kernel(gen, b)
        product_form = ca * cb + sa * sb
        direct = np.tile(
            np.cos((a - b).astype(np.float64) @ gen.weight.T), (1, gen.groups)
        )
        err = float(np.abs(product_form - direct).max())
        elapsed = time.perf_counter() - start
        ok = err <= 1e-12 and elapsed < 1.0
        report("sum_to_product", ok, f"max_err={err:.3e} tol=1e-12 ({elapsed:.2f}s)")
        assert err <= 1e-12
        assert elapsed < 1.0


class TestParameterArithmetic:
    """Criterion 3: dense kernel count and extent-free generator count."""

    def test_counts(self):
        dense = count_dense_kernel_params(21, 32, 64)
        gen_seg = KernelGenerator.create(64, 2, "augmented", 3 * 2)
        gen_det = KernelGenerator.create(64, 2, "augmented", 7 * 3)
        same = count_generator_params(gen_seg) == count_generator_params(gen_det)
        ok = dense == 18_966_528 and same
        report("parameter_arithmetic", ok,
               f"dense21={dense} generator={count_generator_params(gen_seg)}")
        assert dense == 18_966_528
        assert same


class TestCostIndependence:
    """Criterion 4: flat push/pull work and wall time vs growing oracle cost."""

    def test_counters_and_wall_time(self):
        start = time.perf_counter()
        cloud = gen_synthetic_scene(0, 120_000, 3.5, "uniform")
        t = voxelize(cloud, 0.05, dtype=np.float32)
        rng = np.random.default_rng(1)
        t = t.with_features(rng.normal(size=(t.num_voxels, 4)).astype(np.float32))
        assert t.num_voxels >= 100_000

        ranges = (1, 3, 5)
        cfgs = {r: LinKConfig(7, r, KernelGenerator.create(4, 2, "pure", 7 * r, rng))
                for r in ranges}
        saved_rows = {}
        for r, cfg in cfgs.items():
            _, state = link_forward(t, cfg, return_state=True)
            saved_rows[r] = {state.k_cos.shape[0], state.k_sin.shape[0]}
            assert state.phase is None   # the pure-mode backward reads no phase
            link_forward(t, cfg)  # warm
        # round-robin sampling spreads a burst of machine load over all ranges
        samples = {r: [] for r in ranges}
        for _ in range(5):
            for r, cfg in cfgs.items():
                t0 = time.perf_counter()
                link_forward(t, cfg)
                samples[r].append(time.perf_counter() - t0)
        link_ms = {r: statistics.median(v) * 1e3 for r, v in samples.items()}
        oracle_ms = {}
        for r, cfg in cfgs.items():
            t0 = time.perf_counter()
            link_oracle(t, cfg)
            oracle_ms[r] = (time.perf_counter() - t0) * 1e3

        # push and pull read one saved kernel row per voxel at every range
        flat = saved_rows[1] == saved_rows[5] == {t.num_voxels}
        ratio = link_ms[5] / link_ms[1]
        monotone = oracle_ms[1] < oracle_ms[3] < oracle_ms[5]
        elapsed = time.perf_counter() - start
        ok = flat and ratio < 2.0 and monotone and elapsed < 120.0
        report(
            "cost_independence", ok,
            f"ratio={ratio:.2f} link_ms={ {k: round(v, 1) for k, v in link_ms.items()} } "
            f"oracle_ms={ {k: round(v) for k, v in oracle_ms.items()} } ({elapsed:.0f}s)",
        )
        assert flat
        assert ratio < 2.0
        assert monotone
        assert elapsed < 120.0


class TestGradientSuites:
    """Criterion 5: analytic adjoints vs finite differences, three seeds."""

    def test_per_op_three_seeds(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in (0, 1, 2):
            for mode in ("pure", "augmented"):
                res = suite_gradient(seed, mode, 2)
                worst = max(worst, res.max_err)
        ok = worst <= 1e-4
        report("gradient_per_op", ok,
               f"max_rel_err={worst:.3e} tol=1e-04 ({time.perf_counter()-start:.0f}s)")
        assert ok

    def test_end_to_end_three_seeds(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            t = random_scene(rng, 60, 10, 1)
            assert t.num_voxels <= 100
            cfg = EncoderConfig(
                in_channels=1, stem_channels=3, stage_channels=(3, 3, 3, 3),
                block_sizes=(3,) * 4, neighbor_ranges=(2,) * 4,
                mode="augmented", groups=1, dtype=np.float64,
            )
            enc = build_encoder(cfg, seed=seed)
            outs = enc.forward(t)
            probes = [rng.normal(size=o.features.shape) for o in outs]

            def loss():
                return float(sum(
                    (o.features * p).sum() for o, p in zip(enc.forward(t), probes)
                ))

            enc.zero_grads()
            enc.forward(t, grad=True)
            enc.backward(probes)
            grads = dict(enc.named_grads())
            for name, arr in enc.named_parameters():
                # seeded by the path, so module order does not move the samples
                sample_rng = np.random.default_rng([seed + 50, zlib.crc32(name.encode())])
                fd = finite_difference(loss, arr, sample=2, rng=sample_rng)
                worst = max(worst, compare_sampled(fd, grads[name]))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-3 and elapsed < 120.0
        report("gradient_end_to_end", ok,
               f"max_rel_err={worst:.3e} tol=1e-03 ({elapsed:.0f}s)")
        assert worst <= 1e-3
        assert elapsed < 120.0


class TestSparseConvOracle:
    """Criterion 6: submanifold conv equals dense-grid convolution."""

    def test_twenty_scenes(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t = random_scene(rng, 150, 8, 3, dtype=np.float32)
            w = ConvWeights.random(3, 3, 4, rng)
            out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
            expected = dense_conv_oracle(
                t.coords, t.features.astype(np.float64), w.weights, w.bias, 3
            )
            for c, f in zip(out.coords, out.features):
                worst = max(worst, float(np.abs(f - expected[tuple(c)]).max()))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-5 and elapsed < 10.0
        report("sparse_conv_oracle", ok,
               f"max_err={worst:.3e} tol=1e-05 ({elapsed:.1f}s)")
        assert worst <= 1e-5
        assert elapsed < 10.0


class TestErfDominance:
    """Criterion 7: large-kernel branch strictly widens the 90%-mass radius."""

    def test_slab_paired_run(self):
        start = time.perf_counter()
        width, depth = 96, 4
        xs, ys, zs = np.meshgrid(
            np.arange(width), np.arange(width), np.arange(depth), indexing="ij"
        )
        coords = np.stack(
            [np.zeros(xs.size, dtype=np.int64), xs.ravel(), ys.ravel(), zs.ravel()],
            axis=1,
        )
        feats = np.random.default_rng(0).uniform(
            0.5, 1.5, size=(coords.shape[0], 1)
        ).astype(np.float32)
        t = SparseTensor(coords, feats)
        radii = {}
        for enabled in (False, True):
            cfg = EncoderConfig(
                in_channels=1, stem_channels=8, stage_channels=(8,) * 4,
                block_sizes=(7,) * 4, neighbor_ranges=(3,) * 4,
                mode="pure", groups=1, link_enabled=enabled, dtype=np.float32,
            )
            enc = build_encoder(cfg, seed=0)
            c, m, seed_coord = erf_map(t, enc, 2)
            radii[enabled] = erf_mass_radius(c, m, seed_coord, 2)
        elapsed = time.perf_counter() - start
        ok = radii[True] > radii[False] and elapsed < 60.0
        report("erf_dominance", ok,
               f"link_r90={radii[True]} bypass_r90={radii[False]} ({elapsed:.0f}s)")
        assert radii[True] > radii[False]
        assert elapsed < 60.0


class TestInvariances:
    """Criterion 8: identity, translation, and submanifold preservation."""

    def test_randomized_suites(self):
        start = time.perf_counter()
        rng = np.random.default_rng(9)

        # single-voxel identity, every (s, r), exact
        feats = rng.normal(size=(1, 4))
        single = SparseTensor([(0, 4, -6, 2)], feats)
        identity_ok = True
        for s in (1, 3, 7):
            for r in (1, 2, 3):
                cfg = LinKConfig(s, r, KernelGenerator.create(4, 1, "pure", s * r, rng))
                identity_ok &= np.array_equal(link_forward(single, cfg).features, feats)

        # block translation, bit-identical in deterministic mode
        translation_ok = True
        for s, r in [(3, 2), (7, 3)]:
            t = random_scene(rng, 400, 16, 4)
            cfg = LinKConfig(s, r, KernelGenerator.create(4, 2, "pure", s * r, rng))
            shift = rng.integers(1, 6, size=3) * rng.choice([-1, 1], size=3) * s
            moved = t.coords.copy()
            moved[:, 1:] += shift
            out1 = link_forward(t, cfg)
            out2 = link_forward(SparseTensor(moved, t.features), cfg)
            translation_ok &= np.array_equal(out1.features, out2.features)

        # submanifold coordinate preservation through stride-1 ops and stages
        t = random_scene(rng, 300, 16, 4)
        w = ConvWeights.random(3, 4, 4, rng)
        conv_out = sparse_conv_forward(t, w, build_kernel_map(t, 3, 1))
        cfg = LinKConfig(3, 2, KernelGenerator.create(4, 2, "pure", 6, rng))
        link_out = link_forward(t, cfg)
        submanifold_ok = np.array_equal(conv_out.coords, t.coords) and np.array_equal(
            link_out.coords, t.coords
        )
        enc = build_encoder(
            EncoderConfig(in_channels=4, stem_channels=4, stage_channels=(4,) * 4,
                          block_sizes=(3,) * 4, neighbor_ranges=(2,) * 4),
            seed=0,
        )
        prev = t.coords
        for out in enc.forward(t):
            down = prev.copy()
            down[:, 1:] = np.floor_divide(down[:, 1:], 2)
            submanifold_ok &= np.array_equal(
                np.unique(down, axis=0), np.unique(out.coords, axis=0)
            )
            prev = out.coords

        elapsed = time.perf_counter() - start
        ok = identity_ok and translation_ok and submanifold_ok and elapsed < 30.0
        report(
            "invariances", ok,
            f"identity={identity_ok} translation_bitwise={translation_ok} "
            f"submanifold={submanifold_ok} ({elapsed:.0f}s)",
        )
        assert identity_ok
        assert translation_ok
        assert submanifold_ok
        assert elapsed < 30.0


class TestToyOverfit:
    """Criterion 9: the default toy preset overfits a fixed 200-voxel scene."""

    def test_default_preset(self, tmp_path):
        start = time.perf_counter()
        out = tmp_path / "trace.csv"
        rc = cli_main(["train-toy", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        losses = np.array([float(l.split(",")[1]) for l in lines[1:]])
        elapsed = time.perf_counter() - start
        ok = (
            len(losses) == 500
            and np.isfinite(losses).all()
            and losses[-1] < 0.1
            and losses[-1] < losses[0] / 10
            and elapsed < 180.0
        )
        report(
            "toy_overfit", ok,
            f"loss0={losses[0]:.3f} final={losses[-1]:.4f} steps={len(losses)} "
            f"({elapsed:.0f}s)",
        )
        assert np.isfinite(losses).all()
        assert losses[-1] < 0.1
        assert losses[-1] < losses[0] / 10
        assert elapsed < 180.0
