"""Self-verification suites driven by ``link verify``.

Each suite returns its worst observed error against a fixed tolerance.  The
kernel-identity suites (sum-to-product, offset purity) and the gradient suite
always run in float64, where their stated tolerances are meaningful; the
scene-level suites honor the configured precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .conv import ConvWeights, build_kernel_map, sparse_conv_backward, sparse_conv_forward
from .core import SparseTensor
from .link import (
    KernelGenerator,
    LinKConfig,
    _gather,
    anchored_xyz,
    generate_kernel,
    link_backward,
    link_forward,
    link_oracle,
    partition_blocks,
    pull,
    push_proxies,
)

DECOMPOSITION_TOL = {32: 1e-5, 64: 1e-12}
KERNEL_IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-4
FD_STEP = 1e-6


@dataclass
class SuiteResult:
    name: str
    status: str          # PASS | FAIL | SKIP
    max_err: float
    tol: float
    note: str = ""

    def line(self) -> str:
        if self.status == "SKIP":
            return f"suite {self.name}: skipped ({self.note})"
        return (
            f"suite {self.name}: max_err={self.max_err:.3e} "
            f"tol={self.tol:.0e} {self.status}"
        )


def random_scene(rng, n_voxels: int, extent: int, channels: int,
                 dtype=np.float64, batches: int = 1) -> SparseTensor:
    """Random duplicate-free voxel scene in a centered cube of edge ``extent``,
    in ``batches`` batches."""
    lo = -(extent // 2)
    coords = np.concatenate(
        [
            rng.integers(0, batches, size=(n_voxels, 1)),
            rng.integers(lo, lo + extent, size=(n_voxels, 3)),
        ],
        axis=1,
    )
    coords = np.unique(coords, axis=0)
    feats = rng.normal(0.0, 1.0, size=(coords.shape[0], channels)).astype(dtype)
    return SparseTensor(coords, feats)


def _generator(rng, channels, groups, mode, s, r) -> KernelGenerator:
    return KernelGenerator.create(
        channels, groups=groups, mode=mode, kernel_extent=s * r, rng=rng
    )


def relative_error(a, b) -> float:
    """Max absolute deviation scaled by the larger array magnitude, in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-8)
    return float(np.abs(a - b).max()) / scale


def suite_oracle_equivalence(seed, mode, groups, precision,
                             corrupt: bool = False) -> SuiteResult:
    """Factorized push/pull equals the direct pairwise reference.

    Both modes share one absolute tolerance per precision.  Augmented-mode
    kernels are unbounded, but both paths accumulate them in float64 and
    round once to the feature dtype, so they agree to the output format's
    own rounding.
    """
    rng = np.random.default_rng(seed)
    dtype = np.float32 if precision == 32 else np.float64
    tol = DECOMPOSITION_TOL[precision]
    worst = 0.0
    for s, r, channels in [(1, 2, groups), (3, 2, 4 * groups), (7, 3, 8 * groups)]:
        extent = int(np.clip(2 * s * r + 2, 4, 40))
        t = random_scene(rng, 500, extent, channels, dtype)
        cfg = LinKConfig(s, r, _generator(rng, channels, groups, mode, s, r))
        reference = link_oracle(t, cfg)
        if corrupt:
            k_cos, k_sin = generate_kernel(cfg.generator, anchored_xyz(t), dtype)
            part = partition_blocks(t, s)
            proxies = push_proxies(part, t.features, k_cos, k_sin)
            with np.errstate(divide="ignore", invalid="ignore"):
                g_cos, g_sin, count, _ = _gather(part, proxies, r, drop_offset=(0, 0, 0))
                out = pull(part, g_cos, g_sin, count, k_cos, k_sin)
            diff = np.abs(out - reference.features)
            worst = max(worst, float(np.nan_to_num(diff, nan=np.inf).max()))
        else:
            out = link_forward(t, cfg)
            worst = max(worst, float(np.abs(out.features - reference.features).max()))
    status = "PASS" if worst <= tol else "FAIL"
    return SuiteResult("oracle_equivalence", status, worst, tol)


def suite_sum_to_product(seed, mode) -> SuiteResult:
    if mode != "pure":
        return SuiteResult("sum_to_product", "SKIP", 0.0, 0.0, "augmented")
    rng = np.random.default_rng(seed)
    gen = _generator(rng, 8, 2, "pure", 3, 3)
    a = rng.integers(-40, 40, size=(10_000, 3))
    b = rng.integers(-40, 40, size=(10_000, 3))
    ca, sa = generate_kernel(gen, a)
    cb, sb = generate_kernel(gen, b)
    product_form = ca * cb + sa * sb
    diff_phase = (a - b).astype(np.float64) @ gen.weight.T
    direct = np.tile(np.cos(diff_phase), (1, gen.groups))
    err = float(np.abs(product_form - direct).max())
    status = "PASS" if err <= KERNEL_IDENTITY_TOL else "FAIL"
    return SuiteResult("sum_to_product", status, err, KERNEL_IDENTITY_TOL)


def suite_offset_purity(seed, mode) -> SuiteResult:
    """Pair kernel depends on the offset only: kappa(p, x) == kappa(p+t, x+t)."""
    if mode != "pure":
        return SuiteResult("offset_purity", "SKIP", 0.0, 0.0, "augmented")
    rng = np.random.default_rng(seed)
    gen = _generator(rng, 8, 1, "pure", 3, 3)
    p = rng.integers(-30, 30, size=(2000, 3))
    x = rng.integers(-30, 30, size=(2000, 3))
    t = rng.integers(-50, 50, size=(2000, 3))
    cp, sp = generate_kernel(gen, p)
    cx, sx = generate_kernel(gen, x)
    cpt, spt = generate_kernel(gen, p + t)
    cxt, sxt = generate_kernel(gen, x + t)
    err = float(np.abs((cp * cx + sp * sx) - (cpt * cxt + spt * sxt)).max())
    status = "PASS" if err <= KERNEL_IDENTITY_TOL else "FAIL"
    return SuiteResult("offset_purity", status, err, KERNEL_IDENTITY_TOL)


def suite_translation(seed, mode, groups, precision) -> SuiteResult:
    """Shifting every coordinate by s * t leaves the output bit-identical."""
    rng = np.random.default_rng(seed)
    dtype = np.float32 if precision == 32 else np.float64
    worst = 0.0
    for s, r in [(3, 2), (7, 3)]:
        channels = 4 * groups
        t = random_scene(rng, 400, 20, channels, dtype)
        cfg = LinKConfig(s, r, _generator(rng, channels, groups, mode, s, r))
        shift = rng.integers(1, 6, size=3) * rng.choice([-1, 1], size=3) * s
        moved = t.coords.copy()
        moved[:, 1:] += shift
        t2 = SparseTensor(moved, t.features)
        out1 = link_forward(t, cfg)
        out2 = link_forward(t2, cfg)
        if not np.array_equal(out1.features, out2.features):
            worst = max(worst, float(np.abs(out1.features - out2.features).max()))
    status = "PASS" if worst == 0.0 else "FAIL"
    return SuiteResult("translation", status, worst, 0.0, "bit-identical")


def suite_identity(seed, mode, groups, precision) -> SuiteResult:
    """A single-voxel scene reconstructs its own feature for every (s, r)."""
    rng = np.random.default_rng(seed)
    dtype = np.float32 if precision == 32 else np.float64
    worst = 0.0
    channels = 4 * groups
    feats = rng.normal(0.0, 1.0, size=(1, channels)).astype(dtype)
    coords = np.array([[0, 11, -7, 3]], dtype=np.int64)
    t = SparseTensor(coords, feats)
    for s in (1, 3, 7):
        for r in (1, 2, 3):
            cfg = LinKConfig(s, r, _generator(rng, channels, groups, mode, s, r))
            out = link_forward(t, cfg)
            worst = max(worst, float(np.abs(out.features - feats).max()))
    status = "PASS" if worst == 0.0 else "FAIL"
    return SuiteResult("identity", status, worst, 0.0, "exact")


def finite_difference(fun, arr: np.ndarray, h: float = FD_STEP, sample=None, rng=None):
    """Central-difference gradient of a scalar function of ``arr``, perturbed
    in place; with ``sample``, only that many random entries are probed and
    the rest are NaN."""
    flat = arr.reshape(-1)
    grad = np.full(flat.shape[0], np.nan)
    if sample is None or sample >= flat.shape[0]:
        idx = np.arange(flat.shape[0])
    else:
        idx = (rng or np.random.default_rng(0)).choice(flat.shape[0], size=sample, replace=False)
    for i in idx:
        keep = flat[i]
        flat[i] = keep + h
        hi = fun()
        flat[i] = keep - h
        lo = fun()
        flat[i] = keep
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(arr.shape)


def suite_gradient(seed, mode, groups) -> SuiteResult:
    """Analytic adjoints match central finite differences (float64)."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    # large-kernel operator: features, weight, frequency
    channels = 2 * groups
    t = random_scene(rng, 40, 8, channels, np.float64)
    cfg = LinKConfig(2, 2, _generator(rng, channels, groups, mode, 2, 2))
    probe = rng.normal(0.0, 1.0, size=t.features.shape)

    def link_loss():
        return float((link_forward(t, cfg).features * probe).sum())

    out, state = link_forward(t, cfg, return_state=True)
    gf, gw, gfreq = link_backward(probe, t, cfg, state)
    arrays = [t.features, cfg.generator.weight]
    analytic = [gf, gw]
    if mode == "augmented":
        arrays.append(cfg.generator.frequency)
        analytic.append(gfreq)
    for arr, an in zip(arrays, analytic):
        worst = max(worst, relative_error(finite_difference(link_loss, arr), an))

    # reference sparse convolution: features, weights, bias
    t2 = random_scene(rng, 30, 6, 3, np.float64)
    w = ConvWeights.random(3, 3, 2, rng)
    km = build_kernel_map(t2, 3, 1)
    probe2 = rng.normal(0.0, 1.0, size=(t2.num_voxels, 2))

    def conv_loss():
        return float((sparse_conv_forward(t2, w, km).features * probe2).sum())

    gf2, gw2, gb2 = sparse_conv_backward(probe2, t2, w, km)
    for arr, an in zip([t2.features, w.weights, w.bias], [gf2, gw2, gb2]):
        worst = max(worst, relative_error(finite_difference(conv_loss, arr), an))

    status = "PASS" if worst <= GRADIENT_TOL else "FAIL"
    return SuiteResult("gradient", status, worst, GRADIENT_TOL)


def run_suites(seed: int, mode: str, groups: int, precision: int,
               corrupt: bool = False) -> List[SuiteResult]:
    return [
        suite_oracle_equivalence(seed, mode, groups, precision, corrupt),
        suite_sum_to_product(seed + 1, mode),
        suite_offset_purity(seed + 2, mode),
        suite_translation(seed + 3, mode, groups, precision),
        suite_identity(seed + 4, mode, groups, precision),
        suite_gradient(seed + 5, mode, groups),
    ]
