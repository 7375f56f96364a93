"""Property-based checks of the LinK operator and the sparse convolution
over generated scenes.

LinK scenes vary the block size s in 1..7, the neighbor range r in 1..5, the
group count, the kernel mode, normalization and 1-3 batches, each of which
is empty, a single voxel or a small cluster placed at either edge of the
packable box or near the origin.  Convolution scenes vary the stride, the
kernel size, the channel counts, the batches and how densely a cluster
fills its box.  Runs are derandomized, so every run of one Hypothesis
version checks the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from link3d import COORD_BOUND, ConvWeights, KernelGenerator, LinKConfig, SparseTensor
from link3d import build_kernel_map, link_backward, link_forward, link_oracle
from link3d import sparse_conv_backward, sparse_conv_forward

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PLACEMENTS = ("low", "high", "origin")
MAX_CLUSTER = 40


def place(xyz, axis, placement, span):
    """Move a cluster so it touches the low or high edge of the packable box
    along ``axis``, or sits around the origin."""
    xyz = xyz.copy()
    if placement == "low":
        xyz[:, axis] += -COORD_BOUND - xyz[:, axis].min()
    elif placement == "high":
        xyz[:, axis] += COORD_BOUND - 1 - xyz[:, axis].max()
    else:
        xyz[:, axis] -= span // 2
    return xyz


@st.composite
def link_cases(draw):
    """(tensor, config) on float64 features with a random generator.

    Batches share one cluster and its y, z placement.  With ``wrap`` they
    alternate between the high and the low x edge, so one batch's last x
    column is the next batch's first in packed-key order.
    """
    s = draw(st.integers(1, 7))
    r = draw(st.integers(1, 5))
    groups = draw(st.sampled_from([1, 2]))
    mode = draw(st.sampled_from(["pure", "augmented"]))
    kinds = [draw(st.sampled_from(["cluster", "single", "empty"]))
             for _ in range(draw(st.integers(1, 3)))]
    wrap = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    span = min(2 * s * r + 2, 24)
    cluster = rng.permutation(np.unique(rng.integers(0, span, size=(MAX_CLUSTER, 3)), axis=0))
    yz = [draw(st.sampled_from(PLACEMENTS)) for _ in range(2)]
    parts = []
    for batch, kind in enumerate(kinds):
        if kind == "empty":
            continue
        if wrap:
            x = "high" if batch % 2 == 0 else "low"
        else:
            x = draw(st.sampled_from(PLACEMENTS))
        n = 1 if kind == "single" else draw(st.integers(2, MAX_CLUSTER))
        xyz = cluster[:n]
        for axis, placement in enumerate([x, *yz]):
            xyz = place(xyz, axis, placement, span)
        parts.append(np.concatenate([np.full((xyz.shape[0], 1), batch), xyz], axis=1))
    coords = np.concatenate(parts) if parts else np.zeros((0, 4), dtype=np.int64)
    channels = 2 * groups
    t = SparseTensor(coords, rng.normal(size=(coords.shape[0], channels)))
    gen = KernelGenerator.create(channels, groups=groups, mode=mode,
                                 kernel_extent=s * r, rng=rng)
    if mode == "augmented":
        gen.frequency[:] = rng.uniform(0.5, 2.0, size=gen.frequency.shape)
    return t, LinKConfig(s, r, gen)


@SETTINGS
@given(link_cases())
def test_forward_matches_oracle(case):
    t, cfg = case
    out = link_forward(t, cfg)
    ref = link_oracle(t, cfg)
    assert np.array_equal(out.coords, t.coords)
    assert out.features.shape == t.features.shape
    if t.num_voxels:
        scale = max(1.0, float(np.abs(ref.features).max()))
        assert np.abs(out.features - ref.features).max() <= 1e-12 * scale


@SETTINGS
@given(link_cases())
def test_backward_is_adjoint(case):
    """<L f, g> == <f, L^T g> for the features' gradient."""
    t, cfg = case
    out, state = link_forward(t, cfg, return_state=True)
    g = np.random.default_rng(t.num_voxels).normal(size=out.features.shape)
    grad_features, _, _ = link_backward(g, t, cfg, state)
    lhs = float((out.features * g).sum())
    rhs = float((t.features * grad_features).sum())
    scale = float(np.abs(out.features * g).sum() + np.abs(t.features * grad_features).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


@st.composite
def conv_cases(draw):
    """(tensor, bias-free weights, kernel map) on float64 features.

    Each batch is a cluster of up to ``MAX_CLUSTER`` voxels in a box of edge
    1..8, so offsets cover anything from none to all of the rows; rows are
    shuffled out of key order.
    """
    stride = draw(st.sampled_from([1, 2]))
    kernel = draw(st.sampled_from([1, 3, 5])) if stride == 1 else 2
    c_in, c_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    span = draw(st.integers(1, 8))
    placements = [draw(st.sampled_from(PLACEMENTS)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for batch in range(draw(st.integers(1, 3))):
        xyz = np.unique(rng.integers(0, span, size=(draw(st.integers(1, MAX_CLUSTER)), 3)),
                        axis=0)
        for axis, placement in enumerate(placements):
            xyz = place(xyz, axis, placement, span)
        parts.append(np.concatenate([np.full((xyz.shape[0], 1), batch), xyz], axis=1))
    coords = rng.permutation(np.concatenate(parts))
    t = SparseTensor(coords, rng.normal(size=(coords.shape[0], c_in)))
    w = ConvWeights.random(kernel, c_in, c_out, rng, stride=stride)
    return t, ConvWeights(w.weights), build_kernel_map(t, kernel, stride)


@SETTINGS
@given(conv_cases())
def test_conv_backward_is_adjoint(case):
    """<C f, g> == <f, C^T g> for the features' gradient, and the same
    identity for the weights' gradient, at stride 1 and 2."""
    t, w, km = case
    out = sparse_conv_forward(t, w, km).features
    g = np.random.default_rng(t.num_voxels).normal(size=out.shape)
    grad_features, grad_weights, grad_bias = sparse_conv_backward(g, t, w, km)
    assert grad_bias is None
    lhs = float((out * g).sum())
    for arg, grad in ((t.features, grad_features), (w.weights, grad_weights)):
        rhs = float((arg * grad).sum())
        scale = float(np.abs(out * g).sum() + np.abs(arg * grad).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)
