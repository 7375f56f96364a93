"""Encoder built from the large-kernel operator, plus ERF probing and toy training.

Topology: a stem of two submanifold 3^3 conv-norm-ReLU layers, then four
stages of [stride-2 conv-norm-ReLU downsample -> residual branch +
large-kernel module], branch outputs combined by element-wise sum.  Every
norm is a per-voxel LayerNorm over channels, and each ``Norm`` module holds
its own scale and shift.  Parameter paths follow attribute names
(``stage2.link_module.link.weight``); ``Module`` says how a module finds its
children.  All layers carry hand-written backward passes so the whole stack
can be gradient-checked against finite differences and trained with plain
gradient descent.  Each ``backward``
takes ``params``: with False it returns the same input gradient but computes
no parameter gradient, which is all the ERF probe needs.

Each ``forward`` takes ``grad``.  With True a layer keeps on itself the
intermediates its ``backward`` reads; with False, the default for inference,
it keeps none and drops what an earlier forward kept, and a ``backward``
without kept state raises ConfigError.  Use one model instance per thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .conv import (
    ConvWeights,
    build_kernel_map,
    sparse_conv_backward,
    sparse_conv_forward,
)
from .core import SparseTensor, coarsen
from .data import majority_vote
from .errors import ConfigError, DimensionError, DivergenceError
from .layers import (
    layer_norm_backward,
    layer_norm_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from .link import KernelGenerator, LinKConfig, link_backward, link_forward

ERF_MASS = 0.9  # share of the ERF map's total magnitude its radius holds


class Module:
    """Minimal parameter tree: named parameter and gradient walks.

    A module's children are its Module-valued attributes, in the order they
    were set; a child's dotted prefix is its attribute name.
    """

    def __init__(self):
        self.grads = {}

    def _params(self) -> dict:
        return {}

    def named_modules(self):
        """``(dotted prefix, module)`` for this module and each one under it, pre-order."""
        yield "", self
        for child_name, child in vars(self).items():
            if isinstance(child, Module):
                for prefix, m in child.named_modules():
                    yield f"{child_name}.{prefix}", m

    def named_parameters(self):
        for prefix, m in self.named_modules():
            for name, arr in m._params().items():
                yield prefix + name, arr

    def named_grads(self):
        for prefix, m in self.named_modules():
            for name in m._params():
                yield prefix + name, m.grads.get(name)

    def zero_grads(self):
        for _, m in self.named_modules():
            m.grads = {}

    def _keep(self, grad: bool, **state):
        """Keep ``state`` as attributes for the backward pass when ``grad``;
        otherwise set them to None, dropping what an earlier forward kept."""
        for name, value in state.items():
            setattr(self, name, value if grad else None)

    def _kept(self, *names):
        """The attributes ``_keep`` kept, in order; ConfigError when the last
        forward did not run with ``grad=True``."""
        values = [getattr(self, name, None) for name in names]
        if any(v is None for v in values):
            raise ConfigError(
                f"{type(self).__name__}.backward needs a forward with grad=True first"
            )
        return values

    def _acc(self, name: str, value: np.ndarray):
        if name in self.grads:
            self.grads[name] = self.grads[name] + value
        else:
            self.grads[name] = value

    def sgd_step(self, lr: float):
        grads = dict(self.named_grads())
        for name, arr in self.named_parameters():
            g = grads.get(name)
            if g is not None:
                arr -= (lr * g).astype(arr.dtype, copy=False)


class PointwiseConv(Module):
    """1^3 convolution: per-voxel channel mixing, y = x W + b."""

    def __init__(self, c_in, c_out, rng, scale=None, dtype=np.float64):
        super().__init__()
        if scale is None:
            scale = np.sqrt(2.0 / c_in)
        self.weight = rng.normal(0.0, scale, size=(c_in, c_out)).astype(dtype)
        self.bias = np.zeros(c_out, dtype=dtype)

    def _params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, feats: np.ndarray, grad: bool = False) -> np.ndarray:
        self._keep(grad, _x=feats)
        return feats @ self.weight.astype(feats.dtype, copy=False) + self.bias.astype(
            feats.dtype, copy=False
        )

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        (x,) = self._kept("_x")
        if params:
            self._acc("weight", x.T @ grad)
            self._acc("bias", grad.sum(axis=0))
        return grad @ self.weight.astype(grad.dtype, copy=False).T


class SparseConv(Module):
    """Submanifold (stride 1) or downsampling (K=2, stride 2) sparse conv."""

    def __init__(self, kernel_size, c_in, c_out, rng, stride=1, dtype=np.float64):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.conv = ConvWeights.random(kernel_size, c_in, c_out, rng, stride, dtype)

    def _params(self):
        return {"weight": self.conv.weights, "bias": self.conv.bias}

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        # one map per coordinate set: tensors from with_features share the cache
        key = (self.kernel_size, self.stride)
        km = t._maps.get(key)
        if km is None:
            km = t._maps[key] = build_kernel_map(t, self.kernel_size, self.stride)
        self._keep(grad, _t=t, _km=km)
        return sparse_conv_forward(t, self.conv, km)

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        t, km = self._kept("_t", "_km")
        gf, gw, gb = sparse_conv_backward(grad, t, self.conv, km, params=params)
        if params:
            self._acc("weight", gw.astype(np.float64))
            self._acc("bias", gb.astype(np.float64))
        return gf


class Norm(Module):
    """Per-voxel LayerNorm over channels with a per-channel scale and shift,
    initialised to the identity."""

    def __init__(self, channels, dtype=np.float64):
        super().__init__()
        self.scale = np.ones(channels, dtype=dtype)
        self.shift = np.zeros(channels, dtype=dtype)

    def _params(self):
        return {"scale": self.scale, "shift": self.shift}

    def forward(self, feats: np.ndarray, grad: bool = False) -> np.ndarray:
        y, cache = layer_norm_forward(feats, self.scale, self.shift)
        self._keep(grad, _cache=cache)
        return y

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        (cache,) = self._kept("_cache")
        gx, gs, gsh = layer_norm_backward(grad, cache, params=params)
        if params:
            self._acc("scale", gs.astype(np.float64))
            self._acc("shift", gsh.astype(np.float64))
        return gx


class LinKOp(Module):
    """The generated-kernel block-proxy operator as a trainable layer."""

    def __init__(self, channels, block_size, neighbor_range, mode, groups, rng):
        super().__init__()
        gen = KernelGenerator.create(channels, groups=groups, mode=mode,
                                     kernel_extent=block_size * neighbor_range, rng=rng)
        self.cfg = LinKConfig(block_size, neighbor_range, gen)

    def _params(self):
        gen = self.cfg.generator
        p = {"weight": gen.weight}
        if gen.mode == "augmented":
            p["frequency"] = gen.frequency
        return p

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        if grad:
            out, state = link_forward(t, self.cfg, return_state=True)
        else:
            out, state = link_forward(t, self.cfg), None
        self._keep(grad, _t=t, _state=state)
        return out

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        t, state = self._kept("_t", "_state")
        gf, gw, gfreq = link_backward(grad, t, self.cfg, state, params=params)
        if params:
            self._acc("weight", gw)
            if self.cfg.generator.mode == "augmented":
                self._acc("frequency", gfreq)
        return gf


class ResidualBlock(Module):
    """y = ReLU(Norm(Conv3(ReLU(Norm(Conv3(x))))) + x)."""

    def __init__(self, channels, rng, dtype=np.float64):
        super().__init__()
        self.conv1 = SparseConv(3, channels, channels, rng, dtype=dtype)
        self.conv2 = SparseConv(3, channels, channels, rng, dtype=dtype)
        self.norm1 = Norm(channels, dtype=dtype)
        self.norm2 = Norm(channels, dtype=dtype)

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        h = self.conv1.forward(t, grad).features
        h = self.norm1.forward(h, grad)
        self._keep(grad, _pre1=h)
        h = relu(h)
        h = self.conv2.forward(t.with_features(h), grad).features
        h = self.norm2.forward(h, grad)
        h = h + t.features
        self._keep(grad, _pre2=h)
        return t.with_features(relu(h))

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        pre1, pre2 = self._kept("_pre1", "_pre2")
        g = relu_backward(grad, pre2)
        skip = g
        g = self.norm2.backward(g, params)
        g = self.conv2.backward(g, params)
        g = relu_backward(g, pre1)
        g = self.norm1.backward(g, params)
        g = self.conv1.backward(g, params)
        return g + skip


class ResidualBranch(Module):
    """Two residual blocks in sequence."""

    def __init__(self, channels, rng, dtype=np.float64):
        super().__init__()
        self.block1 = ResidualBlock(channels, rng, dtype)
        self.block2 = ResidualBlock(channels, rng, dtype)

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        return self.block2.forward(self.block1.forward(t, grad), grad)

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        return self.block1.backward(self.block2.backward(grad, params), params)


class LinKModule(Module):
    """Large-kernel branch with a 3^3 bypass: y = ReLU(Norm(LK(PW(x)) + Conv3(x))).

    The pointwise mix feeds only the large-kernel branch; the bypass sees the
    raw module input.  ``link_enabled=False`` zeroes the large-kernel branch
    while keeping the parameter layout identical.
    """

    def __init__(self, channels, block_size, neighbor_range, mode, groups, rng,
                 link_enabled=True, dtype=np.float64):
        super().__init__()
        self.pointwise = PointwiseConv(channels, channels, rng, dtype=dtype)
        self.link = LinKOp(channels, block_size, neighbor_range, mode, groups, rng)
        self.bypass = SparseConv(3, channels, channels, rng, dtype=dtype)
        self.norm = Norm(channels, dtype=dtype)
        self.link_enabled = link_enabled

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        h = self.bypass.forward(t, grad).features
        if self.link_enabled:
            mixed = self.pointwise.forward(t.features, grad)
            h = h + self.link.forward(t.with_features(mixed), grad).features
        h = self.norm.forward(h, grad)
        self._keep(grad, _pre=h)
        return t.with_features(relu(h))

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        (pre,) = self._kept("_pre")
        g = relu_backward(grad, pre)
        g = self.norm.backward(g, params)
        gin = self.bypass.backward(g, params)
        if self.link_enabled:
            gin = gin + self.pointwise.backward(self.link.backward(g, params), params)
        return gin


class ConvNormReLU(Module):
    """Sparse conv, LayerNorm, ReLU: a stem layer (3^3, stride 1) or a stage's
    downsample (K=2, stride 2, coords become floor(coord / 2))."""

    def __init__(self, kernel_size, c_in, c_out, rng, stride=1, dtype=np.float64):
        super().__init__()
        self.conv = SparseConv(kernel_size, c_in, c_out, rng, stride=stride, dtype=dtype)
        self.norm = Norm(c_out, dtype=dtype)

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        out = self.conv.forward(t, grad)
        h = self.norm.forward(out.features, grad)
        self._keep(grad, _pre=h)
        return out.with_features(relu(h))

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        (pre,) = self._kept("_pre")
        g = relu_backward(grad, pre)
        g = self.norm.backward(g, params)
        return self.conv.backward(g, params)


class Stage(Module):
    """Downsample, then residual branch and large-kernel module summed."""

    def __init__(self, c_in, c_out, block_size, neighbor_range, mode, groups, rng,
                 link_enabled=True, dtype=np.float64):
        super().__init__()
        self.down = ConvNormReLU(2, c_in, c_out, rng, stride=2, dtype=dtype)
        self.residual = ResidualBranch(c_out, rng, dtype)
        self.link_module = LinKModule(
            c_out, block_size, neighbor_range, mode, groups, rng, link_enabled, dtype,
        )

    def forward(self, t: SparseTensor, grad: bool = False) -> SparseTensor:
        d = self.down.forward(t, grad)
        a = self.residual.forward(d, grad).features
        b = self.link_module.forward(d, grad).features
        return d.with_features(a + b)

    def backward(self, grad: np.ndarray, params: bool = True) -> np.ndarray:
        g = self.residual.backward(grad, params) + self.link_module.backward(grad, params)
        return self.down.backward(g, params)


@dataclass
class EncoderConfig:
    """Widths and kernel layout of the four-stage encoder."""

    in_channels: int = 1
    stem_channels: int = 16
    stage_channels: Sequence[int] = (16, 16, 16, 16)
    block_sizes: Sequence[int] = (3, 3, 3, 3)
    neighbor_ranges: Sequence[int] = (2, 2, 2, 2)
    mode: str = "pure"
    groups: int = 1
    link_enabled: bool = True
    dtype: type = np.float64

    def __post_init__(self):
        n = len(self.stage_channels)
        if n != 4:
            raise ConfigError(f"encoder has 4 stages, got {n} widths")
        if len(self.block_sizes) != n or len(self.neighbor_ranges) != n:
            raise ConfigError("block_sizes and neighbor_ranges must match stages")
        if any(c < 1 for c in self.stage_channels) or self.stem_channels < 1:
            raise ConfigError("channel widths must be positive")


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, rng):
        super().__init__()
        dt = cfg.dtype
        self.stem1 = ConvNormReLU(3, cfg.in_channels, cfg.stem_channels, rng, dtype=dt)
        self.stem2 = ConvNormReLU(3, cfg.stem_channels, cfg.stem_channels, rng, dtype=dt)
        self.stages: List[Stage] = []
        c_prev = cfg.stem_channels
        for i, c in enumerate(cfg.stage_channels):
            stage = Stage(
                c_prev, c, cfg.block_sizes[i], cfg.neighbor_ranges[i],
                cfg.mode, cfg.groups, rng, cfg.link_enabled, dt,
            )
            setattr(self, f"stage{i + 1}", stage)
            self.stages.append(stage)
            c_prev = c

    def forward(self, t: SparseTensor, n_stages: Optional[int] = None,
                grad: bool = False) -> List[SparseTensor]:
        """Stage outputs 1..n_stages (default all four).

        Pass ``grad=True`` when a :meth:`backward` follows; the default keeps
        no state for it.
        """
        n_stages = len(self.stages) if n_stages is None else n_stages
        if not 1 <= n_stages <= len(self.stages):
            raise ConfigError(f"n_stages must be in [1, {len(self.stages)}]")
        x = self.stem2.forward(self.stem1.forward(t, grad), grad)
        outs = []
        for stage in self.stages[:n_stages]:
            x = stage.forward(x, grad)
            outs.append(x)
        self._keep(grad, _shapes=[o.features.shape for o in outs])
        return outs

    def backward(self, stage_grads: Sequence[Optional[np.ndarray]],
                 params: bool = True) -> np.ndarray:
        """Chain gradients from any subset of stage outputs back to the input.

        ``stage_grads[i]`` matches the i-th output of the last forward, which
        must have run with ``grad=True``; None entries contribute nothing.
        Returns the gradient w.r.t. the input tensor's features.  Parameter
        gradients accumulate into each module's ``grads``; with
        ``params=False`` none is computed and ``grads`` is left as it was.
        """
        (shapes,) = self._kept("_shapes")
        if len(stage_grads) != len(shapes):
            raise DimensionError(
                f"expected {len(shapes)} stage gradients, got {len(stage_grads)}"
            )
        for i, (gi, shape) in enumerate(zip(stage_grads, shapes)):
            if gi is not None and gi.shape != shape:
                raise DimensionError(
                    f"stage{i + 1} gradient has shape {gi.shape}, expected {shape}"
                )
        g = None
        for i in range(len(shapes) - 1, -1, -1):
            gi = stage_grads[i]
            if gi is not None:
                g = gi if g is None else g + gi
            if g is not None:
                g = self.stages[i].backward(g, params)
        if g is None:
            raise ConfigError("at least one stage gradient is required")
        return self.stem1.backward(self.stem2.backward(g, params), params)


def build_encoder(cfg: EncoderConfig, seed: int = 0) -> Encoder:
    return Encoder(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

def erf_map(t: SparseTensor, encoder: Encoder, target_stage: int):
    """Gradient footprint of one output voxel over the input voxels.

    Runs the encoder to ``target_stage`` (1-based), seeds a ones-vector at
    the stage voxel nearest the stage centroid, and backpropagates to the
    input.  Only the input gradient is computed: no parameter gradient is,
    and every module's ``grads`` is left empty.  Returns (input_coords,
    l1_magnitudes, seed_coord).
    """
    if t.num_voxels == 0:
        raise ConfigError("erf_map requires a non-empty scene")
    if not 1 <= target_stage <= len(encoder.stages):
        raise ConfigError(f"target stage must be in [1, {len(encoder.stages)}]")
    outs = encoder.forward(t, n_stages=target_stage, grad=True)
    top = outs[-1]
    if top.num_voxels == 0:
        raise ConfigError(f"stage {target_stage} has no voxels")
    xyz = top.coords[:, 1:].astype(np.float64)
    centroid = xyz.mean(axis=0)
    seed_row = int(np.argmin(((xyz - centroid) ** 2).sum(axis=1)))
    seed = np.zeros_like(top.features)
    seed[seed_row] = 1.0
    grads: List[Optional[np.ndarray]] = [None] * (target_stage - 1) + [seed]
    encoder.zero_grads()
    g_in = encoder.backward(grads, params=False)
    magnitudes = np.abs(g_in).sum(axis=1)
    return t.coords, magnitudes, top.coords[seed_row]


def erf_mass_radius(coords: np.ndarray, magnitudes: np.ndarray, seed_coord,
                    stage: int) -> int:
    """Smallest Chebyshev radius (input voxel units) holding ``ERF_MASS`` of
    the map.

    The seed voxel at stage k sits at input position seed_xyz * 2^k.
    """
    total = float(magnitudes.sum())
    if total <= 0:
        return 0
    seed_input = np.asarray(seed_coord[1:], dtype=np.int64) * (2 ** stage)
    cheb = np.abs(coords[:, 1:] - seed_input).max(axis=1)
    order = np.argsort(cheb, kind="stable")
    cum = np.cumsum(magnitudes[order])
    idx = int(np.searchsorted(cum, ERF_MASS * total))
    idx = min(idx, cheb.shape[0] - 1)
    return int(cheb[order][idx])


# ---------------------------------------------------------------------------
# toy segmentation head and training loop
# ---------------------------------------------------------------------------

class SegModel(Module):
    """Encoder plus a pointwise class head at stage-1 resolution."""

    def __init__(self, cfg: EncoderConfig, num_classes: int, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(cfg, rng)
        self.head = PointwiseConv(
            cfg.stage_channels[0], num_classes, rng, scale=0.01, dtype=cfg.dtype
        )

    def loss_and_grad(self, t: SparseTensor, stage1_labels: np.ndarray) -> float:
        """Cross-entropy at stage 1; accumulates parameter gradients."""
        stage1 = self.encoder.forward(t, n_stages=1, grad=True)[0]
        if stage1_labels.shape[0] != stage1.num_voxels:
            raise DimensionError("one label per stage-1 voxel required")
        logits = self.head.forward(stage1.features, grad=True)
        loss, dlogits = softmax_cross_entropy(logits, stage1_labels)
        g = self.head.backward(dlogits)
        self.encoder.backward([g])
        return float(loss)


def downsample_labels(coords: np.ndarray, labels: np.ndarray,
                      num_classes: int) -> np.ndarray:
    """Majority vote of member-voxel labels per downsampled voxel.

    Votes come back in the row order of the first stage's coordinates,
    ``coarsen(coords, 2)[0]``.  Ties resolve to the smallest label id.
    """
    coarse, _, inverse, _ = coarsen(coords, 2)
    return majority_vote(inverse, labels, coarse.shape[0], num_classes)


def toy_train(scenes: Sequence[SparseTensor], labels: Sequence[np.ndarray],
              cfg: EncoderConfig, steps: int, lr: float,
              num_classes: int = 4, seed: int = 0) -> List[float]:
    """Plain gradient descent on all parameters; returns the per-step loss.

    ``labels`` hold one class id per input voxel (at most 8 classes); they are
    majority-vote downsampled to stage-1 resolution, where the pointwise head
    and the cross-entropy live.
    """
    if num_classes > 8 or num_classes < 2:
        raise ConfigError("toy training supports 2..8 classes")
    if not scenes or len(labels) != len(scenes):
        raise ConfigError("toy training needs at least one scene and one label array per scene")
    for s, lab in zip(scenes, labels):
        if s.num_voxels == 0:
            raise ConfigError("toy training requires non-empty scenes")
        if np.shape(lab) != (s.num_voxels,):
            raise DimensionError(f"one label per voxel required, got shape {np.shape(lab)} "
                                 f"for {s.num_voxels} voxels")
    stage_labels = [
        downsample_labels(s.coords, lab, num_classes) for s, lab in zip(scenes, labels)
    ]
    model = SegModel(cfg, num_classes, seed=seed)
    trace: List[float] = []
    for step in range(steps):
        model.zero_grads()
        total = 0.0
        # divergence is detected through the loss; the overflow warnings on
        # the way there are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for scene, lab in zip(scenes, stage_labels):
                total += model.loss_and_grad(scene, lab)
        loss = total / len(scenes)
        if not np.isfinite(loss):
            raise DivergenceError(step, loss)
        trace.append(loss)
        if lr != 0.0:
            model.sgd_step(lr / len(scenes))
    return trace
