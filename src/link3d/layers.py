"""Per-voxel numeric primitives with analytic backward passes.

Everything here operates on plain (N, C) feature matrices; sparse structure
is handled by the callers.  LayerNorm normalizes each voxel over its channel
dimension, which keeps it independent of batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

LN_EPS = 1e-5


@dataclass
class LayerNormParams:
    scale: np.ndarray  # (C,)
    shift: np.ndarray  # (C,)

    @classmethod
    def identity(cls, channels: int, dtype=np.float64) -> "LayerNormParams":
        return cls(np.ones(channels, dtype=dtype), np.zeros(channels, dtype=dtype))


def _into(op, a, b, out: np.ndarray) -> np.ndarray:
    """``op(a, b)``, written into ``out`` when the result has ``out``'s dtype."""
    return op(a, b, out=out if np.result_type(a, b) == out.dtype else None)


def layer_norm_forward(x: np.ndarray, params: LayerNormParams):
    """Normalize each row over channels, then apply per-channel scale/shift.

    Returns (y, cache) where cache feeds :func:`layer_norm_backward`.  Works
    in place where the dtypes allow, with the bits of the plain formulas.
    """
    if x.shape[1] != params.scale.shape[0]:
        raise DimensionError(
            f"LayerNorm over {params.scale.shape[0]} channels applied to {x.shape[1]}"
        )
    mean = x.mean(axis=1, keepdims=True)
    x_hat = x - mean            # centered, normalized in place below
    sq = x_hat * x_hat
    var = sq.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat *= inv_std
    y = _into(np.multiply, x_hat, params.scale, sq)
    y = _into(np.add, y, params.shift, y)
    return y, (x_hat, inv_std, params.scale)


def layer_norm_backward(grad_y: np.ndarray, cache, params: bool = True):
    """Gradients of layer_norm_forward w.r.t. input, scale, and shift.

    With ``params=False`` only the input gradient is computed; the scale and
    shift gradients come back as None.  The input gradient,
    ``inv_std * (g - mean(g) - x_hat * mean(g * x_hat))`` with
    ``g = grad_y * scale``, is formed in place where the dtypes allow.
    """
    x_hat, inv_std, scale = cache
    grad_shift = grad_y.sum(axis=0) if params else None
    grad_scale = (grad_y * x_hat).sum(axis=0) if params else None
    g = grad_y * scale
    g_mean = g.mean(axis=1, keepdims=True)
    gx = g * x_hat
    gx_mean = gx.mean(axis=1, keepdims=True)
    g -= g_mean
    grad_x = _into(np.subtract, g, np.multiply(x_hat, gx_mean, out=gx), g)
    grad_x = _into(np.multiply, grad_x, inv_std, grad_x)
    return grad_x, grad_scale, grad_shift


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bits of ``np.where(x > 0, grad_y, 0)``: ``grad_y``'s bits ANDed
    with all ones where ``x > 0`` and with zero (+0.0) elsewhere, without
    branching on the mask."""
    ints = np.dtype(f"i{grad_y.dtype.itemsize}")
    mask = (x > 0).astype(ints)
    np.negative(mask, out=mask)
    mask &= grad_y.view(ints)
    return mask.view(grad_y.dtype)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows plus the gradient w.r.t. logits."""
    if logits.shape[0] != labels.shape[0]:
        raise DimensionError("one label per logit row required")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = -log_probs[np.arange(n), labels].mean()
    grad = exp / total
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
