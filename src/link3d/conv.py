"""Reference submanifold and strided sparse 3D convolution with analytic backward.

The convolution computes ``g_p = sum_n w_n . f_{p+n} + bias`` over the
non-empty neighbors of each output site.  Stride 1 is submanifold: the output
coordinate set equals the input's, so sparsity never dilates.  Stride 2 with a
2x2x2 kernel downsamples onto ``floor(coord / 2)``.

Pair lists in the kernel map are sorted by (out_row, in_row) and offsets are
iterated in a fixed lexicographic order, which pins the floating-point
summation order and makes results bit-reproducible.  The lists come from
the set's one coordinate index, with the same pairs in the same order
either way: a stride-1 map looks every row up, in row order, in the set's
row table (:class:`core.RowTable`) at each offset's flat shift, or without
one in the sorted keys; a stride-2 map calls ``SparseTensor.lookup`` once
per offset, which reads the same table or keys.

Forward and the features' gradient run through one function,
:func:`_run_plan`, on one of two plans, chosen from the coordinate set and
the weight shapes alone, with the same bits:

* the pair plan: one call of the library's gather-accumulate primitive,
  :func:`core._accumulate`, with the kernel weights: for each offset in turn,
  ``out[dst] += x[src] @ W[o]``, in ``core.PAIR_TILE_ROWS``-row tiles of the
  out rows, for which every offset's ``dst`` must ascend.  The forward's
  ``dst`` are the out rows, which ascend on every map.  The features'
  gradient swaps each offset's pairs, with ``dst`` the in rows, ascending
  too, in ``KernelMap.grad_rows``: at stride 1 offset ``-o``'s lists
  (``in_rows[::-1]``, ``out_rows[::-1]``), already sorted by in row; at
  stride 2 the pairs swapped, sorted by in row only where the set's rows are
  not in key order (one pair per in row, so the sort moves no bit).  The
  core module docstring lists the exact ways a product is added;
* the dense plan, for a stride-1 set that fills at least half of its
  (batch, x, y, z) bounding box: one pass of the library's dense-box
  primitive, :func:`core._shift_sum`, on the set's box padded by ``K // 2``
  planes after x, y and z: the row table's layout, where the set has one.
  Each offset is one product per row tile, added in offset order.  The
  features' gradient negates the offsets.

On both plans the features' gradient multiplies by ``W[o].T`` from one
contiguous ``(K^3, c_out, c_in)`` copy of the weights per call, which BLAS
multiplies faster than the transposed view (and with other bits at some
widths; README's "Determinism" lists them).  Both plans multiply in
``core.PRODUCT_ROWS``-row blocks, so a row's product has the same bits on
either.  The core module docstring shows why the dense plan adds the
products to every row in the pair plan's order, plus an empty cell's
product where the pair plan has no term, zero while the weights are finite.

The weights' gradient is one product per offset on either plan, over the
offset's whole pair list: ``x[in_rows[o]].T @ grad_out[out_rows[o]]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import (DENSE_CELLS, DenseBox, RowTable, SparseTensor, _accumulate, _shift_sum,
                   coarsen, fills, lay_out, probe_keys)
from .errors import ConfigError, DimensionError


def kernel_offsets(kernel_size: int, stride: int = 1) -> np.ndarray:
    """Neighbor offsets in fixed lexicographic order.

    Stride 1 requires odd kernel_size and centers the window; stride 2 uses
    the forward window {0, 1}^3 of the K=2 downsampling kernel.
    """
    if stride == 1:
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"stride-1 kernel size must be odd, got {kernel_size}")
        half = kernel_size // 2
        rng = np.arange(-half, half + 1, dtype=np.int64)
    elif stride == 2:
        if kernel_size != 2:
            raise ConfigError(f"stride-2 supports kernel size 2, got {kernel_size}")
        rng = np.arange(0, 2, dtype=np.int64)
    else:
        raise ConfigError(f"stride must be 1 or 2, got {stride}")
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


@dataclass
class KernelMap:
    """Per-offset (in_row, out_row) index pairs for an explicit sparse conv."""

    stride: int
    offsets: np.ndarray              # (K^3, 3)
    in_rows: List[np.ndarray]        # one array per offset
    out_rows: List[np.ndarray]
    out_coords: np.ndarray           # (M, 4)
    num_in: int
    # the features' gradient's (src, dst) lists: each offset's pairs swapped, dst ascending
    grad_rows: Tuple[List[np.ndarray], List[np.ndarray]]
    # stride 2: the output coordinate set, whose tensors share one map cache
    _out: Optional[SparseTensor] = field(default=None, repr=False)
    # stride 1: the set's box, padded by K // 2, when it is dense enough
    box: Optional[DenseBox] = field(default=None, repr=False)

    @property
    def num_out(self) -> int:
        return self.out_coords.shape[0]

    def pair_count(self) -> int:
        return int(sum(r.shape[0] for r in self.in_rows))


def _submanifold_pairs(t: SparseTensor, offsets: np.ndarray, table: Optional[RowTable],
                       in_key_order: bool):
    """Stride-1 pair lists, one per offset after the centre: a gather from
    the set's row ``table`` at the offset's flat shift, or without a table
    one probe of the keys in row order.  Either way every row is looked up
    in row order, so each list comes out sorted by out row.

    Offsets are in lexicographic order, so offset ``-o`` sits at the mirrored
    index and its pairs are offset ``o``'s with in and out swapped, sorted
    again by out row unless the rows are ``in_key_order``; the centre is
    the identity.
    """
    n = offsets.shape[0]
    order = t._order
    rows = np.arange(t.num_voxels, dtype=np.int64)
    # the centre keeps these identity pairs; the loop fills every other offset
    in_rows: List[np.ndarray] = [rows] * n
    out_rows: List[np.ndarray] = [rows] * n
    if table is not None:
        shifts = table.box.shifts(offsets)
        moved = np.empty_like(table.box.cells)
        found = np.empty_like(moved)
    for o in range(n // 2 + 1, n):
        if table is not None:
            # cells are in range (RowTable); "clip" fills out= unbuffered
            np.add(table.box.cells, shifts[o], out=moved)
            np.take(table.rows, moved, out=found, mode="clip")
            dst = np.flatnonzero(found >= 0)
            src = found[dst]
        else:
            dst, pos = probe_keys(t.keys, t._sorted_keys, offsets[o])
            src = order[pos]
        out_rows[o], in_rows[o] = dst, src
        if not in_key_order:
            by_src = np.argsort(src)
            src, dst = src[by_src], dst[by_src]
        out_rows[n - 1 - o], in_rows[n - 1 - o] = src, dst
    return in_rows, out_rows


def build_kernel_map(t: SparseTensor, kernel_size: int, stride: int = 1) -> KernelMap:
    """Enumerate the non-empty neighbor pairs for every output site."""
    offsets = kernel_offsets(kernel_size, stride)
    # rows in key order: the in rows of a list sorted by out row ascend too
    in_key_order = bool((t._order[1:] > t._order[:-1]).all())
    if stride == 1:
        pad = kernel_size // 2
        table = t._table(pad)
        in_rows, out_rows = _submanifold_pairs(t, offsets, table, in_key_order)
        # the dense plan's box: the table's layout where the set has one
        bounds, box = t._bounds(), None
        if fills(bounds, t.num_voxels, DENSE_CELLS):
            box = table.box if table is not None else lay_out(t.coords, bounds, pad)
        return KernelMap(stride, offsets, in_rows, out_rows, t.coords,
                         t.num_voxels, (in_rows[::-1], out_rows[::-1]), box=box)
    # coarsen's sorted keys fix the output row order
    coarse, keys = coarsen(t.coords, 2)[:2]
    out = SparseTensor._from_sorted(coarse, keys, np.zeros((coarse.shape[0], 0), t.dtype))
    query_base = coarse.copy()
    query_base[:, 1:] *= 2
    in_rows = []
    out_rows = []
    all_out = np.arange(coarse.shape[0], dtype=np.int64)
    probe = np.empty_like(query_base)
    for off in offsets:
        rows = t.lookup(np.add(query_base, [0, *off], out=probe))
        hit = rows >= 0
        in_rows.append(rows[hit])
        out_rows.append(all_out[hit])
    grad_rows = (out_rows, in_rows)
    if not in_key_order:
        # the pairs by in row: one pair per in row, so the sort moves no bit
        by_in = [np.argsort(rows) for rows in in_rows]
        grad_rows = tuple([r[by] for r, by in zip(lists, by_in)] for lists in grad_rows)
    return KernelMap(stride, offsets, in_rows, out_rows,
                     coarse, t.num_voxels, grad_rows, out)


@dataclass
class ConvWeights:
    """Dense kernel tensor (K^3, C_in, C_out) plus optional bias."""

    weights: np.ndarray
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.weights.ndim != 3:
            raise DimensionError(
                f"weights must be (K^3, C_in, C_out), got shape {self.weights.shape}"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("weights contain NaN or Inf")
        if self.bias is not None and self.bias.shape != (self.weights.shape[2],):
            raise DimensionError("bias length must equal C_out")

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def c_out(self) -> int:
        return self.weights.shape[2]

    @classmethod
    def random(cls, kernel_size, c_in, c_out, rng, stride=1, dtype=np.float64):
        volume = kernel_offsets(kernel_size, stride).shape[0]
        scale = np.sqrt(2.0 / (volume * c_in))
        w = rng.normal(0.0, scale, size=(volume, c_in, c_out)).astype(dtype)
        return cls(w, np.zeros(c_out, dtype=dtype))


def _dense(km: KernelMap, weights: np.ndarray) -> bool:
    """Whether the dense plan runs: the map has a box, and the weights are
    finite, so an empty cell's zero row adds nothing."""
    return km.box is not None and bool(np.isfinite(weights).all())


def _run_plan(values: np.ndarray, km: KernelMap, weights: np.ndarray, offsets: np.ndarray,
              src_rows, dst_rows, n_out: int) -> np.ndarray:
    """``out[dst_rows[o]] += values[src_rows[o]] @ weights[o]`` into ``n_out`` zero rows: on
    the map's box, moved by ``offsets``, when :func:`_dense` allows it, else on the lists,
    whose ``dst_rows`` each ascend."""
    if _dense(km, weights):
        return _shift_sum(values, km.box, [offsets], weights)
    out = np.zeros((n_out, weights.shape[2]), dtype=values.dtype)
    _accumulate(out, values, src_rows, dst_rows, weights)
    return out


def sparse_conv_forward(t: SparseTensor, w: ConvWeights, km: KernelMap) -> SparseTensor:
    """Apply the kernel over the map's dense box or its pair lists."""
    if km.offsets.shape[0] != w.weights.shape[0]:
        raise DimensionError("kernel map and weights disagree on kernel volume")
    if t.num_channels != w.c_in:
        raise DimensionError(f"input has {t.num_channels} channels, weights expect {w.c_in}")
    if km.num_in != t.num_voxels:
        raise DimensionError("kernel map was built for a different tensor")
    dtype = t.dtype
    out = _run_plan(t.features, km, w.weights.astype(dtype, copy=False), km.offsets,
                    km.in_rows, km.out_rows, km.num_out)
    if w.bias is not None:
        out += w.bias.astype(dtype, copy=False)
    return (km._out if km.stride == 2 else t).with_features(out)


def sparse_conv_backward(grad_out: np.ndarray, t: SparseTensor, w: ConvWeights, km: KernelMap,
                         params: bool = True):
    """Exact adjoint of sparse_conv_forward.

    Returns (grad_features, grad_weights, grad_bias); grad_bias is None when
    the weights carry no bias.  With ``params=False`` only grad_features is
    computed and both parameter gradients are None.
    """
    if grad_out.shape != (km.num_out, w.c_out):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} != ({km.num_out}, {w.c_out})"
        )
    dtype = t.dtype
    # one rounding on entry: every product below is in the tensor's dtype
    grad_out = grad_out.astype(dtype, copy=False)
    # the forward's plan, transposed: offset o reads the cell -o away times W[o].T, copied
    # once to a contiguous array, which BLAS multiplies faster than the transposed view
    weights_t = np.ascontiguousarray(w.weights.astype(dtype, copy=False).transpose(0, 2, 1))
    grad_features = _run_plan(grad_out, km, weights_t, -km.offsets, *km.grad_rows, km.num_in)
    if not params:
        return grad_features, None, None
    # each offset's whole pair list on either plan: a box product sums other rows, other bits
    grad_weights = np.stack([
        np.take(t.features, src, axis=0).T @ np.take(grad_out, dst, axis=0)
        for src, dst in zip(km.in_rows, km.out_rows)
    ])
    grad_bias = grad_out.sum(axis=0) if w.bias is not None else None
    return grad_features, grad_weights, grad_bias
