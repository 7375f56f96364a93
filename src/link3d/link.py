"""Large-kernel aggregation through generated trigonometric kernels and block proxies.

Instead of storing a dense kernel tensor, each voxel gets a cos/sin weight
pair from a small linear map over its integer coordinates.  Voxels push their
weighted features into one proxy per block (an s^3 cube of the grid), a
``[cos | sin]`` row of sums; blocks sum the proxies of their r^3
neighborhood, and each voxel pulls its output from its own block's gathered
sums.  The cos/sin product identity

    cos(a - b) = cos(a) cos(b) + sin(a) sin(b)

makes the pulled result equal a direct pairwise aggregation with an
offset-dependent kernel, while the per-voxel work stays one push plus one
pull no matter how large the (r * s)^3 receptive cube grows.  Each voxel's
aggregate is divided by the number of voxels in its block window, which the
gather sums as one more column, the block populations, beside the proxies.

Per-voxel work runs in row tiles.  The kernel generation (the phase's matrix
product, its float64 range reduction and cos/sin), the pull, and the
backward's ``grad_out / count`` and kernel gradient each run one tile of
``TILE_ROWS`` rows at a time into preallocated outputs, so their temporaries
stay in cache.  Every step is elementwise or a per-row product, so a tile
gives the bits of the whole array.  The one exception is a one-row matrix
product, which numpy runs on its vector path; ``core._tiles`` joins a short
tail to the tile before it, so no tile has one row unless the whole input
does.  The reductions over rows, the weight gradient's matrix product and
augmented mode's frequency-gradient sum, run on the whole array.

The push sums each block's members in *slots*: slot j holds the j-th member
of every block with more than j members.  Blocks are ranked by descending
population, so slot j's blocks are the first n_j ranks.  Slot j then adds
its gathered rows to the first n_j rows of a rank-ordered accumulator with
no scatter, and one gather puts the sums back in key order.

The neighborhood sum is separable: it runs as three 1-D box sums, along x,
then y, then z, each adding r shifted neighbors.  Overlapping windows share
their partial sums this way, so the block-level work grows with r rather
than r^3.  The gather plans the sum once per forward, and the backward pass
replays the plan transposed.  There are two plans, chosen by occupancy alone:

* the block grid (:class:`BlockGrid`), when the occupied blocks fill at least
  half of their (batch, x, y, z) bounding box: three passes of the library's
  dense-box primitive (the core module docstring describes it), along x, y
  and z, on the blocks' box padded by the window's reach, and no key is
  probed.  An offset of a whole extent or more along its axis reads no block
  and is dropped;
* the sorted-key plan (:class:`GatherSets`) otherwise: the occupied block
  keys dilated along z, and then y, are the targets of the x and y passes,
  and each pass probes its r offsets once and keeps the (dst, src) row pairs.

Summation order is the library's, not numpy's.  A block proxy starts at
+0.0 and adds its members' weighted features one at a time in ascending
voxel row, one slot at a time.  A box-sum pass starts at +0.0 and adds its r
shifted neighbors in ascending offset; each pass is one call of the
library's gather-accumulate primitive (``core._accumulate``) on the key
plan, one pass of its dense-box primitive on the grid.  The transposed pass
adds them in descending offset, which is the ascending order of the
reflected window.  Both plans add the same terms to every cell that feeds
an output in that order.  Where the key plan has no term, the grid adds a
zero cell's +0.0 (no block, or a move past the box's edge) or nothing (a
dropped shift).  An accumulator that starts at +0.0 never holds -0.0, so
adding +0.0 leaves it unchanged, and the two plans give the same bits.

``link_oracle`` is the quadratic-cost pairwise form of the same operator and
serves as the correctness reference for ``link_forward``.

Kernel phases are computed on per-batch *anchored* coordinates (the batch's
smallest-key voxel is subtracted).  In pure mode the realized operator is
identical to using raw coordinates, because the kernel only ever depends on
coordinate differences; anchoring additionally makes outputs bit-identical
under rigid translations by multiples of the block size.  Augmented mode is
origin-dependent by construction, and the anchor fixes its origin to a
canonical per-batch choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .core import (
    DENSE_CELLS,
    TILE_ROWS,
    DenseBox,
    SparseTensor,
    _accumulate,
    _shift_sum,
    _tiles,
    box_bounds,
    coarsen,
    dilate_keys,
    fills,
    lay_out,
    probe_keys,
)
from .errors import ConfigError, DimensionError

ORACLE_CHUNK_ELEMS = 1 << 22  # cap on pairwise work-array size per slice


# ---------------------------------------------------------------------------
# kernel generation
# ---------------------------------------------------------------------------

@dataclass
class KernelGenerator:
    """Linear map from voxel coordinates to per-channel cos/sin kernel weights.

    ``weight`` has one 3-vector per generated channel; ``frequency`` rescales
    the phase in augmented mode and is pinned to 1 in pure mode.  The
    ``channels / groups`` generated channels are block-repeated ``groups``
    times, so every generated weight serves several feature channels.
    """

    weight: np.ndarray          # (channels/groups, 3)
    frequency: np.ndarray       # (channels/groups,)
    mode: str                   # "pure" or "augmented"
    groups: int
    channels: int

    def __post_init__(self):
        if self.mode not in ("pure", "augmented"):
            raise ConfigError(f"unknown activation mode {self.mode!r}")
        if self.groups < 1 or self.channels < 1:
            raise ConfigError("groups and channels must be positive")
        if self.channels % self.groups != 0:
            raise ConfigError(
                f"groups={self.groups} does not divide channels={self.channels}"
            )
        gc = self.gen_channels
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.frequency = np.asarray(self.frequency, dtype=np.float64)
        if self.weight.shape != (gc, 3):
            raise ConfigError(f"weight must have shape ({gc}, 3)")
        if self.frequency.shape != (gc,):
            raise ConfigError(f"frequency must have shape ({gc},)")
        if (self.frequency <= 0).any():
            raise ConfigError("frequency entries must be positive")
        if self.mode == "pure" and not np.all(self.frequency == 1.0):
            raise ConfigError("pure mode fixes frequency at 1")

    @property
    def gen_channels(self) -> int:
        return self.channels // self.groups

    @classmethod
    def create(cls, channels, groups=1, mode="pure", kernel_extent=1, rng=None):
        """Random generator whose phase spans about one period over the extent."""
        rng = rng if rng is not None else np.random.default_rng(0)
        gc = channels // max(groups, 1)
        span = np.pi / max(kernel_extent, 1)
        weight = rng.uniform(-span, span, size=(gc, 3))
        return cls(
            weight=weight,
            frequency=np.ones(gc),
            mode=mode,
            groups=groups,
            channels=channels,
        )


def _working_dtype(mode: str, dtype) -> np.dtype:
    """Dtype the operator computes in for features of ``dtype``.

    Augmented kernels carry the unbounded identity term, so their products
    and sums reach magnitudes where narrow-float accumulation loses more than
    the output format holds.  Augmented mode therefore computes in float64 and
    rounds once to the feature dtype; pure kernels are unit-magnitude and
    compute in the feature dtype itself.
    """
    if mode == "augmented":
        return np.promote_types(dtype, np.float64)
    return np.dtype(dtype)


def _kernel_tile(gen: KernelGenerator, x: np.ndarray, dtype):
    """Phase and generated-width cos/sin values of the coordinate rows ``x``.

    A pure-mode phase narrower than float64 is formed in float64 and reduced
    to [-pi, pi] before rounding: at coordinates in the thousands a float32
    product carries an absolute error of about 1e-4, which cos/sin would pass
    straight on to the kernel.
    """
    if gen.mode == "pure":
        phase = x.astype(np.float64) @ gen.weight.T     # (rows, C/g)
        if np.dtype(dtype) != np.float64:
            # phase - 2pi * rint(phase / 2pi), in one float64 temporary
            turns = np.divide(phase, 2 * np.pi)
            np.rint(turns, out=turns)
            turns *= 2 * np.pi
            phase -= turns
            phase = phase.astype(dtype)
        return phase, np.cos(phase), np.sin(phase)
    phase = x.astype(dtype) @ gen.weight.astype(dtype, copy=False).T
    freq = gen.frequency.astype(dtype, copy=False)
    scaled = freq * phase
    return phase, np.cos(scaled) + phase, np.sin(scaled) + phase


def _kernel_parts(gen: KernelGenerator, coords_xyz: np.ndarray, dtype):
    """Group-tiled (N, C) cos/sin kernels, and the generated-width phase that
    augmented mode's backward reads (None in pure mode).

    Formed one row tile at a time (``_kernel_tile``), so the float64 phase
    and its range reduction stay in cache.
    """
    x = np.asarray(coords_xyz)
    if x.ndim != 2 or x.shape[1] != 3:
        raise DimensionError(f"coords must be (N, 3), got shape {x.shape}")
    n, gc = x.shape[0], gen.gen_channels
    k_cos = np.empty((n, gen.channels), dtype)
    k_sin = np.empty_like(k_cos)
    phase = np.empty((n, gc), dtype) if gen.mode == "augmented" else None
    for rows in _tiles(n, TILE_ROWS):
        ph, kc, ks = _kernel_tile(gen, x[rows], dtype)
        # the generated channels, block-repeated across the groups
        k_cos[rows].reshape(-1, gen.groups, gc)[:] = kc[:, None]
        k_sin[rows].reshape(-1, gen.groups, gc)[:] = ks[:, None]
        if phase is not None:
            phase[rows] = ph
    return phase, k_cos, k_sin


def generate_kernel(gen: KernelGenerator, coords_xyz, dtype=np.float64):
    """Per-voxel kernel weight pair, group-tiled to the full channel width.

    Pure mode returns (cos(Wx), sin(Wx)); augmented mode adds the learnable
    frequency and the identity term, (cos(a.Wx) + Wx, sin(a.Wx) + Wx).
    """
    _, k_cos, k_sin = _kernel_parts(gen, coords_xyz, dtype)
    return k_cos, k_sin


def count_dense_kernel_params(kernel_size: int, c_in: int, c_out: int) -> int:
    """Parameter count of a stored dense kernel of the same spatial size."""
    if kernel_size < 1 or c_in < 1 or c_out < 1:
        raise ConfigError("arguments must be positive")
    return kernel_size ** 3 * c_in * c_out


def count_generator_params(gen: KernelGenerator) -> int:
    """Learnable scalars in the generator; independent of the kernel extent."""
    extra = gen.gen_channels if gen.mode == "augmented" else 0
    return 3 * gen.gen_channels + extra


# ---------------------------------------------------------------------------
# block partition and proxies
# ---------------------------------------------------------------------------

@dataclass
class BlockPartition:
    """Assignment of every voxel to its floor-divided block.

    Blocks are numbered in ascending packed-key order of their (batch, bx,
    by, bz) coordinates; only non-empty blocks exist.  Their *rank* orders
    them by descending population, ties in key order, so the blocks with
    more than j members are the ranks below some n_j.
    """

    block_size: int
    block_coords: np.ndarray       # (M, 4) int64, sorted by packed key
    block_keys: np.ndarray         # (M,) packed keys, ascending
    voxel_block: np.ndarray        # (N,) block id per voxel row
    populations: np.ndarray        # (M,) member counts
    row_order: np.ndarray          # (N,) voxel rows grouped by block id, ascending within
    segment_starts: np.ndarray     # (M,) start of each block's run in row_order
    pop_rank: np.ndarray           # (M,) each block's rank
    # slot j: the j-th smallest member row of each of the n_j blocks with
    # more than j members, in rank order
    slot_rows: List[np.ndarray]

    @property
    def num_blocks(self) -> int:
        return self.block_coords.shape[0]


def partition_blocks(t: SparseTensor, block_size: int) -> BlockPartition:
    """Group voxels into batch-local s^3 blocks via floor division."""
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    blocks, keys, inverse, counts = coarsen(t.coords, block_size)
    m = keys.shape[0]
    # a stable sort keeps each block's rows ascending; narrow ids sort by radix
    row_order = np.argsort(inverse.astype(np.min_scalar_type(max(m - 1, 0))), kind="stable")
    starts = np.cumsum(counts) - counts
    by_rank = np.argsort(-counts, kind="stable")
    pop_rank = np.empty(m, dtype=np.int64)
    pop_rank[by_rank] = np.arange(m)
    first = starts[by_rank]
    # at_least[k]: the number of blocks with at least k members
    at_least = np.cumsum(np.bincount(counts)[::-1])[::-1]
    return BlockPartition(
        block_size=block_size,
        block_coords=blocks,
        block_keys=keys,
        voxel_block=inverse,
        populations=counts,
        row_order=row_order,
        segment_starts=starts,
        pop_rank=pop_rank,
        slot_rows=[row_order[first[:n] + j] for j, n in enumerate(at_least[1:])],
    )


def neighbor_window(neighbor_range: int) -> Tuple[int, int]:
    """Per-axis block offsets [lo, hi] of the neighborhood, lo = -(r // 2).

    The window is centered for odd r and floor-centered for even r.
    """
    r = neighbor_range
    if r < 1:
        raise ConfigError(f"neighbor range must be >= 1, got {r}")
    lo = -(r // 2)
    return lo, lo + r - 1


def push_proxies(
    part: BlockPartition, features: np.ndarray, k_cos: np.ndarray, k_sin: np.ndarray
) -> np.ndarray:
    """Deposit every voxel's kernel-weighted feature into its block proxy.

    Returns the per-block sums as one (M, 2C) array, ``[cos | sin]``, each
    summed from +0.0 over the block's members in ascending row order.  Each
    half sums in rank order: slot j adds its rows to the first n_j
    accumulators, and one gather puts the blocks back in key order.
    """
    n = part.voxel_block.shape[0]
    if features.shape[0] != n or k_cos.shape != features.shape or k_sin.shape != features.shape:
        raise DimensionError("features and kernel weights must share shape (N, C)")
    c = features.shape[1]
    dtype = np.result_type(k_cos, features)
    proxies = np.empty((part.num_blocks, 2 * c), dtype)
    weighted = np.empty(features.shape, dtype)
    buf = np.empty((part.num_blocks, c), dtype)
    for half, k in enumerate((k_cos, k_sin)):
        np.multiply(k, features, out=weighted)
        acc = np.zeros((part.num_blocks, c), dtype)
        for rows in part.slot_rows:
            m = rows.shape[0]
            # rows are in range by construction; "clip" fills buf unbuffered
            acc[:m] += np.take(weighted, rows, axis=0, out=buf[:m], mode="clip")
        np.take(acc, part.pop_rank, axis=0, out=proxies[:, half * c : (half + 1) * c])
    return proxies


class GatherSets(NamedTuple):
    """The gather's sorted-key plan: the sorted block key sets its
    intermediate passes are evaluated at, and every pass's row pairs, which
    ``link_backward`` replays transposed."""

    along_zy: np.ndarray   # x-pass targets: occupied blocks dilated along z, then y
    along_z: np.ndarray    # y-pass targets: occupied blocks dilated along z
    # per pass (x, y, z): (dst rows, src rows), one array each per offset lo..hi
    passes: tuple


class BlockGrid(NamedTuple):
    """The gather's dense plan, for blocks that fill at least half of their
    bounding box in (batch, x, y, z) key fields."""

    occupied: np.ndarray   # x-pass targets: the padded box's cells in key order, True at a block
    box: DenseBox          # the blocks' box, padded by the longest kept offset
    passes: tuple          # per pass (x, y, z): the (x, y, z) moves of its kept offsets


def _key_plan(keys: np.ndarray, lo: int, hi: int) -> GatherSets:
    """Probe the 3 x r (dst, src) pairs of the separable box sum over the
    sorted block ``keys``, x pass first."""
    along_z = dilate_keys(keys, 2, lo, hi)
    along_zy = dilate_keys(along_z, 1, lo, hi)
    passes = []
    for dst, src, axis in ((along_zy, keys, 0), (along_z, along_zy, 1), (keys, along_z, 2)):
        offset = [0, 0, 0]
        probes = []
        for d in range(lo, hi + 1):
            offset[axis] = d
            probes.append(probe_keys(dst, src, offset))
        passes.append(tuple(zip(*probes)))
    return GatherSets(along_zy, along_z, tuple(passes))


def _grid_plan(coords: np.ndarray, lo: int, hi: int) -> Optional[BlockGrid]:
    """The dense plan for the (M, 4) block ``coords`` in key order, or None
    when :func:`core.fills` finds them too sparse for it.

    An offset of a whole extent or more along its axis reads no block, so it
    is dropped, and the box is padded by the longest offset kept.  Key order
    is coordinate order, so a block's cell rank in the box is its row.
    """
    bounds = box_bounds(coords)
    if not fills(bounds, coords.shape[0], DENSE_CELLS):
        return None
    kept = [[d for d in range(lo, hi + 1) if abs(d) < e] for e in bounds[1][1:]]
    box = lay_out(coords, bounds, max(abs(d) for axis in kept for d in axis))
    occupied = np.zeros(math.prod(box.shape), dtype=bool)
    occupied[box.cells] = True
    # each axis's kept offsets as (x, y, z) moves along it
    passes = tuple(np.outer(ds, np.eye(3, dtype=np.int64)[axis]) for axis, ds in enumerate(kept))
    return BlockGrid(occupied, box, passes)


def _box_sum(values, sets, adjoint=False):
    """Sum of per-block ``values`` over each block's window, by ``sets``' plan.

    Three 1-D passes, x then y then z, each adding its r offsets in ascending
    order.  With ``adjoint`` the passes run transposed, z then y then x, each
    with its offsets reversed: offset d's pairs swapped are offset -d's of the
    reflected window, so this computes the transpose of the forward sum
    exactly.  On a :class:`GatherSets` plan each pass is one primitive call,
    its pairs swapped in the adjoint; on a :class:`BlockGrid` it is one pass
    of the dense-box primitive, its moves negated in the adjoint.
    """
    if isinstance(sets, BlockGrid):
        passes = sets.passes
        if adjoint:
            passes = [-moves[::-1] for moves in reversed(passes)]
        return _shift_sum(values, sets.box, passes)
    sizes = [sets.along_zy.shape[0], sets.along_z.shape[0], values.shape[0]]
    passes = sets.passes
    if adjoint:
        sizes = [sizes[1], sizes[0], sizes[2]]
        passes = [(src[::-1], dst[::-1]) for dst, src in reversed(passes)]
    for size, (dst, src) in zip(sizes, passes):
        out = np.zeros((size, values.shape[1]), values.dtype)
        _accumulate(out, values, src, dst)
        values = out
    return values


def _gather(
    part: BlockPartition,
    proxies: np.ndarray,
    neighbor_range: int,
    drop_offset: Optional[Tuple[int, int, int]] = None,
):
    """Sum neighbor-block proxies and populations; returns (g_cos, g_sin,
    count, sets) with the plan that ``link_backward`` replays.

    cos, sin and population run through one separable box sum side by side.
    The populations are integers, so their float sums, and the counts, are
    exact while a neighborhood holds fewer than 2^24 voxels.  ``drop_offset``
    leaves out one block offset of the window (the sum without it); an offset
    outside the window changes nothing.
    """
    lo, hi = neighbor_window(neighbor_range)
    keys = part.block_keys
    sets = _grid_plan(part.block_coords, lo, hi)
    if sets is None:
        sets = _key_plan(keys, lo, hi)
    c = proxies.shape[1] // 2
    stacked = np.concatenate(
        [proxies, part.populations[:, None].astype(proxies.dtype)], axis=1
    )
    sums = _box_sum(stacked, sets)
    if drop_offset is not None and all(lo <= d <= hi for d in drop_offset):
        rows, src = probe_keys(keys, keys, drop_offset)
        sums[rows] -= stacked[src]
    count = np.rint(sums[:, 2 * c]).astype(np.int64)
    return sums[:, :c], sums[:, c : 2 * c], count, sets


def pull(
    part: BlockPartition,
    g_cos: np.ndarray,
    g_sin: np.ndarray,
    count: np.ndarray,
    k_cos: np.ndarray,
    k_sin: np.ndarray,
) -> np.ndarray:
    """Per-voxel aggregates, (N, C), from the block sums ``_gather`` returns:
    each voxel's kernel-weighted window sum divided by its window's voxel
    ``count``."""
    b = part.voxel_block
    out = np.empty(k_cos.shape, np.result_type(g_cos, g_sin, k_cos, k_sin))
    for rows in _tiles(b.shape[0], TILE_ROWS):
        br = b[rows]
        tile = g_cos[br] * k_cos[rows]
        tile += g_sin[br] * k_sin[rows]
        tile /= count[br][:, None].astype(out.dtype)
        out[rows] = tile
    return out


# ---------------------------------------------------------------------------
# the composed operator
# ---------------------------------------------------------------------------

@dataclass
class LinKConfig:
    """Block size s, neighbor range r, and the kernel generator to use."""

    block_size: int
    neighbor_range: int
    generator: KernelGenerator

    def __post_init__(self):
        if self.block_size < 1 or self.neighbor_range < 1:
            raise ConfigError("block_size and neighbor_range must be >= 1")

    @property
    def kernel_extent(self) -> int:
        """Edge length in voxels of the aggregation cube, r * s."""
        return self.block_size * self.neighbor_range


@dataclass
class LinKState:
    """Forward intermediates needed by the exact backward pass."""

    partition: BlockPartition
    anchored_xyz: np.ndarray
    phase: Optional[np.ndarray]  # augmented mode's (N, C/g) phase; None in pure mode
    k_cos: np.ndarray
    k_sin: np.ndarray
    g_cos: np.ndarray           # gathered neighborhood sums, (M, C)
    g_sin: np.ndarray
    count: np.ndarray           # voxels per block neighborhood, (M,)
    gather_sets: Union[GatherSets, BlockGrid]


def anchored_xyz(t: SparseTensor) -> np.ndarray:
    """Voxel xyz relative to the batch's smallest-key voxel.

    The anchor shifts rigidly with the scene, so these coordinates are exactly
    invariant under whole-scene translation.
    """
    xyz = t.coords[:, 1:]
    if t.num_voxels == 0:
        return xyz.copy()
    order = t._order
    sorted_batches = t.coords[order, 0]
    # key order keeps each batch in one run; the run's first row anchors it
    first = np.flatnonzero(np.diff(sorted_batches, prepend=-1))
    anchor_of = np.empty_like(order)
    anchor_of[order] = np.repeat(order[first], np.diff(first, append=order.shape[0]))
    return xyz - xyz[anchor_of]


def link_forward(t: SparseTensor, cfg: LinKConfig, return_state: bool = False):
    """Push -> gather -> pull composition of the block-proxy operator.

    Per-voxel cost does not depend on the kernel extent: each voxel
    contributes one push and one pull.  Gathering is three 1-D box sums, on
    the blocks' dense bounding box or over the occupied blocks dilated along
    the axes still to be summed, so its work grows with r, not r^3.

    Precision: pure mode computes in the feature dtype, after forming a
    narrower kernel phase in float64 (see ``_kernel_parts``).  Augmented mode
    computes the kernels and accumulates push, gather and pull in float64,
    then rounds the output once to the feature dtype; the saved state stays
    in float64.
    """
    if t.num_channels != cfg.generator.channels:
        raise DimensionError(
            f"tensor has {t.num_channels} channels, generator expects "
            f"{cfg.generator.channels}"
        )
    work = _working_dtype(cfg.generator.mode, t.dtype)
    coords = anchored_xyz(t)
    phase, k_cos, k_sin = _kernel_parts(cfg.generator, coords, work)
    part = partition_blocks(t, cfg.block_size)
    proxies = push_proxies(part, t.features.astype(work, copy=False), k_cos, k_sin)
    g_cos, g_sin, count, sets = _gather(part, proxies, cfg.neighbor_range)
    pulled = pull(part, g_cos, g_sin, count, k_cos, k_sin)
    out = t.with_features(pulled.astype(t.dtype, copy=False))
    if not return_state:
        return out
    state = LinKState(
        partition=part,
        anchored_xyz=coords,
        phase=phase,
        k_cos=k_cos,
        k_sin=k_sin,
        g_cos=g_cos,
        g_sin=g_sin,
        count=count,
        gather_sets=sets,
    )
    return out, state


def link_backward(grad_out: np.ndarray, t: SparseTensor, cfg: LinKConfig, state: LinKState,
                  params: bool = True):
    """Exact adjoint of link_forward.

    Returns (grad_features, grad_weight, grad_frequency); grad_frequency is a
    zero vector in pure mode, where the frequency is not learnable.
    Computes in the same working dtype as the forward pass; grad_features
    comes back in the feature dtype, grad_weight and grad_frequency in float64.
    With ``params=False`` only grad_features is computed (push, adjoint box
    sum, pull) and both generator gradients are None.
    """
    if state is None:
        raise ConfigError("link_backward requires the state saved by link_forward")
    if grad_out.shape != t.features.shape:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} != features shape {t.features.shape}"
        )
    gen = cfg.generator
    part = state.partition
    b = part.voxel_block
    dtype = _working_dtype(gen.mode, t.features.dtype)
    n, c = grad_out.shape

    # pull: out = (g_cos[b] * k_cos + g_sin[b] * k_sin) / count[b]; its
    # adjoint divides grad_out by the count, and in the gathered sums is
    # then push's per-block segment sum
    g = np.empty((n, c), np.result_type(grad_out, dtype))
    for rows in _tiles(n, TILE_ROWS):
        np.divide(grad_out[rows], state.count[b[rows]][:, None].astype(dtype), out=g[rows])
    dg = push_proxies(part, g, state.k_cos, state.k_sin)

    # gather: the forward's box-sum plan, replayed transposed
    dproxy = _box_sum(dg, state.gather_sets, adjoint=True)
    dproxy_cos, dproxy_sin = dproxy[:, :c], dproxy[:, c:]

    # push: proxy = sum over members of k * f; its adjoint is a pull.  It
    # runs one row tile at a time, and with ``params`` each tile's gathered
    # dproxy rows also feed the kernels' gradient: the pull's term, then the
    # push's, with the group tiling undone, into the phase's gradient
    grad_features = np.empty(t.features.shape, t.features.dtype)
    gc, groups = gen.gen_channels, gen.groups
    if params:
        features = t.features.astype(dtype, copy=False)
        freq = gen.frequency.astype(dtype, copy=False)
        dphase = np.empty((n, gc), np.result_type(g, state.g_cos, dproxy, features, state.k_cos))
        # augmented mode's per-row frequency terms, summed as a whole below
        freq_terms = np.empty_like(dphase) if gen.mode == "augmented" else None
    for rows in _tiles(n, TILE_ROWS):
        br = b[rows]
        dpc, dps = dproxy_cos[br], dproxy_sin[br]
        pulled = dpc * state.k_cos[rows]
        pulled += dps * state.k_sin[rows]
        grad_features[rows] = pulled
        if not params:
            continue
        dkc = g[rows] * state.g_cos[br]
        dks = g[rows] * state.g_sin[br]
        dkc += dpc * features[rows]
        dks += dps * features[rows]
        if groups > 1:
            dkc = dkc.reshape(-1, groups, gc).sum(axis=1)
            dks = dks.reshape(-1, groups, gc).sum(axis=1)
        if gen.mode == "pure":
            # the saved kernels are cos(phase) and sin(phase), group-tiled;
            # rounding is sign-symmetric, so this has the bits of
            # -k_sin * dkc + k_cos * dks
            np.subtract(state.k_cos[rows, :gc] * dks, state.k_sin[rows, :gc] * dkc,
                        out=dphase[rows])
        else:
            phase = state.phase[rows]
            s_ = np.sin(freq * phase)
            c_ = np.cos(freq * phase)
            np.add(dkc * (1.0 - freq * s_), dks * (1.0 + freq * c_), out=dphase[rows])
            np.add(dkc * (-phase * s_), dks * (phase * c_), out=freq_terms[rows])
    if not params:
        return grad_features, None, None
    if freq_terms is None:
        grad_frequency = np.zeros(gc, dtype=np.float64)
    else:
        grad_frequency = freq_terms.sum(axis=0).astype(np.float64)
    grad_weight = (dphase.T @ state.anchored_xyz.astype(dtype)).astype(np.float64)
    return grad_features, grad_weight, grad_frequency


# ---------------------------------------------------------------------------
# brute-force pairwise reference
# ---------------------------------------------------------------------------

def _oracle_block(out, rows, nb_rows, features, k_cos, k_sin):
    p0 = rows.shape[0]
    p1 = nb_rows.shape[0]
    c = features.shape[1]
    fc = k_cos[nb_rows]
    fs = k_sin[nb_rows]
    fv = features[nb_rows]
    step = max(1, ORACLE_CHUNK_ELEMS // max(p1 * c, 1))
    for lo in range(0, p0, step):
        sub = rows[lo : lo + step]
        kappa = k_cos[sub][:, None, :] * fc[None, :, :] + k_sin[sub][:, None, :] * fs[None, :, :]
        out[sub] = (kappa * fv[None, :, :]).sum(axis=1) / p1


def link_oracle(t: SparseTensor, cfg: LinKConfig):
    """Direct pairwise aggregation over each voxel's block neighborhood.

    Quadratic in the neighborhood population, intended as a test and
    benchmark reference for :func:`link_forward`.  Neighbor blocks are
    enumerated through a plain dictionary, independent of the sorted-key
    machinery used by the factorized path.

    Precision follows :func:`link_forward`: pure mode computes in the feature
    dtype; augmented mode computes the kernels and the pairwise sums in
    float64 and rounds the output once to the feature dtype.
    """
    if t.num_channels != cfg.generator.channels:
        raise DimensionError(
            f"tensor has {t.num_channels} channels, generator expects "
            f"{cfg.generator.channels}"
        )
    work = _working_dtype(cfg.generator.mode, t.dtype)
    coords = anchored_xyz(t)
    k_cos, k_sin = generate_kernel(cfg.generator, coords, work)
    features = t.features.astype(work, copy=False)
    part = partition_blocks(t, cfg.block_size)
    block_ids = {tuple(bc): i for i, bc in enumerate(part.block_coords)}
    members = np.split(part.row_order, part.segment_starts[1:])
    lo, hi = neighbor_window(cfg.neighbor_range)
    offsets = list(itertools.product(range(lo, hi + 1), repeat=3))
    out = np.zeros_like(features)
    for i in range(part.num_blocks):
        batch, bx, by, bz = part.block_coords[i]
        nb_rows = []
        for dx, dy, dz in offsets:
            j = block_ids.get((batch, bx + dx, by + dy, bz + dz))
            if j is not None:
                nb_rows.append(members[j])
        nb = np.concatenate(nb_rows)
        _oracle_block(out, members[i], nb, features, k_cos, k_sin)
    return t.with_features(out.astype(t.dtype, copy=False))
