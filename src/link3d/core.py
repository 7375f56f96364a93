"""Voxel coordinate model and point-cloud voxelization.

Coordinates are batched integer voxel positions ``(batch, x, y, z)``.  Each
spatial component must lie in ``[-2**15, 2**15)`` so that the whole coordinate
packs injectively into one 64-bit key with the fixed layout
``batch-2^15 (16) | x+2^15 (16) | y+2^15 (16) | z+2^15 (16)``.  That bound
covers roughly +-1638 m at a 0.05 m voxel size.  The batch field is the
signed top of the signed key, so key order is lexicographic (batch, x, y, z)
order for every packable coordinate.

A coordinate set has one index.  A set whose box, padded for its kernel,
has at most ``TABLE_CELLS`` cells per row holds a :class:`RowTable`, the
row of every cell of the box: its stride-1 kernel maps are one gather per
offset, and ``SparseTensor.lookup`` reads it.  Any other search runs in the
key space, through :func:`probe_keys` and :func:`dilate_keys`.

Coordinate sets are deduplicated and ordered by sorting their keys.  Equal
keys are the same coordinate, so no sort here needs to be stable: ``voxelize``
and ``coarsen`` ask ``np.unique`` for no first-occurrence index (which would
force a stable sort) and rebuild the distinct coordinates by unpacking the
keys (:func:`_unpack_keys`).

One gather-accumulate primitive, :func:`_accumulate`, adds gathered rows into
indexed output rows: for each index list o in turn,
``out[dst[o]] += x[src[o]] @ W[o]``.  Its callers are the sparse convolution
on its pair plan (forward and the features' gradient, one list per kernel
offset) and each pass of LinK's separable box sum on its sorted-key plan (one
list per block offset, with ``weights=None``: the gathered rows are added as
they are).  Every caller's ``dst`` lists ascend (the conv's features'
gradient reads its lists from ``KernelMap.grad_rows``), so the out rows run
in tiles of ``PAIR_TILE_ROWS`` rows, by the one tail rule of every row loop
here and in LinK's per-voxel chains (:func:`_tiles`: a tail shorter than a
tile joins the tile before it; each tile costs a few calls per list, which
on a sparse set of under two tiles outweighs the cache it saves).  Each list
is cut once at the tile bounds (``np.searchsorted``), and a tile runs every
list's pairs that land in it, in list order, so its gathers, products and
scatters stay in cache.  An out row still adds its lists' terms in list
order from +0.0, so the tiles do not move its bits.  Within a tile, a list
that covers every out row adds its product rows with ``out[lo:hi] += prod``;
any other list gathers the out rows it covers, adds to them and scatters
them back as whole rows.  Both give the bits of ``out[dst] += prod`` with
unique ``dst``.

Every matrix product here is ``PRODUCT_ROWS`` rows times ``W[o]``: a list's
gathered rows, or a tile of box cells, are zero-padded to whole blocks and go
through one stacked ``np.matmul`` (:func:`_blocked_matmul`), one BLAS product
per block.  A product row's bits then depend only on the row and ``W[o]``, not
on how many rows the list, the tile or the box has, on a BLAS whose rows of a
product of one shape do not depend on its other rows (as on OpenBLAS 0.3.31).

Both callers have a dense plan too, for a set that fills at least half of
its (batch, x, y, z) bounding box.  :func:`box_bounds` takes the box,
:func:`fills` holds this rule and the row table's, :func:`lay_out` the box
layout, and :func:`_shift_sum` is the one dense-box primitive: the rows go
once into a zeroed flat C-order array of the box, padded by empty planes
after x, y and z and with a zero margin of the largest shift at both ends,
so that a move of at most the padding along each axis is one flat shift
(:meth:`DenseBox.shifts`).  Each pass adds, in order, the cells its moves
away (times ``W[o]``, or as they are) into a zeroed box, one row tile at a
time, and one gather reads the rows out.  The convolution runs one pass of
its kernel offsets; LinK's box sum runs three, along x, then y, then z.

A move past the set's box along an axis reads a cell that is padding along
that axis and inside the box along every finer one.  It stays +0.0 until a
pass moves along that axis: a move along a coarser axis keeps the finer
coordinates, and one along a finer axis reads only other such cells.  So
one pass of any moves, or passes along one axis each, add the pair plan's
terms in its order, plus zeros.  Those leave the bits unchanged: a cell's
sum starts at +0.0 and so never holds -0.0 (a float sum is -0.0 only if
both terms are), and adding a zero of either sign to it changes nothing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import BoundsError, ConfigError, DimensionError, DuplicateCoordError

COORD_BITS = 15
COORD_BOUND = 1 << COORD_BITS       # spatial components in [-32768, 32768)
BATCH_BOUND = 1 << 16               # batch index in [0, 65536)
KEY_FIELD = 1 << 16                 # values one x, y or z field of a key holds
KEY_XYZ_SHIFTS = (32, 16, 0)        # bit offsets of the x, y, z fields
TILE_ROWS = 1024                    # rows per tile of a row-tiled per-voxel chain
PRODUCT_ROWS = 256                  # rows of every matrix product in _accumulate and _shift_sum
DENSE_TILE_ROWS = 8 * PRODUCT_ROWS  # box cells per tile of a dense-box pass
PAIR_TILE_ROWS = 32 * PRODUCT_ROWS  # out rows per tile of _accumulate


def _as_coord_array(coords) -> np.ndarray:
    """``coords`` as an (N, 4) int64 array.

    Float input must hold integers (or +-inf); a value past the packable
    range is clipped to one that is still past it, so it casts exactly and
    fails the bounds like any other."""
    arr = np.asarray(coords)
    if arr.dtype.kind == "f":
        # NaN fails the test too
        if not (np.floor(arr) == arr).all():
            raise DimensionError("coordinates must be integers")
        arr = np.clip(arr, -KEY_FIELD, KEY_FIELD)
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 1 and arr.size == 4:
        arr = arr[None, :]
    if arr.ndim != 2 or (arr.size and arr.shape[1] != 4):
        raise DimensionError(f"expected (N, 4) coordinates, got shape {arr.shape}")
    if arr.size == 0:
        arr = arr.reshape(0, 4)
    return arr


def _in_bounds(coords: np.ndarray) -> np.ndarray:
    """Mask of the (N, 4) coordinates that pack into the 64-bit key."""
    ok = (coords[:, 0] >= 0) & (coords[:, 0] < BATCH_BOUND)
    for axis in (1, 2, 3):
        ok &= (coords[:, axis] >= -COORD_BOUND) & (coords[:, axis] < COORD_BOUND)
    return ok


def _pack_keys_unchecked(arr: np.ndarray) -> np.ndarray:
    b = arr[:, 0] - BATCH_BOUND // 2
    x = arr[:, 1] + COORD_BOUND
    y = arr[:, 2] + COORD_BOUND
    z = arr[:, 3] + COORD_BOUND
    return (b << 48) | (x << 32) | (y << 16) | z


def _unpack_keys(keys: np.ndarray) -> np.ndarray:
    """The (N, 4) coordinates of packed ``keys``; inverse of :func:`pack_keys`."""
    out = np.empty((keys.shape[0], 4), dtype=np.int64)
    out[:, 0] = (keys >> 48) + BATCH_BOUND // 2
    for col, shift in enumerate(KEY_XYZ_SHIFTS, start=1):
        out[:, col] = ((keys >> shift) & (KEY_FIELD - 1)) - COORD_BOUND
    return out


def pack_keys(coords) -> np.ndarray:
    """Pack (N, 4) coordinates into int64 keys, injective on the bounded domain.

    Raises BoundsError unless every coordinate packs.
    """
    arr = _as_coord_array(coords)
    _check_bounds(arr)
    return _pack_keys_unchecked(arr)


def _check_bounds(coords: np.ndarray) -> None:
    """Raise BoundsError unless every (N, 4) row, integer or float, packs."""
    n_bad = int(coords.shape[0] - _in_bounds(coords).sum())
    if n_bad:
        raise BoundsError(
            f"{n_bad} coordinate(s) outside batch [0, {BATCH_BOUND}) / "
            f"spatial [-{COORD_BOUND}, {COORD_BOUND})"
        )


def probe_keys(dst_keys: np.ndarray, src_keys: np.ndarray, offset):
    """Rows of ``dst_keys`` whose key moved by the voxel ``offset`` (x, y, z)
    is in the sorted ``src_keys``; returns (dst rows, src positions).

    A move that leaves the packable box is a miss, since its key would carry
    into the neighbouring field.
    """
    empty = np.zeros(0, dtype=np.int64)
    if src_keys.shape[0] == 0:
        return empty, empty
    inside = True
    delta = 0
    for shift, d in zip(KEY_XYZ_SHIFTS, offset):
        if d:
            field_val = (dst_keys >> shift) & (KEY_FIELD - 1)
            inside &= (field_val >= -d) & (field_val < KEY_FIELD - d)
            delta += int(d) << shift
    probe = dst_keys + delta
    pos = np.searchsorted(src_keys, probe)
    np.minimum(pos, src_keys.shape[0] - 1, out=pos)
    rows = np.flatnonzero(inside & (src_keys[pos] == probe))
    return rows, pos[rows]


def dilate_keys(keys: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    """Sorted union of ``keys`` moved by lo..hi along spatial ``axis`` (0 = x),
    keeping only moves that stay inside the packable box."""
    shift = KEY_XYZ_SHIFTS[axis]
    field_val = (keys >> shift) & (KEY_FIELD - 1)
    moved = [
        keys[(field_val >= -d) & (field_val < KEY_FIELD - d)] + (d << shift)
        for d in range(lo, hi + 1)
    ]
    # sorted keys move into sorted runs, which a merge sort takes as runs;
    # np.unique would hash instead, several times slower on numpy >= 2.3
    merged = np.sort(np.concatenate(moved), kind="stable")
    distinct = np.ones(merged.shape, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    return merged[distinct]


class DenseBox(NamedTuple):
    """A coordinate set laid out in a dense C-order array of its bounding box."""

    shape: tuple         # (batch, x, y, z) cells, spatial extents padded
    cells: np.ndarray    # the flat cell of each row

    def shifts(self, moves) -> list:
        """The flat shift of each (x, y, z) move of the (n, 3) ``moves``."""
        _, _, ny, nz = self.shape
        return (moves @ np.array([ny * nz, nz, 1])).tolist()


DENSE_CELLS = 2   # box cells per row at most for the dense plans: the rows fill half the box
TABLE_CELLS = 8   # padded box cells per row at most for a set's row table


def box_bounds(coords: np.ndarray) -> Optional[tuple]:
    """``(first, extent)``, the first corner and the (batch, x, y, z) cell
    counts of the (N, 4) ``coords``' bounding box, or None for no rows: one
    min and one max over ``coords``."""
    if coords.shape[0] == 0:
        return None
    first = coords.min(axis=0)
    return first, [int(e) + 1 for e in coords.max(axis=0) - first]


def fills(bounds, n: int, cells: int, pad: int = 0) -> bool:
    """Whether ``n`` rows have at most ``cells`` cells each of the box
    ``bounds``, padded by ``pad`` empty planes after x, y and z.

    The two occupancy rules of the library, each tested without allocating
    anything of the box's size:

    * ``DENSE_CELLS`` without padding: a set that fills at least half of its
      box runs the dense plans, the conv's and LinK's block grid;
    * ``TABLE_CELLS`` with the padding of the kernel: a set gets a row table
      (:class:`RowTable`), read instead of a key search.
    """
    if bounds is None:
        return False
    extent = bounds[1]
    # Python integers: two corner voxels span up to 2^64 cells
    return cells * n >= extent[0] * math.prod(e + pad for e in extent[1:])


def lay_out(coords: np.ndarray, bounds, pad: int = 0) -> DenseBox:
    """The cells of ``coords`` in their ``box_bounds``, with ``pad`` empty
    planes after its x, y and z extents.  Key order is coordinate order, so
    the rows of a key-ordered set have ascending cells."""
    first, extent = bounds
    shape = (extent[0], *(e + pad for e in extent[1:]))
    return DenseBox(shape, np.ravel_multi_index((coords - first).T, shape))


class RowTable(NamedTuple):
    """A coordinate set's rows in a flat array of its box.

    The box is laid out as :func:`_shift_sum` lays it out, padded by ``pad``
    empty planes after x, y and z, but with no margin: a kernel offset after
    the centre in lexicographic order, at most ``pad`` along each axis, is a
    positive flat shift, and no cell of the set moves past the table's end.
    Such a move reads the neighbour's row, or -1 where it is empty or outside
    the box (a padding cell, as in :func:`_shift_sum`).
    """

    first: np.ndarray    # the box's first corner
    pad: int
    box: DenseBox        # the padded box, and the cell of each row
    rows: np.ndarray     # the row at each cell, -1 where empty


def row_table(coords: np.ndarray, bounds, pad: int) -> RowTable:
    """The :class:`RowTable` of ``coords`` in their ``box_bounds``."""
    box = lay_out(coords, bounds, pad)
    rows = np.full(math.prod(box.shape), -1, dtype=np.int64)
    rows[box.cells] = np.arange(coords.shape[0])
    return RowTable(bounds[0], pad, box, rows)


def _tiles(n: int, rows: int):
    """Slices of ``rows`` rows covering ``range(n)``, a tail shorter than a
    tile joined to the tile before it: the last tile holds ``rows`` to
    ``2 * rows - 1`` rows, or all ``n`` < ``rows``.  So a tile has one row
    only if ``n`` or ``rows`` is 1; numpy multiplies a one-row matrix on its
    vector path, whose bits differ from the matrix path's.
    """
    count = n // rows or min(n, 1)
    return [slice(t * rows, n if t == count - 1 else (t + 1) * rows) for t in range(count)]


def _padded(n: int) -> int:
    """``n`` rounded up to a multiple of ``PRODUCT_ROWS``."""
    return -(-n // PRODUCT_ROWS) * PRODUCT_ROWS


def _blocked_matmul(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """``a @ w`` into the C-contiguous ``out``, one BLAS product per
    ``PRODUCT_ROWS``-row block of ``a``, whose row count is a multiple of it."""
    np.matmul(a.reshape(-1, PRODUCT_ROWS, a.shape[1]), w,
              out=out.reshape(-1, PRODUCT_ROWS, w.shape[1]))


def _accumulate(out: np.ndarray, x: np.ndarray, src_rows, dst_rows, weights=None):
    """``out[dst_rows[o]] += x[src_rows[o]] @ weights[o]`` for each list o in turn.

    ``weights=None`` adds the gathered rows themselves.  Every
    ``dst_rows[o]`` ascends, and the out rows run in ``PAIR_TILE_ROWS``
    tiles, as the module docstring says.
    """
    n_out, width = out.shape
    if out.size == 0:
        return
    # one void item per row: the scatter moves whole rows
    rows = out.view(np.dtype((np.void, out.dtype.itemsize * width)))[:, 0]
    tiles = _tiles(n_out, PAIR_TILE_ROWS)
    # tile t holds the pairs cuts[o][t]:cuts[o][t + 1] of list o
    edges = [tile.start for tile in tiles] + [n_out]
    cuts = [np.searchsorted(dst, edges).tolist() for dst in dst_rows]
    # one buffer for every list and tile: its product rows lead
    size = _padded(max((b - a for cut in cuts for a, b in zip(cut, cut[1:])), default=0))
    prod = np.empty((size, width), out.dtype)
    acc = np.empty_like(prod)
    gathered = None if weights is None else np.empty((size, x.shape[1]), x.dtype)
    for t, tile in enumerate(tiles):
        for o, (src_all, dst_all, cut) in enumerate(zip(src_rows, dst_rows, cuts)):
            a, b = cut[t], cut[t + 1]
            n = b - a
            if n == 0:
                continue
            src, dst = src_all[a:b], dst_all[a:b]
            # rows are in range by construction; "clip" fills out= unbuffered
            np.take(x, src, axis=0, out=(prod if weights is None else gathered)[:n], mode="clip")
            if weights is not None:
                gathered[n : _padded(n)] = 0
                _blocked_matmul(gathered[: _padded(n)], weights[o], prod[: _padded(n)])
            if n == tile.stop - tile.start:
                out[tile] += prod[:n]
            else:
                np.take(out, dst, axis=0, out=acc[:n], mode="clip")
                acc[:n] += prod[:n]
                rows[dst] = acc[:n].view(rows.dtype)[:, 0]


def _shift_sum(values: np.ndarray, box: DenseBox, passes, weights=None) -> np.ndarray:
    """The rows of ``values`` laid out in ``box``, run through ``passes``
    and read back out.

    Each pass is an (n, 3) array of (x, y, z) moves: every cell c of a zeroed
    box becomes ``sum_o prev[c + moves[o]] @ weights[o]`` in order, or the sum
    of the cells themselves with ``weights=None``.  The module docstring says
    which moves the box's padding allows.  The flat arrays run on to whole
    ``PRODUCT_ROWS`` blocks, whose cells past the box no pass writes.
    """
    shifts = [box.shifts(moves) for moves in passes]
    size = math.prod(box.shape)
    margin = max(abs(s) for flat in shifts for s in flat)
    width = values.shape[1] if weights is None else weights.shape[2]
    length = _padded(size) + 2 * margin
    src = np.zeros((length, values.shape[1]), values.dtype)
    src[margin + box.cells] = values
    tiles = _tiles(size, DENSE_TILE_ROWS)
    if weights is not None:
        prod = np.empty((_padded(tiles[-1].stop - tiles[-1].start), width), values.dtype)
    for flat in shifts:
        out = np.zeros((length, width), values.dtype)
        for tile in tiles:
            lo, hi = margin + tile.start, margin + tile.stop
            acc, n = out[lo:hi], _padded(hi - lo)
            for o, s in enumerate(flat):
                if weights is None:
                    acc += src[lo + s : hi + s]
                else:
                    _blocked_matmul(src[lo + s : lo + s + n], weights[o], prod[:n])
                    acc += prod[: hi - lo]
        src = out
    return np.take(src, margin + box.cells, axis=0)


def coarsen(coords: np.ndarray, factor: int):
    """Floor-divide the spatial components by ``factor`` and deduplicate.

    Returns ``(coarse, keys, inverse, counts)``: the distinct coarse
    coordinates in ascending packed-key order, their keys, the coarse row of
    every input row, and the number of input rows per coarse row.
    """
    down = coords.copy()
    down[:, 1:] = np.floor_divide(down[:, 1:], factor)
    keys, inverse, counts = np.unique(
        pack_keys(down), return_inverse=True, return_counts=True
    )
    return _unpack_keys(keys), keys, inverse, counts


class SparseTensor:
    """Batched sparse voxel tensor: integer coordinates plus per-voxel features.

    ``coords`` is (N, 4) int64 with unique rows, ``features`` is (N, C) float.
    Instances are treated as immutable after construction; operators return
    new tensors and never write into an input's arrays.  That is what lets
    every tensor on one coordinate set share one cache, ``_maps``: the
    kernel maps built on the set, keyed by ``(kernel_size, stride)``, and
    its ``box_bounds`` and :class:`RowTable`, each built once.
    """

    __slots__ = ("coords", "features", "keys", "_order", "_sorted_keys", "_maps")

    def __init__(self, coords, features):
        self.coords = _as_coord_array(coords)
        feats = np.asarray(features)
        if feats.ndim != 2:
            raise DimensionError(f"features must be (N, C), got shape {feats.shape}")
        if feats.shape[0] != self.coords.shape[0]:
            raise DimensionError(
                f"{self.coords.shape[0]} coords but {feats.shape[0]} feature rows"
            )
        self.features = feats
        self.keys = pack_keys(self.coords)
        self._order = np.argsort(self.keys)
        self._sorted_keys = self.keys[self._order]
        if self.num_voxels > 1 and (np.diff(self._sorted_keys) == 0).any():
            raise DuplicateCoordError("duplicate voxel coordinates")
        self._maps = {}

    @classmethod
    def _from_sorted(cls, coords, keys, features) -> "SparseTensor":
        """Tensor on ``coords`` whose packed ``keys`` are already sorted and
        unique: no second pack, no argsort, and a new empty map cache."""
        t = object.__new__(cls)
        t.coords = coords
        t.features = features
        t.keys = t._sorted_keys = keys
        t._order = np.arange(keys.shape[0])
        t._maps = {}
        return t

    @property
    def num_voxels(self) -> int:
        return self.coords.shape[0]

    @property
    def num_channels(self) -> int:
        return self.features.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.features.dtype

    def _bounds(self) -> Optional[tuple]:
        """The set's :func:`box_bounds`, computed once."""
        if "bounds" not in self._maps:
            self._maps["bounds"] = box_bounds(self.coords)
        return self._maps["bounds"]

    def _table(self, pad: int) -> Optional[RowTable]:
        """The set's row table, padded by ``pad`` planes or more, built on
        first use; None while the ``TABLE_CELLS`` rule (:func:`fills`) fails.

        A set holds one table: a wider ``pad`` rebuilds it from the same
        bounds."""
        table = self._maps.get("table")
        if table is None or table.pad < pad:
            bounds = self._bounds()
            if not fills(bounds, self.num_voxels, TABLE_CELLS, pad):
                return None
            table = self._maps["table"] = row_table(self.coords, bounds, pad)
        return table

    def lookup(self, coords) -> np.ndarray:
        """Vectorized coordinate -> row lookup; -1 where absent or out of bounds.

        Reads the set's row table when it has one, after checking each axis
        against the table's box; otherwise searches the sorted keys."""
        arr = _as_coord_array(coords)
        table = self._maps.get("table")
        if table is None:
            rows = np.full(arr.shape[0], -1, dtype=np.int64)
            ok = np.flatnonzero(_in_bounds(arr))
            hit, pos = probe_keys(_pack_keys_unchecked(arr[ok]), self._sorted_keys, (0, 0, 0))
            rows[ok[hit]] = self._order[pos]
            return rows
        inside = np.ones(arr.shape[0], dtype=bool)
        cells = np.zeros(arr.shape[0], dtype=np.int64)
        for col, lo, n in zip(arr.T, table.first.tolist(), table.box.shape):
            # wraps only far outside the box: an unsigned compare checks both ends
            d = col - lo
            inside &= d.view(np.uint64) < n
            cells *= n
            cells += d
        rows = table.rows.take(cells, mode="clip")
        rows[~inside] = -1
        return rows

    def with_features(self, features) -> "SparseTensor":
        """New tensor on the same coordinate set (shares coords, keys and maps)."""
        feats = np.asarray(features)
        if feats.ndim != 2 or feats.shape[0] != self.num_voxels:
            raise DimensionError(
                f"features must be ({self.num_voxels}, C), got shape {feats.shape}"
            )
        out = copy.copy(self)
        out.features = feats
        return out

    def __repr__(self) -> str:
        return (
            f"SparseTensor(num_voxels={self.num_voxels}, "
            f"num_channels={self.num_channels}, dtype={self.dtype})"
        )


@dataclass
class PointCloud:
    """Raw metric points with per-point attribute vectors (e.g. intensity)."""

    points: np.ndarray      # (N, 3) float, meters
    attributes: np.ndarray  # (N, A) float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        self.attributes = np.asarray(self.attributes, dtype=np.float64)
        if self.points.size == 0:
            self.points = self.points.reshape(0, 3)
        if self.attributes.ndim == 1:
            width = 1 if self.attributes.size else 0
            self.attributes = self.attributes.reshape(self.points.shape[0], width)
        if self.points.shape[1] != 3:
            raise DimensionError(f"points must be (N, 3), got {self.points.shape}")
        if self.attributes.shape[0] != self.points.shape[0]:
            raise DimensionError("one attribute row per point required")
        if self.points.size and not np.isfinite(self.points).all():
            raise ValueError("points contain NaN or Inf")
        if self.attributes.size and not np.isfinite(self.attributes).all():
            raise ValueError("attributes contain NaN or Inf")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def _voxel_floor(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """The (N, 4) float coordinates, in batch 0, of each point's voxel:
    ``floor(point / voxel_size)`` per axis, before any cast to integers."""
    if not 0 < voxel_size < math.inf:   # NaN fails both
        raise ConfigError(f"voxel_size must be finite and > 0, got {voxel_size}")
    coords = np.zeros((points.shape[0], 4))
    # past the float range a position divides to +-inf, which no bound lets through
    with np.errstate(over="ignore"):
        coords[:, 1:] = np.floor(points / float(voxel_size))
    return coords


def voxelize(cloud: PointCloud, voxel_size: float, dtype=np.float32) -> SparseTensor:
    """Quantize a point cloud onto the integer voxel grid.

    Each point maps to ``floor(point / voxel_size)`` per axis (arithmetic
    floor, so negative positions round toward -inf).  Points landing in the
    same voxel have their attribute vectors averaged.  Output voxels are
    sorted by packed key, which fixes a deterministic row order.
    """
    coords = _voxel_floor(cloud.points, voxel_size)
    # checked in float before the cast
    _check_bounds(coords)
    keys, inverse, counts = np.unique(
        _pack_keys_unchecked(coords.astype(np.int64)), return_inverse=True, return_counts=True
    )
    attrs = cloud.attributes
    sums = np.empty((keys.shape[0], attrs.shape[1]), dtype=np.float64)
    for col in range(attrs.shape[1]):
        # adds each voxel's points in row order from 0.0, as np.add.at does
        sums[:, col] = np.bincount(inverse, weights=attrs[:, col], minlength=keys.shape[0])
    means = sums / counts[:, None]
    return SparseTensor._from_sorted(_unpack_keys(keys), keys, means.astype(dtype))
