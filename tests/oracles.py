"""Independent brute-force references used by the tests.

These deliberately avoid the library's index/gather machinery: dense grids,
Python dicts, and explicit loops only, so every comparison crosses two
genuinely different code paths.
"""

import numpy as np

from link3d.verify import relative_error


def compare_sampled(fd, analytic):
    """relative_error restricted to the finite entries of a sampled FD gradient."""
    mask = np.isfinite(fd)
    return relative_error(fd[mask], np.asarray(analytic)[mask])


PRODUCT_ROWS = 256


def blocked_product(a, weights):
    """``a @ weights`` as the library's product contract states it: the rows,
    zero-padded to a multiple of 256, multiplied 256 rows at a time."""
    blocks = -(-a.shape[0] // PRODUCT_ROWS)
    padded = np.zeros((blocks * PRODUCT_ROWS, a.shape[1]), a.dtype)
    padded[: a.shape[0]] = a
    prods = [padded[i * PRODUCT_ROWS : (i + 1) * PRODUCT_ROWS] @ weights for i in range(blocks)]
    return np.concatenate(prods)[: a.shape[0]]


def dense_conv_oracle(coords, feats, weights, bias, kernel_size, stride=1):
    """Convolve on a zero-padded dense grid, evaluated per output site.

    Returns a dict mapping output coordinate tuples to feature vectors.  The
    kernel offset order is rebuilt here with plain nested loops (lexicographic
    over dx, dy, dz), matching the documented weight layout.
    """
    coords = np.asarray(coords)
    n_batch = int(coords[:, 0].max()) + 1 if coords.size else 1
    mins = coords[:, 1:].min(axis=0)
    dims = coords[:, 1:].max(axis=0) - mins + 1
    pad = kernel_size
    c_in = feats.shape[1]
    grid = np.zeros((n_batch, *(dims + 2 * pad), c_in), dtype=np.float64)
    for c, f in zip(coords, feats):
        b, x, y, z = c
        grid[b, x - mins[0] + pad, y - mins[1] + pad, z - mins[2] + pad] = f

    if stride == 1:
        half = kernel_size // 2
        window = range(-half, half + 1)
        out_sites = [tuple(c) for c in coords]
        base = {tuple(c): c[1:] for c in coords}
    else:
        window = range(0, 2)
        out_sites = sorted({(int(c[0]), int(np.floor_divide(c[1], 2)),
                             int(np.floor_divide(c[2], 2)),
                             int(np.floor_divide(c[3], 2))) for c in coords})
        base = {s: np.array([s[1] * 2, s[2] * 2, s[3] * 2]) for s in out_sites}

    out = {}
    for site in out_sites:
        b = site[0]
        px, py, pz = np.asarray(base[tuple(site)]) - mins + pad
        acc = np.zeros(weights.shape[2], dtype=np.float64)
        o = 0
        for dx in window:
            for dy in window:
                for dz in window:
                    acc += grid[b, px + dx, py + dy, pz + dz] @ weights[o]
                    o += 1
        if bias is not None:
            acc = acc + bias
        out[tuple(site)] = acc
    return out


def regroup_voxels(points, attrs, voxel_size):
    """Dict-based voxel regrouping with mean attributes."""
    groups = {}
    for p, a in zip(points, attrs):
        key = tuple(int(np.floor(v / voxel_size)) for v in p)
        groups.setdefault(key, []).append(a)
    return {k: np.mean(np.stack(v), axis=0) for k, v in groups.items()}


def block_regroup(coords, block_size):
    """Dict from block tuple (batch, bx, by, bz) to member row list."""
    blocks = {}
    for i, c in enumerate(coords):
        key = (
            int(c[0]),
            int(np.floor_divide(c[1], block_size)),
            int(np.floor_divide(c[2], block_size)),
            int(np.floor_divide(c[3], block_size)),
        )
        blocks.setdefault(key, []).append(i)
    return blocks


def neighbor_window(r):
    lo = -(r // 2)
    return range(lo, lo + r)


def neighborhood_rows(coords, block_size, r):
    """Per-voxel support rows: all voxels in blocks within the r-window."""
    blocks = block_regroup(coords, block_size)
    support = []
    for c in coords:
        key = (
            int(c[0]),
            int(np.floor_divide(c[1], block_size)),
            int(np.floor_divide(c[2], block_size)),
            int(np.floor_divide(c[3], block_size)),
        )
        rows = []
        for dx in neighbor_window(r):
            for dy in neighbor_window(r):
                for dz in neighbor_window(r):
                    nb = (key[0], key[1] + dx, key[2] + dy, key[3] + dz)
                    rows.extend(blocks.get(nb, []))
        support.append(sorted(rows))
    return support


def loop_majority(rows, labels, num_rows, num_classes):
    """Per-row majority label by an explicit loop; ties to the smallest id,
    rows without votes 0."""
    out = np.zeros(num_rows, dtype=np.int64)
    for r in range(num_rows):
        votes = labels[rows == r]
        if votes.size:
            out[r] = np.argmax(np.bincount(votes, minlength=num_classes))
    return out
