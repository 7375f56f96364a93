import sys
from pathlib import Path

import numpy as np
import pytest

from link3d import SparseTensor

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable


def make_scene(rng, n_voxels, extent, channels, dtype=np.float64, batches=1):
    """Random duplicate-free voxel scene in a centered cube of edge `extent`."""
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


def box_coords(shape, batches=1, corner=(0, 0, 0)):
    """Every coordinate of a (batches, *shape) box whose first voxel is at
    ``corner``, in key order."""
    axes = [np.arange(batches), *(np.arange(n) + c for n, c in zip(shape, corner))]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def modules(module):
    """``module`` and every module in the tree under it."""
    return [m for _, m in module.named_modules()]


def kept_state(module):
    """(class name, attribute) of every backward state held in the tree
    under ``module``: the modules' private attributes that are not None."""
    return {(type(m).__name__, name) for m in modules(module)
            for name, value in vars(m).items() if name.startswith("_") and value is not None}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
