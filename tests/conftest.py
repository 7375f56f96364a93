import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable


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
