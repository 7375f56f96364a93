"""Flat-in-r*s figure: link_forward + link_backward time against r and s.

    python3 linkbench/flat_rs.py

Runs on the link-wide cube (120,000 points, 3.5 m, 0.05 m voxels) with 32
random-normal float32 channels in pure mode, for r in {1, 5} at s = 3 and
s = 7, and prints the median wall time of each setting (5 repeats after a
warm-up, seed 1) and the r=5 / r=1 ratio.  The paper's claim is that
per-voxel work does not grow with the kernel extent r*s.
"""

import sys
import time
from statistics import median

import run  # first: pins BLAS threads before numpy loads

SEED = 1
REPEATS = 5


def main():
    run.import_library()
    import numpy as np

    import scenes
    from link3d import core, link

    rng = scenes.op_rng(SEED, 4, 0)
    t = core.voxelize(core.PointCloud(*scenes.cube_cloud(rng)), 0.05)
    x = t.with_features(rng.standard_normal((t.num_voxels, 32), dtype=np.float32))
    grad = rng.standard_normal((t.num_voxels, 32), dtype=np.float32)
    print(f"{t.num_voxels} voxels, C=32, median of {REPEATS}")
    print("s  r  r*s  forward+backward_s")
    for s in (3, 7):
        row = {}
        for r in (1, 5):
            gen = link.KernelGenerator.create(32, kernel_extent=s * r,
                                              rng=np.random.default_rng(SEED))
            cfg = link.LinKConfig(s, r, gen)
            times = []
            for _ in range(REPEATS + 1):       # the first is a warm-up
                t0 = time.perf_counter()
                _, state = link.link_forward(x, cfg, return_state=True)
                link.link_backward(grad, x, cfg, state)
                times.append(time.perf_counter() - t0)
            row[r] = median(times[1:])
            print(f"{s}  {r}  {s * r:3d}  {row[r]:.3f}")
        print(f"s={s}: r=5 / r=1 = {row[5] / row[1]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
