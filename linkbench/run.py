"""link3d benchmark: one workload per process, end-to-end or traced.

    python3 linkbench/run.py --workload encoder-seg --seed 1 --seconds 30 --trace 0
    python3 linkbench/run.py                  # every workload, seed 1, 30 s each

Imports link3d from the ``src/`` directory next to this one and from nowhere
else.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``,
the default, runs each workload in its own process, one after the other.
"""

import os

# BLAS runs single-threaded, so a workload's process uses one core; the
# variables are read when numpy loads.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".linkbench"
NAMES = ("encoder-seg", "link-wide", "scan-det")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Put the checkout's ``src`` first on the path; fail if it is not there."""
    if not (SRC / "link3d" / "__init__.py").is_file():
        raise SystemExit(f"linkbench: no link3d sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import link3d
    if Path(link3d.__file__).resolve().parent != (SRC / "link3d").resolve():
        raise SystemExit(f"linkbench: link3d imported from {link3d.__file__}, not {SRC}")


def run_all(args) -> int:
    """Each workload in its own process; prints a table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"linkbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
            print(f"{name:12s} {metric:24s} {v['value']:12.6g} {v['unit']}")
        print(f"{name:12s} {'attempted':24s} {res['attempted']:12d}\n"
              f"{name:12s} {'failed':24s} {res['failed']:12d}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    # a terminated run still removes its scan files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), str(OUT_DIR))
    finally:
        remove_scans()
    print(json.dumps(result))
    return 0


def remove_scans():
    """Delete the scan files this process wrote."""
    for leftover in OUT_DIR.glob(f"scan-{os.getpid()}-*.bin"):
        leftover.unlink()


if __name__ == "__main__":
    sys.exit(main())
