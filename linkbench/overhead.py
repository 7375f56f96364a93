"""Tracing overhead: the same op with and without the span wrappers, paired.

    python3 linkbench/overhead.py --workload link-wide

Runs four pairs from seed 1.  Each pair runs one input untraced and then
traced, so slow spells of the machine hit both sides alike.  Prints the median untraced op time, the median
traced-minus-untraced difference, and the traced ops' span coverage.
"""

import argparse
import sys
import time
from statistics import median

import run

SEED = 1
PAIRS = 4


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.NAMES)
    args = ap.parse_args(argv)
    run.import_library()
    run.OUT_DIR.mkdir(exist_ok=True)
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](SEED, str(run.OUT_DIR))
    tracer = spans.Tracer()
    plain, diff = [], []
    try:
        wl.build()
        wl.op(wl.warm_inputs())
        for i in range(PAIRS):
            inp = wl.inputs(i)
            t0 = time.perf_counter()
            wl.op(inp)
            plain.append(time.perf_counter() - t0)
            workloads.install(tracer)
            try:
                with tracer.op():
                    t0 = time.perf_counter()
                    wl.op(inp)
                    traced = time.perf_counter() - t0
            finally:
                tracer.restore()
            diff.append(traced - plain[-1])
    finally:
        run.remove_scans()
    metrics, _ = spans.layer_metrics(tracer.spans, workloads._layers(), ())
    base = median(plain)
    print(f"{args.workload}: untraced {base:.3f} s, traced - untraced "
          f"{median(diff) * 1e3:+.1f} ms ({median(diff) / base:+.2%}), "
          f"coverage {metrics['trace.coverage']['value']:.4f}, {PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
