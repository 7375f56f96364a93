"""Write ``BENCH_<n>.json``: the benchmark's numbers for one checkout, in one file.

    python3 bench/write.py --out BENCH_2.json
    python3 bench/write.py --out BENCH_1.json --rev <commit>

Runs each of these as a subprocess of the checkout this script sits in,
with BLAS pinned to one thread, and reads its output:

* ``linkbench/run.py`` for each workload at seed ``SEED`` for ``SECONDS``,
  at ``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer
  metrics): the last JSON line of each run.  The seed and the run length
  are fixed so that every ``BENCH_<n>.json`` is written alike.  The traced
  run's ``.linkbench/trace-<workload>-seed<n>.json`` gives per-layer calls
  and counts at fixed op indices (``TRACE_OPS``), which do not depend on
  how many ops fit the time budget;
* ``linkbench/flat_rs.py``: its time per (s, r) and the r=5 / r=1 ratio at
  s = 3 and 7;
* ``link erf --set n_points=120000 --set extent=3.5`` and ``link
  train-toy``, each timed end to end.

The file also records ``wc -l src/link3d/*.py``, ``nproc``, the numpy
version, the BLAS name and version, the git HEAD (or ``--rev`` where the
checkout has no git metadata, as a ``git archive`` has not) and the date.
Neither the library nor ``linkbench/`` is changed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("encoder-seg", "link-wide", "scan-det")
SEED = 1
SECONDS = 30.0              # per linkbench run
TRACE_OPS = (0, 1)          # the op indices whose per-layer counts are recorded
ERF_SETTINGS = ("n_points=120000", "extent=3.5")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of ``stdout``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


FLAT_ROW = re.compile(r"^(\d+)\s+(\d+)\s+(\d+)\s+([0-9.]+)$")
FLAT_RATIO = re.compile(r"^s=(\d+): r=5 / r=1 = ([0-9.]+)$")


def parse_flat_rs(stdout: str) -> dict:
    """``flat_rs.py``'s rows as ``{"s=3": {"r=1_s": .., "r=5_s": .., "r5_over_r1": ..}}``."""
    out = defaultdict(dict)
    for line in stdout.splitlines():
        line = line.strip()
        row = FLAT_ROW.match(line)
        if row:
            s, r, _, seconds = row.groups()
            out[f"s={s}"][f"r={r}_s"] = float(seconds)
        ratio = FLAT_RATIO.match(line)
        if ratio:
            out[f"s={ratio.group(1)}"]["r5_over_r1"] = float(ratio.group(2))
    if not all("r5_over_r1" in out.get(f"s={s}", {}) for s in (3, 7)):
        raise ValueError("flat_rs output has no r=5 / r=1 ratio at s = 3 and 7")
    return dict(out)


def parse_wc(stdout: str) -> dict:
    """``wc -l`` lines as ``{file name: lines}``, with ``total``."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit():
            out[Path(parts[1]).name] = int(parts[0])
    return out


def trace_counts(trace: dict, ops=TRACE_OPS) -> dict:
    """Per-layer calls and summed counts of the traced run's ops ``ops``
    (their index among the timed ops): ``{"op0": {span: {"calls": n, ...}}}``."""
    by_op = defaultdict(list)
    for span in trace["spans"]:
        if span["op"] is not None:
            by_op[span["op"]].append(span)
    op_ids = sorted(by_op)
    out = {}
    for index in ops:
        if index >= len(op_ids):
            continue
        layers = defaultdict(lambda: defaultdict(float))
        for span in by_op[op_ids[index]]:
            if span["name"] == "op":
                continue
            entry = layers[span["name"]]
            entry["calls"] += 1
            for key, value in span["counts"].items():
                entry[key] += value
        out[f"op{index}"] = {name: {k: (int(v) if float(v).is_integer() else v)
                                    for k, v in sorted(entry.items())}
                             for name, entry in sorted(layers.items())}
    return out


def parse_erf_trailer(text: str) -> dict:
    """``radius90`` and ``total`` from the ``# radius90=.. total=..`` line of
    ``link erf``'s CSV."""
    match = re.search(r"^# radius90=(\S+) total=(\S+)$", text, re.M)
    if match is None:
        raise ValueError("no radius90 trailer")
    return {"radius90": int(match.group(1)), "total": float(match.group(2))}


def parse_train_toy(text: str) -> dict:
    """Steps and first and last loss from ``link train-toy``'s ``step,loss`` CSV."""
    rows = [line.split(",") for line in text.splitlines()[1:] if line.strip()]
    losses = [float(loss) for _, loss in rows]
    return {"steps": len(losses), "first_loss": losses[0], "last_loss": losses[-1]}


def run(cmd, pinned: bool = True) -> subprocess.CompletedProcess:
    """``cmd`` in the checkout, importing its ``src``; BLAS pinned to one
    thread unless ``pinned`` is False (``nproc`` reads ``OMP_NUM_THREADS``)."""
    env = dict(os.environ, **(ENV if pinned else {}), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(map(str, cmd))} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc


def timed_cli(command: str, settings=()) -> tuple:
    """Wall time of one ``link <command>`` run, and the file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        cmd = [sys.executable, "-m", "link3d.cli", command, "--out", str(out)]
        for s in settings:
            cmd += ["--set", s]
        t0 = time.perf_counter()
        run(cmd)
        return time.perf_counter() - t0, out.read_text()


def linkbench() -> dict:
    results = {}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = run([sys.executable, "linkbench/run.py", "--workload", name, "--seed",
                        str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)])
            entry["end_to_end" if trace == 0 else "per_layer"] = last_json(proc.stdout)
        trace_file = ROOT / ".linkbench" / f"trace-{name}-seed{SEED}.json"
        entry["trace_counts"] = trace_counts(json.loads(trace_file.read_text()))
        results[name] = entry
    return results


def machine(rev) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True)
    head = git.stdout.strip() if git.returncode == 0 and rev is None else rev
    lines = run(["sh", "-c", "wc -l src/link3d/*.py"]).stdout
    return {
        "git_head": head,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": int(run(["nproc"], pinned=False).stdout),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": ENV["OPENBLAS_NUM_THREADS"],
        "src_lines": parse_wc(lines),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    ap.add_argument("--rev", help="revision label where the checkout has no git metadata")
    args = ap.parse_args(argv)
    result = {"machine": machine(args.rev), "seed": SEED, "seconds": SECONDS,
              "linkbench": linkbench()}
    result["flat_rs"] = parse_flat_rs(run([sys.executable, "linkbench/flat_rs.py"]).stdout)
    wall, text = timed_cli("erf", ERF_SETTINGS)
    result["erf"] = {"settings": list(ERF_SETTINGS), "wall_s": wall, **parse_erf_trailer(text)}
    wall, text = timed_cli("train-toy")
    result["train_toy"] = {"wall_s": wall, **parse_train_toy(text)}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
