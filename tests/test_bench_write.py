"""The ``BENCH_<n>.json`` writer's parsers, on canned output lines."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import write  # noqa: E402

FLAT_RS = """\
101270 voxels, C=32, median of 5
s  r  r*s  forward+backward_s
3  1    3  0.121
3  5   15  0.110
s=3: r=5 / r=1 = 0.91
7  1    7  0.100
7  5   35  0.098
s=7: r=5 / r=1 = 0.98
"""


def test_flat_rs_rows_and_ratios():
    got = write.parse_flat_rs(FLAT_RS)
    assert got == {"s=3": {"r=1_s": 0.121, "r=5_s": 0.110, "r5_over_r1": 0.91},
                   "s=7": {"r=1_s": 0.100, "r=5_s": 0.098, "r5_over_r1": 0.98}}


def test_flat_rs_without_both_ratios_is_an_error():
    with pytest.raises(ValueError):
        write.parse_flat_rs(FLAT_RS.split("7  1")[0])


def test_last_json_line():
    out = 'encoder-seg seed=1: 3 ops\n{"correct": true, "attempted": 3}\n\n'
    assert write.last_json(out) == {"correct": True, "attempted": 3}
    with pytest.raises(ValueError):
        write.last_json("\n")


def test_wc_lines():
    out = ("   64 src/link3d/__init__.py\n  556 src/link3d/core.py\n"
           " 620 total\n")
    assert write.parse_wc(out) == {"__init__.py": 64, "core.py": 556, "total": 620}


def span(i, name, op, parent=None, **counts):
    return {"id": i, "name": name, "op": op, "parent": parent, "start": 0.0, "end": 1.0,
            "counts": counts}


def test_trace_counts_at_fixed_op_indices():
    # spans of the set-up (op None) and of three timed ops, ids 10, 20 and 30
    trace = {"spans": [
        span(0, "conv.map", None, pairs=99),
        span(11, "conv.map", 10, 10, pairs=5), span(12, "conv.map", 10, 10, pairs=7),
        span(13, "link.forward", 10, 10, state_mb=1.5), span(10, "op", 10),
        span(21, "conv.map", 20, 20, pairs=6), span(20, "op", 20),
        span(31, "conv.map", 30, 30, pairs=1), span(30, "op", 30),
    ]}
    got = write.trace_counts(trace, ops=(0, 1, 5))
    assert got == {"op0": {"conv.map": {"calls": 2, "pairs": 12},
                           "link.forward": {"calls": 1, "state_mb": 1.5}},
                   "op1": {"conv.map": {"calls": 1, "pairs": 6}}}


def test_erf_trailer_and_train_toy_csv():
    erf = "x,y,z,magnitude\n0,0,0,1.5\n# radius90=13 total=12.25\n"
    assert write.parse_erf_trailer(erf) == {"radius90": 13, "total": 12.25}
    toy = "step,loss\n0,1.0986\n1,0.9\n2,0.5\n"
    assert write.parse_train_toy(toy) == {"steps": 3, "first_loss": 1.0986, "last_loss": 0.5}
