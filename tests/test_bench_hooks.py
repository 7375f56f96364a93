"""The benchmark's traced run still reaches every library callable it wraps.

``linkbench/workloads.install`` replaces library callables by name to time
each layer.  A renamed callable, or a call path that bypasses one, drops that
span's metrics from the traced result.  This runs each workload's small
set-up scene under those wrappers: every wrapped name must exist, and every
span on the workload's path must fire.  The forward-only workload must also
leave its encoder without backward state, and each workload's coordinate
sets must hold a row table exactly where the table rule allows one.
"""

import math
from pathlib import Path

import pytest

from conftest import kept_state
from link3d import core

LINKBENCH = Path(__file__).resolve().parent.parent / "linkbench"


@pytest.fixture
def linkbench(monkeypatch):
    monkeypatch.syspath_prepend(str(LINKBENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize("name", ["encoder-seg", "link-wide", "scan-det"])
def test_every_wrapped_span_fires(name, linkbench, tmp_path):
    spans, workloads = linkbench
    wl = workloads.WORKLOADS[name](seed=0, out_dir=str(tmp_path))
    inputs = wl.warm_inputs()
    tracer = spans.Tracer()
    try:
        workloads.install(tracer)
        wl.build()
        with tracer.op():
            wl.op(inputs)
    finally:
        tracer.restore()
    assert tracer.absent == []
    fired = {s["name"] for s in tracer.spans}
    assert set(wl.on_path) <= fired, sorted(set(wl.on_path) - fired)


def test_inference_keeps_no_backward_state(linkbench, tmp_path):
    _, workloads = linkbench
    wl = workloads.WORKLOADS["scan-det"](seed=0, out_dir=str(tmp_path))
    inputs = wl.warm_inputs()
    wl.build()
    wl.op(inputs)
    assert kept_state(wl.encoder) == set()


def test_row_tables_where_the_rule_puts_them(linkbench, tmp_path):
    """``encoder-seg``'s cube sets read row tables of at most ``TABLE_CELLS``
    cells per voxel; ``scan-det``'s sweeps are too sparse for any."""
    _, workloads = linkbench
    seg = workloads.WORKLOADS["encoder-seg"](seed=0, out_dir=str(tmp_path))
    seg.build()
    stem = seg.op(seg.warm_inputs())[0]
    for t in [stem] + [s.link_module.link._t for s in seg.encoder.stages]:
        table = t._maps.get("table")
        assert table is not None and table.pad == 1
        assert table.rows.shape[0] == math.prod(table.box.shape)
        assert table.rows.shape[0] <= core.TABLE_CELLS * t.num_voxels

    det = workloads.WORKLOADS["scan-det"](seed=0, out_dir=str(tmp_path))
    inputs = det.warm_inputs()
    det.build()
    x, stages, _ = det.op(inputs)
    for t in [x, *stages]:
        assert "bounds" in t._maps and "table" not in t._maps
