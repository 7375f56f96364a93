"""Negative controls: each workload's checks pass on the program's output and
reject a deliberately wrong one.  Runs on the small set-up scenes.

    python3 -m pytest linkbench -q
"""

import functools

import numpy as np
import pytest

import checks
import spans
import workloads
from link3d import core, link


def _ran(wl):
    wl.build()
    inp = wl.warm_inputs()
    return inp, wl.op(inp)


def test_link_wide_rejects_dropped_gather_offset(monkeypatch):
    wl = workloads.LinkWide(seed=0)
    inp, out = _ran(wl)
    wl.check_op(inp, out)
    monkeypatch.setattr(link, "_gather",
                        functools.partial(link._gather, drop_offset=(0, 0, 1)))
    bad = wl.op(inp)
    with pytest.raises(checks.CheckFailed, match="direct sum"):
        wl.check_op(inp, bad)


def test_link_wide_adjoint_rejects_wrong_gradient():
    """One grad_features entry off by the entries' rms, on a full-size scene,
    at a voxel whose feature has the median magnitude."""
    wl = workloads.LinkWide(seed=0)
    wl.build()
    inp = wl.inputs(0)
    x, y, gx = wl.op(inp)
    wl.check_op(inp, (x, y, gx))
    f = np.abs(x.features)
    row, col = np.unravel_index(np.argmin(np.abs(f - np.median(f))), f.shape)
    bad = gx.copy()
    bad[row, col] += np.sqrt(np.mean(gx.astype(np.float64) ** 2))
    err = checks.adjoint(x.features, y.features, inp[2][: x.num_voxels], bad)
    assert err > 10 * workloads.ADJ_TOL
    with pytest.raises(checks.CheckFailed, match="adjoint"):
        wl.check_op(inp, (x, y, bad))


def test_scan_det_rejects_perturbed_batch(tmp_path):
    wl = workloads.ScanDet(seed=0, out_dir=str(tmp_path))
    recs, out = _ran(wl)
    wl.check_op(recs, out)
    wl.check_run(recs, out)
    x, stages, scans = out
    perturbed = []
    for s in stages:
        f = s.features.copy()
        f[s.coords[:, 0] == 1] *= np.float32(1.001)
        perturbed.append(s.with_features(f))
    with pytest.raises(checks.CheckFailed, match="scan 1 stage 1 vs solo"):
        wl.check_run(recs, (x, perturbed, scans))


def _replace_stage(wl, k, coords):
    """Make stage k (1-based) of the last forward pass hold ``coords``."""
    op = wl.encoder.stages[k - 1].link_module.link
    op._t = core.SparseTensor(coords, np.zeros((coords.shape[0], 1)))


def test_encoder_seg_rejects_moved_stage_coordinate():
    wl = workloads.EncoderSeg(seed=0)
    cloud, out = _ran(wl)
    wl.check_op(cloud, out)
    wl.check_run(cloud, out)
    c = wl.stage_coords()[1].copy()
    occupied = {tuple(row) for row in c.tolist()}
    i = next(i for i, row in enumerate(c.tolist())
             if (row[0], row[1] + 1, row[2], row[3]) not in occupied)
    c[i, 1] += 1
    _replace_stage(wl, 2, c)
    with pytest.raises(checks.CheckFailed, match="stage 2"):
        wl.check_op(cloud, out)


def test_encoder_seg_rejects_truncating_downsample():
    """Rounding toward zero instead of flooring differs on the cube's
    negative coordinates."""
    wl = workloads.EncoderSeg(seed=0)
    cloud, out = _ran(wl)
    c = out[0].coords.copy()
    assert (c[:, 1:] < 0).any()
    c[:, 1:] = np.trunc(c[:, 1:] / 2)
    _replace_stage(wl, 1, checks.unique_rows(c))
    with pytest.raises(checks.CheckFailed, match="stage 1"):
        wl.check_op(cloud, out)


def test_encoder_seg_rejects_bad_erf():
    wl = workloads.EncoderSeg(seed=0)
    cloud, (t, coords, mags, seed_coord) = _ran(wl)
    bad = mags.copy()
    bad[0] = -1.0
    with pytest.raises(checks.CheckFailed, match="negative"):
        wl.check_op(cloud, (t, coords, bad, seed_coord))


def _fd_check(wl, op_index):
    """The once-per-run finite-difference check on a timed op's scene."""
    cloud = wl.inputs(op_index)
    t = core.voxelize(cloud, wl.voxel)
    return wl.check_run(cloud, (t, None, None, None))


def test_encoder_seg_finite_difference_rejects_wrong_gradient(monkeypatch):
    """LayerNorm's input gradient scaled by 1 + 1e-4."""
    wl = workloads.EncoderSeg(seed=0)
    _fd_check(wl, 0)
    orig = workloads.net.layer_norm_backward

    def scaled(*args, **kw):
        gx, gs, gsh = orig(*args, **kw)
        return gx * (1 + 1e-4), gs, gsh

    monkeypatch.setattr(workloads.net, "layer_norm_backward", scaled)
    with pytest.raises(checks.CheckFailed, match="finite difference"):
        _fd_check(wl, 0)


def test_kink_safe_derivative_uses_the_smooth_side():
    """Slope 2 with a bend half a step below 0: the central and backward
    differences read 0.75, the forward one 2."""
    h = 1e-3

    def fn(d):
        return 2.0 * d + 5.0 * max(0.0, -0.5 * h - d)

    assert abs(checks.kink_safe_derivative(fn, 2.0, h) - 2.0) < 1e-9
    assert abs(checks.kink_safe_derivative(fn, 2.5, h) - 2.5) > 0.4


def test_encoder_seg_finite_difference_across_relu_kink():
    """On this scene a ReLU input crosses zero within 1e-6 below two probes,
    which made a central difference at h = 1e-6 miss by 9e-5."""
    _fd_check(workloads.EncoderSeg(seed=1122314311), 5)     # raises if it fails


def _traced_link_op(tracer):
    wl = workloads.LinkWide(seed=0)
    wl.build()
    inp = wl.warm_inputs()
    workloads.install(tracer)
    try:
        with tracer.op():
            wl.op(inp)
    finally:
        tracer.restore()
    return wl


def test_trace_reports_span_that_never_fires_as_missing():
    tracer = spans.Tracer()
    wl = _traced_link_op(tracer)
    on_path = wl.on_path + ("conv.map",)
    metrics, missing = spans.layer_metrics(tracer.spans, workloads._layers(), on_path)
    assert missing == ["conv.map"]
    assert "conv.map_s" not in metrics and "conv.map_calls" not in metrics
    assert metrics["link.gather_s"]["value"] > 0
    assert metrics["data.load_s"]["value"] == 0      # off the link-wide path


def test_trace_reports_absent_target_as_missing(monkeypatch):
    monkeypatch.delattr(link, "_gather")
    tracer = spans.Tracer()
    workloads.install(tracer)
    tracer.restore()
    assert ("link.gather", "link3d.link._gather") in tracer.absent
    _, missing = spans.layer_metrics([], workloads._layers(), (),
                                     [n for n, _ in tracer.absent])
    assert missing == ["link.gather"]


def test_restore_puts_originals_back():
    before = (link._gather, link.link_forward, workloads.net.build_kernel_map)
    tracer = spans.Tracer()
    workloads.install(tracer)
    assert link._gather is not before[0]
    tracer.restore()
    assert (link._gather, link.link_forward, workloads.net.build_kernel_map) == before
