"""The three workloads and the loop that times them.

Each workload has a build step (model or generator), an op timed end to end,
per-op input generation kept outside the timed region, and checks.  Set-up
time covers what a user pays before the first timed op: building the encoder
or generator and one warm-up op on a small scene of the same kind.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

import numpy as np

from link3d import core, data, link, net

import checks
import scenes
import spans

SETUP_REPEATS = 3
TOL32 = 1e-5        # float32 bound the library's own suites apply
ADJ_TOL = 1e-8      # adjoint test; measured at most 5.7e-10 on the cube


class EncoderSeg:
    """Training-style: voxelize, then a four-stage forward and backward.

    Kernel-map building and the conv/norm backward dominate; the LinK gather
    at s=3, r=2 is nearly idle.
    """

    name = "encoder-seg"
    tag = 1
    voxel = 0.05
    cfg = net.EncoderConfig(
        in_channels=1, stem_channels=16, stage_channels=(16,) * 4,
        block_sizes=(3,) * 4, neighbor_ranges=(2,) * 4, mode="pure",
        dtype=np.float32)
    on_path = ("core.voxelize", "core.lookup", "conv.map", "conv.forward",
               "conv.backward", "layers.norm", "link.forward", "link.backward",
               "link.kernel", "link.partition", "link.push", "link.gather",
               "link.pull", "net.encoder")
    FD_CROP = 20        # voxels per axis of the finite-difference crop, centred on 0
    FD_PROBES = 6
    FD_TOL = 1e-6
    FD_STEP = 5e-7

    def __init__(self, seed, out_dir=None):
        self.seed = seed

    def warm_inputs(self):
        pts, inten = scenes.cube_cloud(scenes.op_rng(self.seed, self.tag, scenes.WARM_UP),
                                       n_points=scenes.CUBE_POINTS // 8,
                                       extent=scenes.CUBE_EXTENT / 2)
        return core.PointCloud(pts, inten)

    def inputs(self, i):
        return core.PointCloud(*scenes.cube_cloud(scenes.op_rng(self.seed, self.tag, i)))

    def build(self):
        self.encoder = net.build_encoder(self.cfg, seed=self.seed)

    def op(self, cloud):
        t = core.voxelize(cloud, self.voxel)
        coords, mags, seed_coord = net.erf_map(t, self.encoder, 4)
        return t, coords, mags, seed_coord

    def stage_coords(self):
        """Coordinates of each stage in the encoder's last forward pass, read
        from the input its LinK operator keeps for the backward pass."""
        return [s.link_module.link._t.coords for s in self.encoder.stages]

    def check_op(self, cloud, out):
        t, coords, mags, seed_coord = out
        expected = checks.voxel_coords(cloud.points, self.voxel)
        checks.same_coords("voxelize", t.coords, expected)
        checks.same_coords("erf input coords", coords, expected)
        checks.stage_coords(expected, self.stage_coords())
        checks.erf(mags, t.num_voxels, seed_coord, expected, 4)

    def check_run(self, cloud, out):
        """Float64 finite difference of the ERF on a crop of the last scene,
        and the crop's stage coordinates."""
        t = out[0]
        xyz = t.coords[:, 1:]
        half = self.FD_CROP // 2
        inside = ((xyz >= -half) & (xyz < half)).all(axis=1)
        crop = core.SparseTensor(t.coords[inside], t.features[inside].astype(np.float64))
        enc = net.build_encoder(dataclasses.replace(self.cfg, dtype=np.float64),
                                seed=self.seed)
        _, mags, seed_coord = net.erf_map(crop, enc, 4)

        def objective(row, delta):
            """Seed voxel's output sum with input ``row`` moved by ``delta``."""
            f = crop.features.copy()
            f[row, 0] += delta
            top = enc.forward(crop.with_features(f), 4)[-1]
            seed_row = np.flatnonzero((top.coords == seed_coord).all(axis=1))[0]
            return top.features[seed_row].sum()

        stages = enc.forward(crop, 4)
        checks.stage_coords(crop.coords, [s.coords for s in stages])
        order = np.argsort(-mags, kind="stable")
        rows = order[: self.FD_PROBES]
        fd = np.array([checks.kink_safe_derivative(
            lambda d: objective(r, d), mags[r], self.FD_STEP)
            for r in rows])
        err = checks.rel_err(np.abs(fd), mags[rows])
        return {"fd_rel_err": checks.within("erf vs float64 finite difference",
                                            err, self.FD_TOL),
                "fd_crop_voxels": crop.num_voxels}


class LinkWide:
    """The operator alone at a 15^3 receptive field: forward and backward.

    At s=3, r=5 the gather and its backward scatter do almost all the work;
    no convolution runs.
    """

    name = "link-wide"
    tag = 2
    voxel = 0.05
    channels = 32
    block, neighbor_range = 3, 5
    on_path = ("core.voxelize", "link.forward", "link.backward", "link.kernel",
               "link.partition", "link.push", "link.gather", "link.pull")
    SAMPLE = 48

    def __init__(self, seed, out_dir=None):
        self.seed = seed

    def _inputs(self, rng, n_points, extent):
        pts, inten = scenes.cube_cloud(rng, n_points, extent)
        feats = rng.standard_normal((n_points, self.channels), dtype=np.float32)
        grad = rng.standard_normal((n_points, self.channels), dtype=np.float32)
        return core.PointCloud(pts, inten), feats, grad, rng.random(self.SAMPLE)

    def warm_inputs(self):
        return self._inputs(scenes.op_rng(self.seed, self.tag, scenes.WARM_UP),
                            scenes.CUBE_POINTS // 8, scenes.CUBE_EXTENT / 2)

    def inputs(self, i):
        return self._inputs(scenes.op_rng(self.seed, self.tag, i),
                            scenes.CUBE_POINTS, scenes.CUBE_EXTENT)

    def build(self):
        gen = link.KernelGenerator.create(
            self.channels, groups=1, mode="pure",
            kernel_extent=self.block * self.neighbor_range,
            rng=np.random.default_rng(self.seed))
        self.cfg = link.LinKConfig(self.block, self.neighbor_range, gen)

    def op(self, inp):
        cloud, feats, grad, _ = inp
        t = core.voxelize(cloud, self.voxel)
        x = t.with_features(feats[: t.num_voxels])
        out, state = link.link_forward(x, self.cfg, return_state=True)
        grad_features, _, _ = link.link_backward(grad[: t.num_voxels], x, self.cfg, state)
        return x, out, grad_features

    def check_op(self, inp, out):
        cloud, _, grad, sample = inp
        x, y, gx = out
        checks.same_coords("voxelize", x.coords, checks.voxel_coords(cloud.points, self.voxel))
        checks.finite("link output", y.features)
        rows = np.unique((sample * x.num_voxels).astype(np.int64))
        ref = checks.link_direct_sum(x.coords, x.features, self.cfg.generator.weight,
                                     self.block, self.neighbor_range, rows)
        direct = checks.within("link vs direct sum",
                               checks.rel_err(y.features[rows], ref), TOL32)
        adj = checks.within("adjoint <Lf,g> = <f,L^T g>",
                            checks.adjoint(x.features, y.features,
                                           grad[: x.num_voxels], gx), ADJ_TOL)
        return {"direct_rel_err": direct, "adjoint_rel_err": adj}

    def check_run(self, inp, out):
        return {}


class ScanDet:
    """Inference on two sparse outdoor sweeps, stacked as batches 0 and 1.

    Forward only, detection preset s=7, r=3 in augmented mode, whose kernels
    are computed in float64; the scans are read from KITTI ``.bin`` files.
    """

    name = "scan-det"
    tag = 3
    voxel = 0.1
    cfg = net.EncoderConfig(
        in_channels=1, stem_channels=16, stage_channels=(16,) * 4,
        block_sizes=(7,) * 4, neighbor_ranges=(3,) * 4, mode="augmented",
        dtype=np.float32)
    on_path = ("data.load", "core.voxelize", "core.lookup", "conv.map",
               "conv.forward", "layers.norm", "link.forward", "link.kernel",
               "link.partition", "link.push", "link.gather", "link.pull",
               "net.encoder")

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.paths = [os.path.join(out_dir, f"scan-{os.getpid()}-{b}.bin") for b in (0, 1)]

    def _write(self, rng, **sweep):
        recs = []
        for path in self.paths:
            pts, inten = scenes.lidar_sweep(rng, **sweep)
            scenes.write_bin(path, pts, inten)
            # the file holds float32; the reference reads the same values
            recs.append(pts.astype("<f4").astype(np.float64))
        return recs

    def warm_inputs(self):
        return self._write(scenes.op_rng(self.seed, self.tag, scenes.WARM_UP),
                           beams=16, azimuth_steps=500)

    def inputs(self, i):
        return self._write(scenes.op_rng(self.seed, self.tag, i))

    def build(self):
        self.encoder = net.build_encoder(self.cfg, seed=self.seed)

    def op(self, _recs):
        coords, feats, scans = [], [], []
        for b, path in enumerate(self.paths):
            t = core.voxelize(data.load_lidar_bin(path), self.voxel)
            scans.append(t)
            c = t.coords.copy()
            c[:, 0] = b
            coords.append(c)
            feats.append(t.features)
        x = core.SparseTensor(np.concatenate(coords), np.concatenate(feats))
        return x, self.encoder.forward(x), scans

    def check_op(self, recs, out):
        x, stages, scans = out
        expected = [checks.voxel_coords(p, self.voxel, batch=b) for b, p in enumerate(recs)]
        for b, t in enumerate(scans):
            alone = expected[b].copy()
            alone[:, 0] = 0
            checks.same_coords(f"voxelize scan {b}", t.coords, alone)
        checks.same_coords("stacked input", x.coords, np.concatenate(expected))
        checks.stage_coords(x.coords, [s.coords for s in stages])
        for k, s in enumerate(stages, start=1):
            checks.finite(f"stage {k} features", s.features)
        return {}

    def check_run(self, recs, out):
        """Each scan's outputs match a run of that scan alone."""
        _, stages, scans = out
        worst = 0.0
        for b, t in enumerate(scans):
            solo = self.encoder.forward(t)
            for k, (s, alone) in enumerate(zip(stages, solo), start=1):
                worst = max(worst, checks.within(
                    f"scan {b} stage {k} vs solo run",
                    checks.per_batch_match(s, alone, b), TOL32))
        return {"solo_rel_err": worst}


WORKLOADS = {w.name: w for w in (EncoderSeg, LinkWide, ScanDet)}


def _layers():
    """Per-layer metrics: span name -> (metric, unit, fn)."""
    t, c = spans.total_s, spans.count_sum
    return {
        "core.voxelize": [("core.voxelize_s", "s", t)],
        "core.lookup": [("core.lookup_s", "s", t),
                        ("core.lookup_probes", "count", c("probes")),
                        ("core.lookup_hit_ratio", "ratio", spans.count_ratio("hits", "probes"))],
        "data.load": [("data.load_s", "s", t)],
        "conv.map": [("conv.map_s", "s", t),
                     ("conv.map_calls", "count", spans.calls),
                     ("conv.map_pairs", "count", c("pairs"))],
        "conv.forward": [("conv.forward_s", "s", t)],
        "conv.backward": [("conv.backward_s", "s", t)],
        "layers.norm": [("layers.norm_s", "s", t)],
        "link.forward": [("link.forward_s", "s", t),
                         ("link.state_mb", "MB", c("state_mb"))],
        "link.backward": [("link.backward_s", "s", t)],
        "link.kernel": [("link.kernel_s", "s", t)],
        "link.partition": [("link.partition_s", "s", t)],
        "link.push": [("link.push_s", "s", t)],
        "link.gather": [("link.gather_s", "s", t),
                        ("link.gather_pairs", "count", c("pairs")),
                        ("link.blocks", "count", c("blocks")),
                        ("link.gather_hit_ratio", "ratio", spans.count_ratio("pairs", "probes"))],
        "link.pull": [("link.pull_s", "s", t)],
        "net.encoder": [("net.self_s", "s", spans.self_s)],
    }


def _state_bytes(state) -> int:
    """Computed bytes of the arrays a LinKState holds (shared arrays once)."""
    seen = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj.nbytes
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)

    walk(state)
    return sum(seen.values())


def _lookup_counts(args, _kw, rows):
    return {"probes": int(rows.shape[0]), "hits": int((rows >= 0).sum())}


def _map_counts(_a, _kw, km):
    return {"pairs": km.pair_count()}


def _forward_counts(_a, _kw, result):
    if isinstance(result, tuple):
        return {"state_mb": _state_bytes(result[1]) / 2 ** 20}
    return {}


def _gather_counts(args, kw, result):
    part = args[0]
    r = args[2] if len(args) > 2 else kw["neighbor_range"]
    return {"pairs": int(result[3][0].shape[0]), "blocks": part.num_blocks,
            "probes": part.num_blocks * r ** 3}


def install(tracer: spans.Tracer) -> None:
    """Wrap every layer boundary the workloads cross, by the names callers use."""
    w = tracer.wrap
    w(core, "voxelize", "core.voxelize")
    w(core.SparseTensor, "lookup", "core.lookup", _lookup_counts)
    w(data, "load_lidar_bin", "data.load")
    w(net, "build_kernel_map", "conv.map", _map_counts)
    w(net, "sparse_conv_forward", "conv.forward")
    w(net, "sparse_conv_backward", "conv.backward")
    w(net, "layer_norm_forward", "layers.norm")
    w(net, "layer_norm_backward", "layers.norm")
    for owner in (link, net):
        w(owner, "link_forward", "link.forward", _forward_counts)
        w(owner, "link_backward", "link.backward")
    w(link, "_kernel_parts", "link.kernel")
    w(link, "partition_blocks", "link.partition")
    w(link, "push_proxies", "link.push")
    w(link, "_gather", "link.gather", _gather_counts)
    w(link, "pull", "link.pull")
    w(net.Encoder, "forward", "net.encoder")
    w(net.Encoder, "backward", "net.encoder")


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Set up, time ops for ``seconds``, check, and return the result object."""
    wl = WORKLOADS[name](seed, out_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        warm = wl.warm_inputs()
        t0 = time.perf_counter()
        wl.build()
        wl.op(warm)
        setups.append(time.perf_counter() - t0)

    tracer = spans.Tracer() if trace else None
    if tracer:
        install(tracer)
    times, notes = [], []
    attempted = failed = 0
    correct = True
    last = None
    start = time.perf_counter()
    try:
        while attempted == 0 or time.perf_counter() - start < seconds:
            inp = wl.inputs(attempted)
            attempted += 1
            try:
                with tracer.op() if tracer else nullcontext():
                    t0 = time.perf_counter()
                    out = wl.op(inp)
                    times.append(time.perf_counter() - t0)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            try:
                notes.append(wl.check_op(inp, out))
            except checks.CheckFailed as exc:
                correct = False
                print(f"{name}: op {attempted - 1}: {exc}", file=sys.stderr)
            last = (inp, out)
        peak = peak_rss_mb()
    finally:
        if tracer:
            tracer.restore()
    if last is not None:
        try:
            notes.append(wl.check_run(*last))
        except checks.CheckFailed as exc:
            correct = False
            print(f"{name}: run check: {exc}", file=sys.stderr)
    if not times:
        raise SystemExit(f"{name}: no op completed in {attempted} attempt(s)")

    summary = {}
    for n in notes:
        for k, v in (n or {}).items():
            summary[k] = max(summary.get(k, v), v)
    print(f"{name} seed={seed}: {len(times)} ops "
          f"[{', '.join(f'{x:.3f}' for x in times)}] s; setup "
          f"[{', '.join(f'{x:.3f}' for x in setups)}] s; checks {summary}",
          file=sys.stderr)

    if tracer:
        metrics, missing = spans.layer_metrics(
            tracer.spans, _layers(), wl.on_path, [n for n, _ in tracer.absent])
        for n in missing:
            where = [label for m, label in tracer.absent if m == n]
            print(f"{name}: missing span {n}" + (f" ({', '.join(where)} not found)" if where else
                                                  " (wrapped, never fired)"), file=sys.stderr)
        _write_trace(out_dir, name, seed, tracer, missing)
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "op_s_p50": {"value": median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _write_trace(out_dir, name, seed, tracer, missing):
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "missing": missing,
                   "absent": tracer.absent, "spans": tracer.spans}, fh)
