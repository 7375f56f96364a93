"""Command-line surface: ``link verify|bench|erf|train-toy``.

Configuration is a plain ``key=value`` file plus repeated ``--set key=value``
overrides; a key the command does not read is a hard error, as is an unknown
one, to keep sweeps honest.  Exit codes: 0 success, 1 verification/training
failure, 2 usage or config error, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .conv import ConvWeights, build_kernel_map, sparse_conv_forward
from .core import COORD_BOUND, SparseTensor, voxelize
from .data import (
    PROFILES,
    gen_labeled_scene,
    gen_synthetic_scene,
    load_lidar_bin,
    voxel_majority_labels,
)
from .errors import BoundsError, ConfigError, DivergenceError, FileFormatError
from .link import (
    KernelGenerator,
    LinKConfig,
    count_dense_kernel_params,
    count_generator_params,
    link_forward,
    link_oracle,
)
from .net import EncoderConfig, build_encoder, erf_map, erf_mass_radius, toy_train
from .verify import run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

BENCH_SWEEP = (1, 3, 5)
BENCH_RUNS = 5

# ceilings that keep a typo from allocating without bound; the receptive
# field edge s*r must fit the packable coordinate range
MAX_CHANNELS = 1024
MAX_POINTS = 10_000_000
MAX_FIELD = 2 * COORD_BOUND

# kernel layouts from the reference configurations
PRESETS = {
    "detection": {"s": 7, "r": 3},
    "segmentation": {"s": 3, "r": 2},
}


@dataclass
class RunConfig:
    s: int = 3
    r: int = 2
    mode: str = "pure"
    groups: int = 1
    channels: int = 8
    voxel_size: float = 0.05
    precision: int = 32
    seed: int = 0
    n_points: int = 20_000
    extent: float = 2.0
    profile: str = "uniform"
    input: str = ""
    out: str = ""
    steps: int = 500
    lr: float = 0.5
    num_classes: int = 4
    stage: int = 2
    corrupt: str = "none"
    link_branch: bool = True
    max_voxels: int = 0

    def dtype(self):
        return np.float32 if self.precision == 32 else np.float64


_KINDS = {f.name: f.type for f in fields(RunConfig)}


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _coerce(key: str, value: str):
    kind = _KINDS[key]
    try:
        if kind == "bool":
            return _parse_bool(value)
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _apply(cfg: RunConfig, command: str, key: str, value: str) -> None:
    key, value = key.strip(), value.strip()
    if key != "preset" and key not in _KINDS:
        raise ConfigError(f"unknown config key {key!r}")
    if key not in _COMMANDS[command].reads:
        raise ConfigError(f"{command} does not read {key}")
    if key != "preset":
        setattr(cfg, key, _coerce(key, value))
    elif value in PRESETS:
        for k, v in PRESETS[value].items():
            setattr(cfg, k, v)
    else:
        raise ConfigError(f"unknown preset {value!r}, expected one of {sorted(PRESETS)}")


def _validate(cfg: RunConfig, reads: Sequence[str]) -> None:
    if cfg.s < 1 or cfg.r < 1:
        raise ConfigError("s and r must be >= 1")
    if cfg.s * cfg.r > MAX_FIELD:
        raise ConfigError(
            f"s*r must be <= {MAX_FIELD} (the packable coordinate range), "
            f"got {cfg.s * cfg.r}"
        )
    if cfg.mode not in ("pure", "augmented"):
        raise ConfigError(f"mode must be pure or augmented, got {cfg.mode!r}")
    # verify reads no channels: its suites size theirs as multiples of groups
    if cfg.channels < 1 or not 1 <= cfg.groups <= MAX_CHANNELS or (
            "channels" in reads and cfg.channels % cfg.groups != 0):
        raise ConfigError(f"groups must be in 1..{MAX_CHANNELS} and divide channels")
    if cfg.channels > MAX_CHANNELS:
        raise ConfigError(f"channels must be <= {MAX_CHANNELS}, got {cfg.channels}")
    for key in ("voxel_size", "extent"):
        value = getattr(cfg, key)
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
    if not np.isfinite(cfg.lr):
        raise ConfigError(f"lr must be finite, got {cfg.lr}")
    if cfg.precision not in (32, 64):
        raise ConfigError("precision must be 32 or 64")
    if not 0 <= cfg.n_points <= MAX_POINTS:
        raise ConfigError(f"n_points must be in 0..{MAX_POINTS}, got {cfg.n_points}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}")
    if not 1 <= cfg.stage <= 4:
        raise ConfigError("stage must be in 1..4")
    if not 2 <= cfg.num_classes <= 8:
        raise ConfigError("num_classes must be in 2..8")
    if cfg.corrupt not in ("none", "drop-neighbor"):
        raise ConfigError("corrupt must be none or drop-neighbor")
    if cfg.steps < 0 or cfg.max_voxels < 0:
        raise ConfigError("steps and max_voxels must be >= 0")


def load_config(command: str, config_path: Optional[str],
                sets: Sequence[str], out: Optional[str]) -> RunConfig:
    cfg = RunConfig(**_COMMANDS[command].defaults)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"{config_path}: not UTF-8 text") from exc
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{config_path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            _apply(cfg, command, key, value)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply(cfg, command, key, value)
    if out:
        cfg.out = out
    _validate(cfg, _COMMANDS[command].reads)
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: Sequence[str], rows: Sequence[Sequence], trailer: str = "") -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    if trailer:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _scene_tensor(cfg: RunConfig) -> SparseTensor:
    if cfg.input:
        cloud = load_lidar_bin(cfg.input)
    else:
        cloud = gen_synthetic_scene(cfg.seed, cfg.n_points, cfg.extent, cfg.profile)
    try:
        return voxelize(cloud, cfg.voxel_size, dtype=cfg.dtype())
    except BoundsError as exc:
        if cfg.input:
            raise FileFormatError(
                f"{cfg.input}: at voxel_size={cfg.voxel_size}, {exc}"
            ) from exc
        raise ConfigError(
            f"extent={cfg.extent} at voxel_size={cfg.voxel_size}: {exc}"
        ) from exc


def _encoder_config(cfg: RunConfig, in_channels: int) -> EncoderConfig:
    return EncoderConfig(
        in_channels=in_channels,
        stem_channels=cfg.channels,
        stage_channels=(cfg.channels,) * 4,
        block_sizes=(cfg.s,) * 4,
        neighbor_ranges=(cfg.r,) * 4,
        mode=cfg.mode,
        groups=cfg.groups,
        link_enabled=cfg.link_branch,
        dtype=cfg.dtype(),
    )


def _median_ms(fun) -> float:
    fun()  # warm up
    samples = []
    for _ in range(BENCH_RUNS):
        start = time.perf_counter()
        fun()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def cmd_verify(cfg: RunConfig) -> int:
    results = run_suites(
        cfg.seed, cfg.mode, cfg.groups, cfg.precision,
        corrupt=cfg.corrupt == "drop-neighbor",
    )
    lines = [res.line() for res in results]
    failed = [res.name for res in results if res.status == "FAIL"]
    passed = sum(res.status == "PASS" for res in results)
    skipped = sum(res.status == "SKIP" for res in results)
    if failed:
        lines.append(f"verify: FAIL ({', '.join(failed)})")
    else:
        lines.append(f"verify: PASS ({passed} suites, {skipped} skipped)")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    t = _scene_tensor(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    # bench at the requested channel width regardless of scan attributes
    feats = rng.normal(0.0, 1.0, size=(t.num_voxels, cfg.channels))
    t = t.with_features(feats.astype(cfg.dtype()))
    rows = []
    for r in BENCH_SWEEP:
        gen = KernelGenerator.create(
            cfg.channels, groups=cfg.groups, mode=cfg.mode,
            kernel_extent=cfg.s * r, rng=rng,
        )
        lcfg = LinKConfig(cfg.s, r, gen)
        params = count_generator_params(gen)
        link_ms = _median_ms(lambda: link_forward(t, lcfg))
        rows.append((cfg.s * r, "link", t.num_voxels, link_ms, params))
        oracle_ms = _median_ms(lambda: link_oracle(t, lcfg))
        rows.append((cfg.s * r, "oracle", t.num_voxels, oracle_ms, params))
    conv = ConvWeights.random(3, t.num_channels, t.num_channels, rng,
                              dtype=t.dtype)

    def run_conv():
        km = build_kernel_map(t, 3, 1)
        sparse_conv_forward(t, conv, km)

    conv_ms = _median_ms(run_conv)
    rows.append(
        (3, "conv3", t.num_voxels, conv_ms,
         count_dense_kernel_params(3, t.num_channels, t.num_channels))
    )
    _emit(cfg, _csv(("kernel_extent", "method", "n_voxels", "wall_ms", "params"), rows))
    return EXIT_OK


def cmd_erf(cfg: RunConfig) -> int:
    t = _scene_tensor(cfg)
    if t.num_voxels == 0:
        raise ConfigError("erf requires a non-empty scene")
    encoder = build_encoder(_encoder_config(cfg, t.num_channels), cfg.seed)
    coords, magnitudes, seed_coord = erf_map(t, encoder, cfg.stage)
    radius = erf_mass_radius(coords, magnitudes, seed_coord, cfg.stage)
    total = float(magnitudes.astype(np.float64).sum())
    rows = [
        (int(c[1]), int(c[2]), int(c[3]), float(m))
        for c, m in zip(coords, magnitudes)
    ]
    trailer = f"# radius90={radius} total={total!r}"
    _emit(cfg, _csv(("x", "y", "z", "magnitude"), rows, trailer))
    return EXIT_OK


def cmd_train_toy(cfg: RunConfig) -> int:
    cloud, point_labels = gen_labeled_scene(
        cfg.seed, cfg.n_points, cfg.extent, cfg.num_classes
    )
    t = voxelize(cloud, cfg.voxel_size, dtype=cfg.dtype())
    if t.num_voxels == 0:
        raise ConfigError("train-toy requires a non-empty scene")
    if cfg.max_voxels and t.num_voxels > cfg.max_voxels:
        t = SparseTensor(t.coords[: cfg.max_voxels], t.features[: cfg.max_voxels])
    labels = voxel_majority_labels(cloud, point_labels, cfg.voxel_size, t,
                                   cfg.num_classes)
    try:
        trace = toy_train(
            [t], [labels], _encoder_config(cfg, t.num_channels),
            cfg.steps, cfg.lr, cfg.num_classes, cfg.seed,
        )
    except DivergenceError as exc:
        print(f"train-toy: {exc}", file=sys.stderr)
        return EXIT_FAIL
    rows = [(i, loss) for i, loss in enumerate(trace)]
    _emit(cfg, _csv(("step", "loss"), rows))
    return EXIT_OK


class Command(NamedTuple):
    run: Callable[[RunConfig], int]
    reads: Sequence[str]  # setting any other key is a ConfigError
    defaults: dict


# the keys bench, erf and train-toy share; preset sets s and r, so it goes with r
_SCENE = "s mode groups channels voxel_size precision seed n_points extent out"
_COMMANDS = {
    "verify": Command(cmd_verify, "seed mode groups precision corrupt out".split(), {}),
    # bench sweeps r itself; its r, the widest it runs, is what the s*r ceiling checks
    "bench": Command(cmd_bench, f"{_SCENE} profile input".split(),
                     {"s": 7, "r": max(BENCH_SWEEP), "n_points": 8_000, "extent": 1.5}),
    "erf": Command(cmd_erf, f"{_SCENE} profile input r stage link_branch preset".split(),
                   {"s": 7, "r": 3, "n_points": 40_000, "extent": 2.4,
                    "profile": "ground+clusters"}),
    "train-toy": Command(cmd_train_toy,
                         f"{_SCENE} r steps lr num_classes link_branch max_voxels preset".split(),
                         {"channels": 12, "n_points": 1_500, "extent": 1.0, "precision": 64,
                          "max_voxels": 200}),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="link",
        description="Sparse large-kernel voxel operator: verification, "
                    "benchmarks, receptive-field maps, toy training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one configuration key")
        p.add_argument("--out", help="write CSV/report to this path")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.command, args.config, args.set, args.out)
        return _COMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
