import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from link3d.cli import (
    EXIT_FAIL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    _COMMANDS,
    load_config,
    main,
)
from link3d.errors import ConfigError


def run(args):
    return main(args)


class TestConfigParsing:
    def test_defaults(self):
        cfg = load_config("verify", None, [], None)
        assert cfg.s == 3 and cfg.r == 2 and cfg.mode == "pure"

    def test_set_overrides(self):
        cfg = load_config("erf", None, ["s=5", "mode=augmented"], None)
        assert cfg.s == 5 and cfg.mode == "augmented"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config("verify", None, ["sz=5"], None)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config("erf", None, ["s=three"], None)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\ns=7\nr=3\n\nmode=augmented\n")
        cfg = load_config("erf", str(path), ["r=2"], None)
        assert cfg.s == 7 and cfg.r == 2 and cfg.mode == "augmented"

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("voxels=12\n")
        with pytest.raises(ConfigError):
            load_config("verify", str(path), [], None)

    def test_config_file_key_the_command_does_not_read(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("s=7\n")
        with pytest.raises(ConfigError, match="^verify does not read s$"):
            load_config("verify", str(path), [], None)

    def test_presets(self):
        det = load_config("erf", None, ["preset=detection"], None)
        assert (det.s, det.r) == (7, 3)
        seg = load_config("erf", None, ["preset=segmentation"], None)
        assert (seg.s, seg.r) == (3, 2)

    def test_env_threads(self, monkeypatch):
        # neither the variable nor a threads key configures anything
        monkeypatch.setenv("LINK_THREADS", "4")
        assert not hasattr(load_config("bench", None, [], None), "threads")
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            load_config("bench", None, ["threads=4"], None)

    def test_validation(self):
        with pytest.raises(ConfigError):
            load_config("verify", None, ["precision=16"], None)
        with pytest.raises(ConfigError):
            load_config("bench", None, ["groups=3", "channels=8"], None)

    def test_verify_groups_need_no_channels(self):
        # the suites size their channels from groups; the ceiling still holds
        assert load_config("verify", None, ["groups=3"], None).groups == 3
        with pytest.raises(ConfigError, match="groups must be in 1..1024"):
            load_config("verify", None, ["groups=1025"], None)


# text that reaches every coercion and range check, and arbitrary text
CONFIG_VALUES = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "off", "pure", "augmented", "detection", "uniform",
                     "ground+clusters", "drop-neighbor", "1e999", "-0", " 7 "]),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["verify", "bench", "erf", "train-toy"]),
    st.sampled_from([f.name for f in fields(RunConfig)] + ["preset"]),
    CONFIG_VALUES,
)
def test_any_set_value_validates_or_is_a_config_error(command, key, value):
    """Validation only: no command runs on the generated values."""
    try:
        load_config(command, None, [f"{key}={value}"], None)
    except ConfigError:
        pass


SIZED = ["bench", "erf", "train-toy"]  # the commands that read s, channels and n_points
LAYOUT = ["erf", "train-toy"]  # the commands that read r
TOO_LARGE = [
    (SIZED, ["channels=1025"], "channels"),
    (SIZED, ["channels=1000000000000"], "channels"),
    (SIZED, ["n_points=10000001"], "n_points"),
    (SIZED, ["n_points=1000000000000"], "n_points"),
    (SIZED, ["s=65537"], "s*r"),
    (LAYOUT, ["s=256", "r=257"], "s*r"),
    (LAYOUT, ["preset=detection", "r=9363"], "s*r"),
    (LAYOUT, ["r=100000000000000000000"], "s*r"),
    # bench sweeps r up to 5, so its widest field is 5 * 13108 = 65540
    (["bench"], ["s=13108"], "s*r"),
]


@pytest.mark.parametrize(
    "command,settings,key",
    [(command, settings, key) for commands, settings, key in TOO_LARGE for command in commands],
)
def test_too_large_is_one_line_config_error(command, settings, key):
    """Validation only: these sizes are never allocated."""
    with pytest.raises(ConfigError, match=re.escape(key)) as exc:
        load_config(command, None, settings, None)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("settings", [["channels=1024"], ["n_points=10000000"],
                                      ["s=256", "r=256"], ["s=1", "r=65536"]])
def test_ceilings_are_inclusive(settings):
    load_config("erf", None, settings, None)


@pytest.mark.parametrize(
    "command,settings",
    [
        ("erf", [f"seed={2 ** 128 + 1}"]),
        ("train-toy", [f"seed={2 ** 128 + 1}", "steps=1"]),
        ("train-toy", [f"max_voxels={10 ** 23}", "steps=1"]),
    ],
)
def test_huge_uncapped_values_run(command, settings, tmp_path, capsys):
    """``seed`` and ``max_voxels`` have no ceiling: values far past any size
    still run to exit 0 without a traceback."""
    args = [command, "--set", "n_points=200", "--out", str(tmp_path / "out.csv")]
    for setting in settings:
        args += ["--set", setting]
    assert run(args) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_huge_steps_is_accepted():
    """Validation only: ``steps`` has no ceiling, and nothing runs here."""
    assert load_config("train-toy", None, [f"steps={10 ** 23}"], None).steps == 10 ** 23


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)] + ["preset"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_takes_only_the_keys_it_reads(command, key, capsys):
    """A key in the command's table entry loads; any other exits 2 naming both.
    Nothing runs: the refusal comes from loading the configuration."""
    reads = _COMMANDS[command].reads
    assert ("preset" in reads) == ({"s", "r"} <= set(reads))  # preset sets s and r
    value = "detection" if key == "preset" else str(getattr(RunConfig(), key))
    if key in reads:
        load_config(command, None, [f"{key}={value}"], None)
    else:
        assert run([command, "--set", f"{key}={value}"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {command} does not read {key}\n"


class TestVerifyCommand:
    def test_default_pure_passes(self, capsys):
        assert run(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite oracle_equivalence" in out
        assert "verify: PASS" in out

    def test_corrupted_gather_fails(self, capsys):
        assert run(["verify", "--set", "corrupt=drop-neighbor"]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert "verify: FAIL (oracle_equivalence)" in out

    def test_augmented_skips_purity(self, capsys):
        assert run(["verify", "--set", "mode=augmented", "--set", "groups=2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite sum_to_product: skipped (augmented)" in out
        assert "suite offset_purity: skipped (augmented)" in out

    def test_unknown_key_exits_2(self, capsys):
        assert run(["verify", "--set", "bogus=1"]) == EXIT_USAGE

    def test_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "verify.txt"
        assert run(["verify", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0].startswith("suite oracle_equivalence")
        assert all(line.startswith("suite ") for line in lines[:-1])
        assert re.fullmatch(rf"verify: PASS \({len(lines) - 1} suites, 0 skipped\)", lines[-1])

    def test_input_is_a_usage_error(self, tmp_path, capsys):
        # the suites run on generated scenes, so a scan path is refused
        assert run(["verify", "--set", f"input={tmp_path}/absent.bin"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify does not read input\n"


SMALL_BENCH = [
    "--set", "n_points=4000", "--set", "extent=1.2", "--set", "s=3",
    "--set", "channels=4",
]


class TestBenchCommand:
    def test_csv_schema_and_param_invariance(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", *SMALL_BENCH, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kernel_extent,method,n_voxels,wall_ms,params"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 7  # link and oracle at r in {1,3,5}, one conv3 row
        link_rows = [r for r in rows if r[1] == "link"]
        assert {r[0] for r in link_rows} == {"3", "9", "15"}
        assert len({r[4] for r in link_rows}) == 1
        oracle_rows = [r for r in rows if r[1] == "oracle"]
        assert len(oracle_rows) == 3
        conv_rows = [r for r in rows if r[1] == "conv3"]
        assert len(conv_rows) == 1 and conv_rows[0][4] == str(27 * 4 * 4)
        for r in rows:
            assert float(r[3]) > 0.0


    def test_deterministic_apart_from_wall_time(self, tmp_path):
        def masked(path):
            lines = path.read_text().strip().splitlines()
            rows = [l.split(",") for l in lines[1:]]
            return [r[:3] + r[4:] for r in rows]

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small = ["--set", "n_points=1500", "--set", "extent=0.8",
                 "--set", "s=3", "--set", "channels=2"]
        assert run(["bench", *small, "--out", str(a)]) == EXIT_OK
        assert run(["bench", *small, "--out", str(b)]) == EXIT_OK
        assert masked(a) == masked(b)


class TestErfCommand:
    ARGS = ["--set", "n_points=6000", "--set", "extent=1.0", "--set", "s=3",
            "--set", "channels=4", "--set", "stage=1"]

    def test_csv_schema_and_totals(self, tmp_path):
        out = tmp_path / "erf.csv"
        assert run(["erf", *self.ARGS, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,magnitude"
        assert lines[-1].startswith("# radius90=")
        mags = np.array([float(l.split(",")[3]) for l in lines[1:-1]])
        assert (mags >= 0).all()
        total = float(lines[-1].split("total=")[1])
        np.testing.assert_allclose(mags.sum(), total, rtol=1e-9)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["erf", *self.ARGS, "--out", str(a)]) == EXIT_OK
        assert run(["erf", *self.ARGS, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_empty_scene_usage_error(self, tmp_path):
        assert run(["erf", "--set", "n_points=0"]) == EXIT_USAGE

    def test_paired_slab_run_shows_wider_radius(self, tmp_path):
        # controlled comparison on a dense slab scan fed through the CLI
        xs, ys, zs = np.meshgrid(
            np.arange(96), np.arange(96), np.arange(4), indexing="ij"
        )
        centers = (np.stack([xs, ys, zs], axis=-1).reshape(-1, 3) + 0.5) * 0.05
        rng = np.random.default_rng(0)
        intensity = rng.uniform(0.5, 1.5, size=(centers.shape[0], 1))
        rec = np.concatenate([centers, intensity], axis=1).astype("<f4")
        scan = tmp_path / "slab.bin"
        scan.write_bytes(rec.tobytes())
        radii = {}
        for flag in ("true", "false"):
            out = tmp_path / f"erf_{flag}.csv"
            args = ["erf", "--set", f"input={scan}", "--set", "s=7",
                    "--set", "r=3", "--set", "stage=2", "--set", "channels=8",
                    "--set", f"link_branch={flag}", "--out", str(out)]
            assert run(args) == EXIT_OK
            trailer = out.read_text().strip().splitlines()[-1]
            radii[flag] = int(trailer.split("radius90=")[1].split()[0])
        assert radii["true"] > radii["false"]


TOY_ARGS = ["--set", "steps=6", "--set", "n_points=600", "--set", "channels=4",
            "--set", "max_voxels=80"]


class TestTrainToyCommand:
    def test_lr_zero_constant(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run(["train-toy", *TOY_ARGS, "--set", "lr=0", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        losses = {l.split(",")[1] for l in lines[1:]}
        assert len(lines) == 7 and len(losses) == 1

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["train-toy", *TOY_ARGS, "--out", str(a)]) == EXIT_OK
        assert run(["train-toy", *TOY_ARGS, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_loss_decreases(self, tmp_path):
        out = tmp_path / "trace.csv"
        args = ["train-toy", "--set", "steps=40", "--set", "n_points=600",
                "--set", "channels=6", "--set", "max_voxels=80",
                "--out", str(out)]
        assert run(args) == EXIT_OK
        lines = out.read_text().strip().splitlines()[1:]
        losses = [float(l.split(",")[1]) for l in lines]
        assert losses[-1] < losses[0]

    def test_divergence_reports_step_and_fails(self, tmp_path, capsys):
        # float32 overflows once the runaway logits pass ~3.4e38
        args = ["train-toy", *TOY_ARGS, "--set", "lr=1e8", "--set", "steps=40",
                "--set", "precision=32", "--out", str(tmp_path / "t.csv")]
        assert run(args) == EXIT_FAIL
        assert "non-finite loss" in capsys.readouterr().err

    def test_empty_scene_usage_error(self, capsys):
        assert run(["train-toy", "--set", "n_points=0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: train-toy requires a non-empty scene\n"

    def test_input_is_a_usage_error(self, tmp_path, capsys):
        # it trains on its generated labeled scene, so a scan path is refused
        assert run(["train-toy", "--set", f"input={tmp_path}/absent.bin"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: train-toy does not read input\n"

    def test_float32_training_runs(self, tmp_path):
        out = tmp_path / "trace.csv"
        args = ["train-toy", *TOY_ARGS, "--set", "precision=32",
                "--out", str(out)]
        assert run(args) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7


class TestInputAndExitCodes:
    def test_bin_input_accepted(self, tmp_path):
        scan = tmp_path / "scan.bin"
        rng = np.random.default_rng(0)
        rec = np.concatenate(
            [rng.uniform(-0.5, 0.5, (3000, 3)), rng.uniform(0, 1, (3000, 1))],
            axis=1,
        ).astype("<f4")
        scan.write_bytes(rec.tobytes())
        out = tmp_path / "erf.csv"
        args = ["erf", "--set", f"input={scan}", "--set", "s=3",
                "--set", "channels=4", "--set", "stage=1", "--out", str(out)]
        assert run(args) == EXIT_OK

    def test_bad_bin_exits_3(self, tmp_path, capsys):
        scan = tmp_path / "scan.bin"
        scan.write_bytes(b"\x01" * 18)
        assert run(["erf", "--set", f"input={scan}"]) == EXIT_IO

    def test_missing_input_exits_3(self, tmp_path):
        assert run(["erf", "--set", f"input={tmp_path}/absent.bin"]) == EXIT_IO

    def test_unreadable_config_exits_3(self, tmp_path):
        assert run(["verify", "--config", f"{tmp_path}/absent.cfg"]) == EXIT_IO

    def test_config_not_utf8_exits_3_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "utf16.cfg"
        config.write_bytes("s=3\n".encode("utf-16"))
        assert config.read_bytes().startswith(b"\xff\xfe")
        assert run(["verify", "--config", str(config)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"error: {config}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("bench", "voxel_size=nan"),
            ("bench", "voxel_size=inf"),
            ("bench", "voxel_size=0"),
            ("bench", "voxel_size=-0.05"),
            ("bench", "extent=nan"),
            ("bench", "extent=inf"),
            ("bench", "extent=0"),
            ("bench", "extent=-1"),
            ("bench", "extent=1e4"),
            ("train-toy", "lr=nan"),
            ("train-toy", "lr=inf"),
            ("train-toy", "lr=-inf"),
            ("bench", "deterministic=true"),
            ("bench", "threads=2"),
            ("bench", "seed=-1"),
            ("bench", "seed=-9223372036854775808"),
        ],
    )
    def test_bad_size_exits_2_with_one_line(self, command, setting, capsys):
        key = setting.partition("=")[0]
        assert run([command, "--set", setting]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert key in err

    @pytest.mark.parametrize(
        "records",
        [
            [(0.1, 0.2, 0.3, 0.5), (np.nan, 0.0, 0.0, 1.0), (0.3, 0.1, 0.2, 0.4)],
            [(0.1, 0.2, 0.3, 0.5), (0.0, np.inf, 0.0, 1.0)],
            [(0.1, 0.2, 0.3, np.nan), (0.3, 0.1, 0.2, 0.4)],
            [(0.1, 0.2, 0.3, 0.5), (1e6, 0.0, 0.0, 1.0)],
            [(0.1, 0.2, 0.3, 0.5), (0.0, 0.0, -2e3, 1.0)],
        ],
        ids=["nan-x", "inf-y", "nan-intensity", "far-x", "far-z"],
    )
    def test_bad_scan_contents_exit_3_with_one_line(self, records, tmp_path, capsys):
        scan = tmp_path / "scan.bin"
        scan.write_bytes(np.array(records, dtype="<f4").tobytes())
        assert run(["erf", "--set", f"input={scan}"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {scan}: ")

    def test_out_of_range_positions_exit_without_warnings(self, tmp_path, capsys):
        """A position no voxel key holds, in a scan or from a scene's extent,
        is one error line: it is never cast to an integer, and a division
        past the float range does not warn."""
        scan = tmp_path / "scan.bin"
        scan.write_bytes(np.array([(1e30, 0.0, 0.0, 1.0)], dtype="<f4").tobytes())
        cases = [(["--set", f"input={scan}"], EXIT_IO),
                 (["--set", "n_points=3", "--set", "extent=1e308"], EXIT_USAGE)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args, code in cases:
                assert run(["erf", *args]) == code
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and "outside batch" in err
