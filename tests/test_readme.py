"""README stays true to the code: its library quickstart runs, and its lists of
config keys, all of them and each command's, are the command-line tool's."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from link3d.cli import RunConfig, _COMMANDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text under README's heading ``title``, up to the next heading."""
    match = re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#+ |\Z)", README, re.S | re.M)
    assert match, f"README has no heading {title!r}"
    return match.group(1)


def test_library_quickstart_runs():
    (code,) = re.findall(r"```python\n(.*?)```", section("Library quickstart"), re.S)
    np.random.seed(0)  # the block draws its scene from numpy's global generator
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})


def test_config_keys_are_the_run_config_fields():
    listing = section("Config keys").split("\n\n")[0]
    # value names in parentheses, such as `pure`, are not keys
    keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", listing))
    expected = {f.name for f in fields(RunConfig)} | {"preset"}
    assert sorted(keys) == sorted(expected)


def test_each_command_lists_the_keys_it_reads():
    items = re.findall(r"^- `([a-z-]+)`: (.*?)\.$", section("Config keys"), re.S | re.M)
    listed = {command: sorted(re.findall(r"`([^`]+)`", keys)) for command, keys in items}
    assert listed == {command: sorted(c.reads) for command, c in _COMMANDS.items()}
