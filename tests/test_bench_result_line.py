"""The benchmark's last stdout line stays one well-formed result object.

``linkbench/run.py`` reports each workload as one JSON object on the last line
of standard output.  Anything else printed to stdout, or a wrapped library
callable that stops firing in the traced run, breaks that report.  This runs
every workload for a single op, untraced and traced, in its own process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "linkbench" / "run.py"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["encoder-seg", "link-wide", "scan-det"])
def test_last_line_is_a_result(name, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    if not trace:
        assert {"setup_s", "op_s_p50", "peak_rss_mb"} <= set(result["metrics"])
    assert "missing span" not in proc.stderr
