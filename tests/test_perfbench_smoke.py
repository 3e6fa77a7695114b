"""Smoke runs of the benchmark script, so its calls into kcusum keep working.

The script looks kcusum's functions up by name (the traced run wraps
them in spans), so a renamed or removed function fails here first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_perfbench_tiny_run_exits_0(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--tiny",
         "--seconds", "2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
