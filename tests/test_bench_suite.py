"""The benchmark's own unit tests, run as part of this suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass() -> None:
    # a child process, as run.run pins the process that calls it to one CPU; bench/tracing.py reads
    # record fields (a pair's lie_type and node) by name, so a record change shows here
    env = {**os.environ, "PYTHONPATH": "src"}
    args = [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
