"""The benchmark's own unit tests and its pinned answers, run as part of this suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# prints, as JSON, the sha256 of each benchmark sweep's JSON report, computed as bench/driver.py does, and
# the universe digest and the hash of every answer of the query-mix universe
PINNED_ANSWERS = """
import hashlib, json
import driver, querymix
from flagcoh import bwb, parabolic, rootsys, verify
sweeps = {w: hashlib.sha256(verify.emit_report(getattr(verify, fn)(*args), "json")).hexdigest()
          for w, (fn, args) in driver.SWEEPS.items()}
queries = querymix.universe()
answers = [querymix.answer_hash(driver.answer(q, rootsys, bwb, parabolic)) for q in queries]
print(json.dumps({"sweeps": sweeps, "universe_sha256": querymix.universe_digest(queries), "answers": answers}))
"""


def test_bench_unit_tests_pass() -> None:
    # a child process, as run.run pins the process that calls it to one CPU; bench/tracing.py reads
    # record fields (a pair's lie_type and node) by name, so a record change shows here
    env = {**os.environ, "PYTHONPATH": "src"}
    args = [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_engine_answers_match_the_benchmark_pins() -> None:
    # the benchmark's correctness pins, so that a changed answer shows without a benchmark run: the report
    # bytes of lungo to rank 16 and studiopesi to rank 12, and every answer of the 2112-query universe;
    # a child process with bench/ on its path, so that its module names shadow nothing here
    pins = json.loads((ROOT / "bench" / "pins.json").read_text())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "bench"]), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", PINNED_ANSWERS], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout)
    assert got["sweeps"] == pins["sweeps"]
    mix = pins["query_mix"]
    assert got["universe_sha256"] == mix["universe_sha256"] and len(got["answers"]) == len(mix["answers"]) == 2112
    wrong = [i for i, (h, row) in enumerate(zip(got["answers"], mix["answers"])) if h != row.split(":")[0]]
    assert wrong == []
