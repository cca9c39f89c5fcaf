"""Recompute the pinned answers in ``pins.json`` from the current tree.

    python3 bench/pin.py

Pins are the reference answers of the benchmark: the sha256 of each
sweep's JSON report and the hash of every query-mix universe answer.
They were made at the tree that introduced the benchmark; repin only when
the engine's answers are meant to change, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import querymix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SWEEP_ARGS = {
    "verify-lungo": ["--sweep", "lungo", "--max-rank", "16"],
    "verify-studiopesi": ["--sweep", "studiopesi", "--max-rank", "12"],
}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from flagcoh import bwb, parabolic, rootsys
    from driver import answer

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sweeps = {}
    for workload, args in SWEEP_ARGS.items():
        out = subprocess.run([sys.executable, "-m", "flagcoh", "verify", *args, "--format", "json"],
                             env=env, cwd=ROOT, capture_output=True, check=True).stdout
        sweeps[workload] = hashlib.sha256(out).hexdigest()
    queries = querymix.universe()
    answers = []
    for q in queries:
        a = answer(q, rootsys, bwb, parabolic)
        shape = "-" if q[0] != "bwb" else ("s" if a == "V" else a.split("|")[0])
        answers.append(f"{querymix.answer_hash(a)}:{shape}")
    pins = {"sweeps": sweeps,
            "query_mix": {"universe_seed": querymix.UNIVERSE_SEED,
                          "universe_sha256": querymix.universe_digest(queries),
                          "answers": answers}}
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=0) + "\n")


if __name__ == "__main__":
    main()
