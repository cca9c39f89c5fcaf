"""flagcoh benchmark: two cold CLI sweeps and a warm query mix.

    python3 bench/run.py --workload verify-lungo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the tree under ``src/`` is the program
measured.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it name every metric with
its unit and record the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
WORKLOADS = ("verify-lungo", "verify-studiopesi", "query-mix")
SWEEP_ARGS = {
    "verify-lungo": ["verify", "--sweep", "lungo", "--max-rank", "16", "--format", "json"],
    "verify-studiopesi": ["verify", "--sweep", "studiopesi", "--max-rank", "12", "--format", "json"],
}
STARTUP_SAMPLES = 9      # cold `flagcoh --version` runs timed per run
QUERY_DRIVERS = 3        # query-mix driver processes per run, each set up from scratch
CHILD_TIMEOUT_S = 150


class Child:
    """One child process: its output lines, exit code, wall time and peak RSS."""

    def __init__(self, argv: list[str], ready_line: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.setup_s = None
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            chunks = []
            for line in proc.stdout:
                if ready_line is not None and self.setup_s is None and line.rstrip() == ready_line.encode():
                    self.setup_s = perf_counter() - t0
                else:
                    chunks.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = perf_counter() - t0
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.output = b"".join(chunks)
        self.peak_rss_mb = usage.ru_maxrss / 1024

    def last_json(self):
        """The JSON object on the last output line, or None."""
        try:
            return json.loads(self.output.decode().rstrip().rsplit("\n", 1)[-1])
        except (ValueError, IndexError):
            return None


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, errors: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(errors) if failed is None else failed
        self.errors.extend(errors)


def pin_to_one_cpu() -> tuple[list[int], int]:
    """Pin this process and its children to the lowest allowed CPU.

    The CPUs of a shared machine differ in speed from minute to minute;
    on one CPU, the calibration kernel and the timed work see the same
    speed.  Returns the affinity found and the CPU chosen.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed, allowed[0]


def env_stamp(seed: int, affinity: list[int], cpu: int) -> dict:
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "platform": platform.platform(),
        "seed": seed,
    }


def calibrated_runs(argv: list[str]):
    """Children run one after another, each yielded with its speed factor.

    A calibration kernel runs before the first child and after each one;
    a child's factor is the mean of the kernel times on either side of it
    over ``REFERENCE_S``.
    """
    before = calib.kernel_s()
    while True:
        c = Child(argv)
        after = calib.kernel_s()
        yield c, (before + after) / 2 / calib.REFERENCE_S
        before = after


def cli_startup(tally: Tally) -> list[tuple[float, float]]:
    """(raw, calibrated) wall times of cold `python -m flagcoh --version` processes."""
    times = []
    for c, factor in itertools.islice(calibrated_runs([sys.executable, "-m", "flagcoh", "--version"]),
                                      STARTUP_SAMPLES):
        ok = c.returncode == 0 and c.output.startswith(b"flagcoh ")
        tally.add(1, [] if ok else [f"--version: exit {c.returncode}, output {c.output[:200]!r}"])
        times.append((c.wall_s, c.wall_s / factor))
    return times


def medians(pairs) -> tuple[float, float]:
    """Medians of the raw and of the calibrated values."""
    pairs = list(pairs)
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def check_sweep(workload: str, returncode: int, report: bytes, pins: dict) -> list[str]:
    """Errors of one sweep: exit code, failed cases, and the pinned report digest."""
    errors = []
    if returncode != 0:
        errors.append(f"{workload}: exit code {returncode}")
    try:
        failed = json.loads(report)["summary"]["failed"]
    except (ValueError, KeyError, TypeError):
        failed = None
    if failed != 0:
        errors.append(f"{workload}: report summary failed = {failed}")
    digest = hashlib.sha256(report).hexdigest()
    if digest != pins["sweeps"][workload]:
        errors.append(f"{workload}: report sha256 {digest[:12]} != pinned {pins['sweeps'][workload][:12]}")
    return errors


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, round(q * len(s)) - 1))]


def sweep_end_to_end(workload: str, seconds: float, pins: dict, tally: Tally, lines: list) -> dict:
    startup = cli_startup(tally)
    walls, rss = [], []
    start = perf_counter()
    for c, factor in calibrated_runs([sys.executable, "-m", "flagcoh", *SWEEP_ARGS[workload]]):
        tally.add(1, check_sweep(workload, c.returncode, c.output, pins))
        walls.append((c.wall_s, c.wall_s / factor))
        rss.append(c.peak_rss_mb)
        if perf_counter() - start >= seconds:
            break
    setup_raw, setup = medians(startup)
    wall_raw, wall = medians(walls)
    lines += [
        ("setup_s", setup, "s", f"calibrated; raw {setup_raw:.4f} s; median of {len(startup)} cold `flagcoh --version`"),
        ("wall_s", wall, "s", f"calibrated; raw {wall_raw:.4f} s; median of {len(walls)} cold sweep processes"),
        ("peak_rss_mb", max(rss), "MB", "largest sweep child"),
    ]
    return {"setup_s": setup, "op_p50_s": wall, "ops_per_s": 1 / wall, "peak_rss_mb": max(rss)}


def query_mix_children(seed: int, seconds: float, trace: int, passes: int, tally: Tally) -> list:
    """Run query-mix drivers one after another; return (child, result, setup factor) triples."""
    out = []
    for _ in range(QUERY_DRIVERS if passes == 0 else 1):
        before = calib.kernel_s()
        c = Child([sys.executable, str(BENCH / "driver.py"), "query-mix", "--seed", str(seed),
                   "--seconds", str(seconds / QUERY_DRIVERS), "--passes", str(passes),
                   "--trace", str(trace)], ready_line="ready")
        r = c.last_json()
        if c.returncode != 0 or r is None or c.setup_s is None:
            tally.add(1, [f"query-mix driver: exit {c.returncode}, output {c.output[-300:]!r}"])
            continue
        errors = list(r["errors"])
        if r["digest"] != r["expected_digest"]:
            errors.append(f"query-mix seed {seed}: answer digest {r['digest'][:12]} != pinned {r['expected_digest'][:12]}")
        tally.add(r["attempted"] + 1, errors, r["failed"] + (r["digest"] != r["expected_digest"]))
        out.append((c, r, (before + r["kernel_s"][0]) / 2 / calib.REFERENCE_S))
    return out


def query_passes(r: dict) -> list[tuple[list[int], float]]:
    """Each full pass's latencies (ns) with the speed factor of the kernels around it."""
    n, k = r["pass_length"], r["kernel_s"]
    return [(r["latencies_ns"][i * n:(i + 1) * n], (k[i] + k[i + 1]) / 2 / calib.REFERENCE_S)
            for i in range(len(k) - 1)]


def query_mix_end_to_end(seed: int, seconds: float, tally: Tally, lines: list) -> dict:
    """Set-up per driver, and per-pass figures over all drivers' passes.

    Every pass answers the same queries, so passes are like samples: the
    gated latency is the median over passes of each pass's median query,
    and the throughput is the pass length over the median pass time.
    """
    runs = query_mix_children(seed, seconds, 0, 0, tally)
    if not runs:
        return {}
    passes = [p for _, r, _ in runs for p in query_passes(r)]
    setup_raw, setup = medians((c.setup_s, c.setup_s / f) for c, _, f in runs)
    p50_raw, p50 = medians((statistics.median(lat) / 1e9, statistics.median(lat) / 1e9 / f) for lat, f in passes)
    pass_raw, pass_s = medians((sum(lat) / 1e9, sum(lat) / 1e9 / f) for lat, f in passes)
    length = runs[0][1]["pass_length"]
    lat_us = [ns / 1000 for _, r, _ in runs for ns in r["latencies_ns"]]
    rss = max(r["peak_rss_mb"] for _, r, _ in runs)
    n = len(lat_us)
    lines += [
        ("setup_s", setup, "s", f"calibrated; raw {setup_raw:.4f} s; median of {len(runs)} drivers, "
                               "start until pool built and warmed"),
        ("query_p50_us", p50 * 1e6, "us", f"calibrated; raw {p50_raw * 1e6:.2f} us; "
                                         f"median over {len(passes)} passes of {length} queries"),
        ("query_p99_us", percentile(lat_us, 0.99), "us", f"raw; {n} queries, {n - round(0.99 * n)} beyond p99"),
        ("queries_per_s", length / pass_s, "1/s", f"calibrated; raw {length / pass_raw:.1f} 1/s; "
                                                  "one closed-loop caller"),
        ("peak_rss_mb", rss, "MB", "largest driver"),
    ]
    for op in ("bwb", "dim", "h0"):
        lines.append((f"{op}_p50_us", statistics.median(r["op_p50_ns"][op] / 1000 for _, r, _ in runs), "us",
                      "raw; median over drivers of the per-op median"))
    lines.append(("answer_digest", runs[0][1]["digest"], "sha256", f"seed {seed}, first pass"))
    return {"setup_s": setup, "op_p50_s": p50, "ops_per_s": length / pass_s, "peak_rss_mb": rss}


# Metrics reported with --trace 0 and with --trace 1, in BENCHMARK.json order.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = (
    ("rootsys.build_root_system.self_s", "s"),
    ("rootsys.build_root_system.calls", "count"),
    ("rootsys.root_system.hit_ratio", "ratio"),
    ("parabolic.parabolic_data.self_s", "s"),
    ("parabolic.konno_lowest_weights.self_s", "s"),
    ("parabolic.konno_lowest_weights.calls_per_pair", "ratio"),
    ("parabolic.h0_twisted_cotangent.self_s", "s"),
    ("bwb.bwb_cohomology.self_s", "s"),
    ("bwb.to_dominant.self_s", "s"),
    ("bwb.to_dominant.reflections", "count"),
    ("bwb.singular_ratio", "ratio"),
    ("bwb.weyl_dim.self_s", "s"),
    ("verify.emit_report.bytes", "bytes"),
    ("cli.startup_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(PER_LAYER)


def _calibrate_layers(layers: dict, factor: float) -> dict:
    out = {k: v / factor if k.endswith("_s") else v for k, v in layers.items()}
    out["build_s_by_type"] = {t: v / factor for t, v in layers["build_s_by_type"].items()}
    return out


def traced(workload: str, seed: int, seconds: float, pins: dict, tally: Tally, lines: list) -> dict:
    """Alternate fresh untraced and traced processes; report per-layer medians.

    Times are calibrated per process, so the overhead compares the two
    kinds of process at the same machine speed.
    """
    startup = cli_startup(tally)
    plain, layers = [], []
    start = perf_counter()
    rounds = 0
    while (not layers and rounds < 3) or perf_counter() - start < seconds:
        rounds += 1
        for trace in (0, 1):
            if workload == "query-mix":
                runs = query_mix_children(seed, 0, trace, 1, tally)
                if not runs:
                    continue
                r = runs[0][1]
                (lat, factor), = query_passes(r)
                total = sum(lat) / 1e9
            else:
                c, factor = next(calibrated_runs([sys.executable, str(BENCH / "driver.py"), "sweep",
                                                  workload, "--trace", str(trace)]))
                r = c.last_json()
                if c.returncode != 0 or r is None:
                    tally.add(1, [f"{workload} in-process: exit {c.returncode}, output {c.output[-300:]!r}"])
                    continue
                errors = [] if r["failed_cases"] == 0 else [f"{workload}: {r['failed_cases']} failed cases"]
                if r["sha256"] != pins["sweeps"][workload]:
                    errors.append(f"{workload} in-process: report sha256 {r['sha256'][:12]} != pinned")
                tally.add(1, errors)
                total = r["inproc_s"]
            if trace:
                r["layers"]["trace.total_s"] = total
                layers.append(_calibrate_layers(r["layers"], factor))
            else:
                plain.append(total / factor)
    if not layers or not plain:
        return {}
    med = {k: statistics.median(l[k] for l in layers) for k in layers[0] if k != "build_s_by_type"}
    untraced = statistics.median(plain)
    med["cli.startup_s"] = medians(startup)[1]
    med["trace.untraced_s"] = untraced
    med["trace.overhead_ratio"] = med["trace.total_s"] / untraced - 1
    scope = "the query pass" if workload == "query-mix" else "sweep + emit"
    for k, v in med.items():
        lines.append((k, v, UNITS.get(k, "s" if k.endswith("_s") else "count"), ""))
    builds = layers[-1]["build_s_by_type"]
    for t in ("E8", "C16", "B30"):
        if t in builds:
            lines.append((f"rootsys.build_root_system[{t}]", builds[t], "s", "last traced process"))
    lines.append(("trace.check", med["trace.self_sum_s"] - untraced, "s",
                  f"self-time sum minus untraced in-process time of {scope} "
                  f"({len(layers)} traced, {len(plain)} untraced processes)"))
    return {k: med[k] for k, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: int, pins: dict | None = None) -> dict:
    """One benchmark run; prints the metric lines and returns the result object."""
    pins = pins if pins is not None else json.loads(PINS.read_text())
    affinity, cpu = pin_to_one_cpu()
    tally, lines = Tally(), []
    if trace:
        metrics = traced(workload, seed, seconds, pins, tally, lines)
    elif workload == "query-mix":
        metrics = query_mix_end_to_end(seed, seconds, tally, lines)
    else:
        metrics = sweep_end_to_end(workload, seconds, pins, tally, lines)
    attempted = max(tally.attempted, 1)
    lines.append(("error_rate", tally.failed / attempted, "ratio", f"{tally.failed} failed of {attempted}"))
    print(f"# workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print("# env " + json.dumps(env_stamp(seed, affinity, cpu)))
    for name, value, unit, note in lines:
        print(f"{name:48s} {value!s:>22} {unit:6s} {note}")
    for e in tally.errors[:10]:
        print(f"# error: {e}")
    units = UNITS if trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="flagcoh benchmark (see bench/README.md)")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "flagcoh" / "__init__.py").is_file():
        print(f"error: no flagcoh source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        run(w, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
