"""Child process of the benchmark: one in-process sweep or one query-mix driver.

Run by ``run.py`` with ``PYTHONPATH=src`` so that the tree under test is
the one imported.  The last line of standard output is a JSON object with
what the parent needs; a query-mix driver also prints ``ready`` once its
pool is built and warmed, so the parent can time set-up from outside.

    python3 bench/driver.py sweep verify-lungo --trace 1
    python3 bench/driver.py query-mix --seed 3 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calib
import querymix
from tracing import Tracer, summarize, write_spans

OUT_DIR = Path(__file__).resolve().parent / "out"

SWEEPS = {
    "verify-lungo": ("check_theorem_lungo", (16,)),
    "verify-studiopesi": ("check_lemma_studiopesi", (12, (1, 2, 3))),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _finish(result: dict, tracer, mark: int = 0) -> None:
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / f"{result['workload']}.spans.jsonl", spans)
        result["layers"] = summarize(spans, mark)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))


def run_sweep(workload: str, traced: bool) -> None:
    """The sweep as ``flagcoh verify`` runs it, in this process: check, then emit JSON."""
    from flagcoh import verify

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    fn_name, args = SWEEPS[workload]
    t0 = perf_counter()
    report = getattr(verify, fn_name)(*args)
    data = verify.emit_report(report, "json")
    elapsed = perf_counter() - t0
    _finish({
        "workload": workload,
        "inproc_s": elapsed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "failed_cases": report.summary["failed"],
    }, tracer)


def answer(q: tuple, rootsys, bwb, parabolic) -> str:
    """Run one query through the engine and render its answer canonically."""
    if q[0] == "bwb":
        _, _, family, rank, lam = q
        t = bwb.bwb_cohomology(rootsys.root_system(family, rank), rootsys.Weight(lam))
        if t.vanishes:
            return "V"
        return f"{t.degree}|{','.join(map(str, t.dominant_weight.fw_coords))}|{t.dimension}"
    if q[0] == "dim":
        _, family, rank, lam = q
        return str(bwb.weyl_dim(rootsys.root_system(family, rank), rootsys.Weight(lam)))
    _, family, rank, node, twist = q
    pd = parabolic.parabolic_data(rootsys.root_system(family, rank), node)
    total, pieces = parabolic.h0_twisted_cotangent(pd, twist)
    return f"{total}|" + ",".join(f"{level}:{dim}" for level, _, dim in pieces)


def closed_form_checks(rootsys, bwb, parabolic) -> tuple[int, list[str]]:
    """Engine answers against closed forms that share no code with it."""
    attempted, errors = 0, []

    def check(label, got, want):
        nonlocal attempted
        attempted += 1
        if got != want:
            errors.append(f"{label}: got {got!r}, want {want!r}")

    def guarded(label, fn, want):
        try:
            check(label, fn(), want)
        except Exception as exc:  # a wrong answer is counted, never a crash
            check(label, f"error: {exc}", want)

    for family, rank in querymix.pool_types():
        rs = rootsys.root_system(family, rank)
        name = f"{family}{rank}"
        guarded(f"{name} adjoint dim", lambda: bwb.weyl_dim(rs, rootsys.Weight(querymix.adjoint_weight(family, rank))),
                querymix.dim_g(family, rank))
        if family in "ABCD":
            lam1 = (1,) + (0,) * (rank - 1)
            guarded(f"{name} lambda_1 dim", lambda: bwb.weyl_dim(rs, rootsys.Weight(lam1)),
                    querymix.first_fundamental_dim(family, rank))
        minus_two_delta = rootsys.Weight((-2,) * rank)
        guarded(f"{name} bwb(-2 delta)",
                lambda: (lambda t: (t.degree, t.dimension))(bwb.bwb_cohomology(rs, minus_two_delta)),
                (querymix.n_positive(family, rank), 1))
        if family in "BD":
            n = querymix.quadric_dim(family, rank)
            guarded(f"{name} quadric h0 twist 2",
                    lambda: parabolic.h0_twisted_cotangent(parabolic.parabolic_data(rs, 1), 2)[0],
                    (n + 2) * (n + 1) // 2)
    f4 = rootsys.root_system("F", 4)
    guarded("F4 node 4 h0 twist 2",
            lambda: (lambda r: (r[0], [d for _, _, d in r[1]]))(
                parabolic.h0_twisted_cotangent(parabolic.parabolic_data(f4, 4), 2)),
            (325, [273, 52]))
    return attempted, errors


def run_query_mix(seed: int, seconds: float, traced: bool, passes: int) -> None:
    """Build the pool, warm it, then answer the seeded stream in a closed loop.

    Runs whole passes until ``seconds`` have gone by, or exactly
    ``passes`` passes when that is given, with a calibration kernel run
    before the first pass and after each one.  Every answer is checked
    against the pinned hash of its universe query.
    """
    from flagcoh import bwb, parabolic, rootsys

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    for family, rank in querymix.pool_types():
        rootsys.root_system(family, rank)
    attempted, errors = closed_form_checks(rootsys, bwb, parabolic)
    print("ready", flush=True)

    queries = querymix.universe()
    pinned = [row.split(":")[0] for row in json.loads(
        (Path(__file__).resolve().parent / "pins.json").read_text())["query_mix"]["answers"]]
    picks = querymix.stream(seed, queries)
    order = [queries[i] for i in picks]
    expected = [pinned[i] for i in picks]
    latencies: list[int] = []
    by_op: dict[str, list[int]] = {"bwb": [], "dim": [], "h0": []}
    first_pass: list[str] = []
    kernels = [calib.kernel_s()]
    mark = len(tracer.raw) if tracer is not None else 0
    start = perf_counter()
    while True:
        for i, q in enumerate(order):
            if tracer is not None:
                tracer.case = f"q{i}"
            t0 = perf_counter_ns()
            try:
                got = answer(q, rootsys, bwb, parabolic)
            except Exception as exc:  # counted as a failed query, the loop goes on
                got = f"error: {type(exc).__name__}: {exc}"
            dt = perf_counter_ns() - t0
            latencies.append(dt)
            by_op[q[0]].append(dt)
            h = querymix.answer_hash(got)
            attempted += 1
            if h != expected[i]:
                errors.append(f"query {i} {q!r}: answer {got[:80]!r} does not match the pin")
            if len(kernels) == 1:
                first_pass.append(h)
        kernels.append(calib.kernel_s())
        done = len(kernels) - 1
        if done == passes or (not passes and perf_counter() - start >= seconds):
            break
    _finish({
        "workload": "query-mix",
        "seed": seed,
        "pass_length": len(order),
        "latencies_ns": latencies,
        "kernel_s": kernels,
        "op_p50_ns": {op: sorted(v)[len(v) // 2] for op, v in by_op.items() if v},
        "digest": querymix.stream_digest(first_pass),
        "expected_digest": querymix.stream_digest(expected),
        "attempted": attempted,
        "errors": errors[:20],
        "failed": len(errors),
    }, tracer, mark)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("sweep", "query-mix"))
    p.add_argument("workload", nargs="?", choices=sorted(SWEEPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--passes", type=int, default=0, help="run exactly this many passes (0: run for --seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.mode == "sweep":
        if args.workload is None:
            p.error("sweep needs a workload")
        run_sweep(args.workload, bool(args.trace))
    else:
        run_query_mix(args.seed, args.seconds, bool(args.trace), args.passes)


if __name__ == "__main__":
    sys.exit(main())
