"""In-memory spans around the public functions of each flagcoh module.

``Tracer.install`` rebinds every traced function at every ``flagcoh``
module that holds it (``flagcoh.verify.h0_twisted_cotangent``,
``flagcoh.parabolic.bwb_cohomology``, ``flagcoh.bwb.to_dominant`` and so
on), so calls between modules pass through the wrapper.  Nothing under
``src/`` changes.  A span is (name, start, end, parent span, case, Lie
type); spans stay in memory and are written out by ``write_spans``.  Self time
is span time minus the time of the span's direct children.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (module, function) pairs that are traced, and the layer name each gets.
TRACED = {
    ("rootsys", "build_root_system"): "rootsys.build_root_system",
    ("rootsys", "root_system"): "rootsys.root_system",
    ("parabolic", "parabolic_data"): "parabolic.parabolic_data",
    ("parabolic", "konno_pairs"): "parabolic.konno_pairs",
    ("parabolic", "konno_lowest_weights"): "parabolic.konno_lowest_weights",
    ("parabolic", "h0_twisted_cotangent"): "parabolic.h0_twisted_cotangent",
    ("bwb", "bwb_cohomology"): "bwb.bwb_cohomology",
    ("bwb", "to_dominant"): "bwb.to_dominant",
    ("bwb", "weyl_dim"): "bwb.weyl_dim",
    ("bwb", "classify"): "bwb.classify",
    ("bwb", "classify_cotangent_twist_weights"): "bwb.classify_cotangent_twist_weights",
    ("verify", "check_theorem_lungo"): "verify.sweep",
    ("verify", "check_lemma_studiopesi"): "verify.sweep",
    ("verify", "emit_report"): "verify.emit_report",
}

# What a span keeps of its function's result, for the counters.  A
# lowest-weight lookup keeps 1 when it returned: konno_pairs also calls it
# on omitted pairs, which raise.
_RESULT = {
    "parabolic.konno_lowest_weights": lambda r: 1,
    "bwb.to_dominant": lambda r: None if r is None else r[0],
    "verify.emit_report": len,
}


def _tags(name: str, args: tuple) -> tuple:
    """(Lie type, pair) of a call, read off its first arguments."""
    if not args:
        return None, None
    first = args[0]
    if name == "rootsys.root_system":
        return f"{first}{args[1]}".upper(), None
    if name == "rootsys.build_root_system":
        return str(first), None
    lie_type = getattr(first, "lie_type", None)
    if lie_type is None:
        return None, None
    node = getattr(first, "node", None)
    return str(lie_type), None if node is None else f"{lie_type}/{node}"


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.raw: list = []
        self.stack: list[int] = []
        self.case = None
        self._saved: list = []

    def _wrap(self, name: str, fn):
        raw, stack = self.raw, self.stack
        keep = _RESULT.get(name)

        def traced(*args, **kwargs):
            sid = len(raw)
            parent = stack[-1] if stack else -1
            raw.append(None)
            stack.append(sid)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                kept = keep(result) if keep is not None and result is not None else None
                raw[sid] = (name, t0, t1, parent, self.case, args[:2], kept)

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a flagcoh module holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "flagcoh" or k.startswith("flagcoh.")]
        for (mod, fn_name), name in TRACED.items():
            original = getattr(sys.modules[f"flagcoh.{mod}"], fn_name)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    self._saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)

    def uninstall(self) -> None:
        for m, fn_name, original in reversed(self._saved):
            setattr(m, fn_name, original)
        self._saved.clear()

    def spans(self) -> list[dict]:
        """Finished spans with self time; a span's case defaults to its parent's."""
        out: list[dict] = []
        for sid, (name, t0, t1, parent, case, args, kept) in enumerate(self.raw):
            lie_type, pair = _tags(name, args)
            if case is None:
                case = pair if pair is not None else (out[parent]["case"] if parent >= 0 else None)
            out.append({"id": sid, "name": name, "start_ns": t0, "end_ns": t1, "parent": parent,
                        "case": case, "lie_type": lie_type, "pair": pair, "result": kept,
                        "self_ns": t1 - t0})
        for s in out:
            if s["parent"] >= 0:
                out[s["parent"]]["self_ns"] -= s["end_ns"] - s["start_ns"]
        return out


def write_spans(path, spans: list[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


# Layer metrics printed by the traced run.  Self times of functions a
# workload never calls are 0; the time metrics listed in BENCHMARK.json
# are the ones every workload exercises.
SELF_TIME_LAYERS = tuple(dict.fromkeys(TRACED.values()))


def summarize(spans: list[dict], mark: int = 0) -> dict:
    """Per-layer self times and counters of one traced process.

    ``trace.self_sum_s`` adds the self times of the spans from index
    ``mark`` on, the part of the run that the untraced twin also times.
    """
    self_ns = dict.fromkeys(SELF_TIME_LAYERS, 0)
    calls = dict.fromkeys(SELF_TIME_LAYERS, 0)
    builds_in_cache_miss = 0
    konno_pairs_seen = set()
    reflections = singular = 0
    emitted = 0
    build_by_type: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        self_ns[name] += s["self_ns"]
        calls[name] += 1
        if name == "rootsys.build_root_system":
            build_by_type[s["lie_type"]] = build_by_type.get(s["lie_type"], 0) + s["end_ns"] - s["start_ns"]
            if s["parent"] >= 0 and spans[s["parent"]]["name"] == "rootsys.root_system":
                builds_in_cache_miss += 1
        elif name == "parabolic.konno_lowest_weights" and s["result"]:
            konno_pairs_seen.add(s["pair"])
        elif name == "bwb.to_dominant":
            if s["result"] is None:
                singular += 1
            else:
                reflections += s["result"]
        elif name == "verify.emit_report":
            emitted += s["result"] or 0
    lookups = calls["rootsys.root_system"]
    metrics = {f"{k}.self_s": v / 1e9 for k, v in self_ns.items()}
    metrics.update({
        "rootsys.build_root_system.calls": calls["rootsys.build_root_system"],
        "rootsys.root_system.calls": lookups,
        "rootsys.root_system.hit_ratio": (lookups - builds_in_cache_miss) / lookups if lookups else 0.0,
        "parabolic.konno_lowest_weights.calls": calls["parabolic.konno_lowest_weights"],
        "parabolic.konno_lowest_weights.pairs": len(konno_pairs_seen),
        "parabolic.konno_lowest_weights.calls_per_pair": (
            calls["parabolic.konno_lowest_weights"] / len(konno_pairs_seen) if konno_pairs_seen else 0.0),
        "bwb.to_dominant.calls": calls["bwb.to_dominant"],
        "bwb.to_dominant.reflections": reflections,
        "bwb.singular_ratio": singular / calls["bwb.to_dominant"] if calls["bwb.to_dominant"] else 0.0,
        "verify.emit_report.bytes": emitted,
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(s["self_ns"] for s in spans[mark:]) / 1e9,
    })
    metrics["build_s_by_type"] = {t: ns / 1e9 for t, ns in sorted(build_by_type.items())}
    return metrics
