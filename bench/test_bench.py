"""Tests of the benchmark itself (not of flagcoh).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import querymix  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
UNIVERSE = querymix.universe()
ANSWERS = PINS["query_mix"]["answers"]


def expected_digest(seed: int) -> str:
    return querymix.stream_digest(ANSWERS[i].split(":")[0] for i in querymix.stream(seed, UNIVERSE))


class StreamTest(unittest.TestCase):
    def test_pins_cover_this_universe(self):
        self.assertEqual(PINS["query_mix"]["universe_sha256"], querymix.universe_digest(UNIVERSE))
        self.assertEqual(len(ANSWERS), len(UNIVERSE))

    def test_same_seed_same_stream_and_digest(self):
        self.assertEqual(querymix.stream(7, UNIVERSE), querymix.stream(7, UNIVERSE))
        self.assertEqual(expected_digest(7), expected_digest(7))

    def test_other_seed_other_stream(self):
        streams = {tuple(querymix.stream(seed, UNIVERSE)) for seed in range(10)}
        self.assertEqual(len(streams), 10)
        self.assertEqual(len({expected_digest(seed) for seed in range(10)}), 10)

    def test_stream_mix(self):
        """Every seed gets the documented mix: 14/24 bwb, 6/24 dim, 4/24 h0 per type."""
        n_types = len(querymix.pool_types())
        for seed in range(5):
            picks = querymix.stream(seed, UNIVERSE)
            self.assertEqual(len(picks), 24 * n_types)
            by_class = {}
            for i in picks:
                by_class.setdefault(querymix.query_class(UNIVERSE[i]), []).append(i)
            self.assertEqual({c: len(v) for c, v in by_class.items()},
                             {c: slots * n_types for c, (_, slots) in querymix.CLASSES.items()})
            shapes = {c: [ANSWERS[i].split(":")[1] for i in v] for c, v in by_class.items()}
            self.assertTrue(all(s == "s" for s in shapes["bwb-wall"]))
            for i in by_class["bwb-antidominant"]:
                q = UNIVERSE[i]
                self.assertEqual(int(ANSWERS[i].split(":")[1]), querymix.n_positive(q[2], q[3]))
            bwb = shapes["bwb-wall"] + shapes["bwb-antidominant"] + shapes["bwb-random"]
            singular = sum(s == "s" for s in bwb) / len(bwb)
            self.assertTrue(0.55 <= singular <= 0.80, singular)
            random_regular = [i for i in by_class["bwb-random"] if ANSWERS[i].split(":")[1] != "s"]
            self.assertTrue(random_regular)
            for i in random_regular:
                q = UNIVERSE[i]
                self.assertLessEqual(int(ANSWERS[i].split(":")[1]), querymix.n_positive(q[2], q[3]))

    def test_supported_nodes_match_engine(self):
        from flagcoh import konno_pairs

        engine = {(pd.lie_type.family.value, pd.lie_type.rank, pd.node) for pd in konno_pairs(8)}
        ours = {(f, l, r) for f, l in querymix.small_types() for r in querymix.supported_nodes(f, l)}
        self.assertEqual(ours, engine)


class ClosedFormTest(unittest.TestCase):
    def test_engine_meets_closed_forms(self):
        from flagcoh import bwb, parabolic, rootsys

        from driver import closed_form_checks

        attempted, errors = closed_form_checks(rootsys, bwb, parabolic)
        self.assertGreater(attempted, 100)
        self.assertEqual(errors, [])


class TracingTest(unittest.TestCase):
    def test_spans_self_time_and_counters(self):
        from flagcoh import parabolic, rootsys

        original = parabolic.h0_twisted_cotangent
        tracer = Tracer()
        tracer.install()
        try:
            pd = parabolic.parabolic_data(rootsys.root_system("F", 4), 4)
            total, _ = parabolic.h0_twisted_cotangent(pd, 2)
        finally:
            tracer.uninstall()
        self.assertIs(parabolic.h0_twisted_cotangent, original)
        self.assertEqual(total, 325)
        spans = tracer.spans()
        names = {s["name"] for s in spans}
        self.assertLessEqual({"parabolic.h0_twisted_cotangent", "parabolic.konno_lowest_weights",
                              "bwb.bwb_cohomology", "bwb.to_dominant", "bwb.weyl_dim"}, names)
        roots = [s for s in spans if s["parent"] < 0]
        self.assertEqual(sum(s["self_ns"] for s in spans), sum(s["end_ns"] - s["start_ns"] for s in roots))
        h0 = next(s for s in spans if s["name"] == "parabolic.h0_twisted_cotangent")
        self.assertEqual((h0["lie_type"], h0["case"]), ("F4", "F4/4"))
        m = summarize(spans)
        self.assertEqual(m["parabolic.konno_lowest_weights.calls_per_pair"], 1.0)
        self.assertEqual(m["bwb.to_dominant.calls"], 2)
        self.assertEqual(m["bwb.to_dominant.reflections"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class CorrectnessGateTest(unittest.TestCase):
    def test_wrong_report_digest_is_an_error(self):
        pins = {"sweeps": {"verify-lungo": "0" * 64}}
        report = json.dumps({"summary": {"failed": 0}}).encode()
        self.assertEqual(len(run.check_sweep("verify-lungo", 0, report, pins)), 1)
        self.assertEqual(len(run.check_sweep("verify-lungo", 1, b"not json", pins)), 3)

    def test_wrong_pin_gives_error_rate_not_crash(self):
        pins = json.loads(json.dumps(PINS))
        pins["sweeps"]["verify-lungo"] = "0" * 64
        with contextlib.redirect_stdout(io.StringIO()) as out:
            result = run.run("verify-lungo", seed=0, seconds=0.1, trace=0, pins=pins)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertIn("error_rate", out.getvalue())
        self.assertEqual(json.loads(out.getvalue().splitlines()[-1]), result)


if __name__ == "__main__":
    unittest.main()
