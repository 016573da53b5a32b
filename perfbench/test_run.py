"""Tests for the benchmark runner (perfbench/run.py) and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test runs the built suite with tiny training and a few windows
per workload; it is skipped when perfbench_suite has not been built (run
the benchmark once, or `python3 perfbench/run.py --workload loop8-static
--seed 1 --seconds 1 --trace 0 --smoke`).
"""
import re
import statistics
import tempfile
import unittest
from pathlib import Path

import run


class StatisticsTest(unittest.TestCase):
    def test_summary_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        s = run.summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (4.0, q1, q3, 7))

    def test_single_value(self):
        self.assertEqual(run.summarize([2.5]), {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / 100.0)


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_higher_is_better(self):
        faster = [v * 1.2 for v in self.parent]
        slower = [v * 0.8 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, faster, "higher", 0.1), "improved")
        self.assertEqual(run.verdict(self.parent, slower, "higher", 0.1), "regressed")
        self.assertEqual(run.verdict(self.parent, list(self.parent), "higher", 0.1), "unchanged")

    def test_lower_is_better(self):
        faster = [v * 0.8 for v in self.parent]
        slower = [v * 1.2 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, faster, "lower", 0.1), "improved")
        self.assertEqual(run.verdict(self.parent, slower, "lower", 0.1), "regressed")

    def test_worse_within_bound_is_unchanged(self):
        slightly = [v * 0.97 for v in self.parent]
        self.assertEqual(run.verdict(self.parent, slightly, "higher", 0.05), "unchanged")

    def test_noisy_parent_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(run.verdict(noisy, change, "higher", 0.1), "unresolved")

    def test_noisy_parent_beaten_by_every_run_is_improved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [200.0 + i for i in range(10)]
        self.assertEqual(run.verdict(noisy, change, "higher", 0.1), "improved")


class SpecTest(unittest.TestCase):
    spec = run.load_spec()

    def test_committed_spec_is_valid(self):
        self.assertEqual(run.check_spec(self.spec), [])

    def test_limits(self):
        self.assertLessEqual(len(self.spec["end_to_end"]), 16)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertTrue(all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names))

    def test_rejects_bad_documents(self):
        bad = dict(self.spec, end_to_end=[dict(m, bound=0.5) for m in self.spec["end_to_end"]])
        self.assertTrue(run.check_spec(bad))
        bad = dict(self.spec, workloads=self.spec["workloads"][:1])
        self.assertTrue(run.check_spec(bad))
        bad = dict(self.spec, per_layer=self.spec["per_layer"] + [{"name": "x y", "unit": "s",
                                                                   "better": "lower"}])
        self.assertTrue(run.check_spec(bad))

    def test_every_layer_metric_is_mapped(self):
        """BENCHMARK.md maps each per-layer metric to the end-to-end metric
        and the workloads it should move, or marks it "none" (a
        deterministic outcome or the trace's own health)."""
        doc = (run.BENCH_DIR / "BENCHMARK.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \|[^|]*\| (.+) \|$", doc, re.M)
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}

        def moves_of(name):
            for key, moves in rows:
                pattern = re.escape(key).replace(re.escape("<i>_<kind>"), r"[0-9]+_[a-z0-9]+")
                if re.fullmatch(pattern, name):
                    return moves
            return None

        for m in self.spec["per_layer"]:
            moves = moves_of(m["name"])
            self.assertIsNotNone(moves, f"{m['name']} missing from the layer map")
            if moves.startswith("none"):
                continue
            named = set(re.findall(r"`([^`]+)`", moves))
            self.assertTrue(named & e2e, f"{m['name']}: names no end-to-end metric")
            self.assertTrue(named & workloads or "all loops" in moves,
                            f"{m['name']}: names no workload")


class SmokeTest(unittest.TestCase):
    def test_every_workload(self):
        suite = run.build_dir() / "perfbench_suite"
        if not suite.exists():
            self.skipTest(f"{suite} is not built")
        suite, models = run.ensure_built(smoke=True)
        spec = run.load_spec()
        with tempfile.TemporaryDirectory() as out:
            for w in spec["workloads"]:
                for trace in (0, 1):
                    result, stamp, _ = run.run_one(suite, models, spec, w["name"], 1, 0.5, trace,
                                                   Path(out), smoke=True)
                    self.assertTrue(result["correct"], (w["name"], trace))
                    self.assertEqual(result["failed"], 0, (w["name"], trace))
                    self.assertEqual(stamp["mode"], "smoke")
                self.assertTrue((Path(out) / f"{w['name']}-seed1.trace.json").exists())


if __name__ == "__main__":
    unittest.main()
