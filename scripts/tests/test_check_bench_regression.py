#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_regression.py.

The critical property: a baseline key that does not resolve in the
measured artifact is a loud gate FAILURE, never a silent skip — a typo
on either side must not quietly disable a regression gate.

Run directly or via the `bench_gate_selftest` ctest entry.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check_bench_regression as gate  # noqa: E402

BASELINE = {
    "threshold_ratio": 0.75,
    "benches": {
        "BENCH_x.json": {
            "wps.32": 100.0,
            "blind_spots": {"max": 7},
        }
    },
}


def run(artifact):
    return gate.check(BASELINE, {"BENCH_x.json": artifact})


class ResolveTests(unittest.TestCase):
    def test_resolves_nested_path(self):
        value, err = gate.resolve({"a": {"b": 3.5}}, "a.b")
        self.assertIsNone(err)
        self.assertEqual(value, 3.5)

    def test_missing_key_names_break_point_and_available_keys(self):
        value, err = gate.resolve({"a": {"c": 1}}, "a.b")
        self.assertIsNone(value)
        self.assertIn("key 'b' not found under 'a'", err)
        self.assertIn("available: c", err)

    def test_descending_into_scalar_is_an_error(self):
        value, err = gate.resolve({"a": 5}, "a.b")
        self.assertIsNone(value)
        self.assertIn("'a' is not an object", err)


class CheckTests(unittest.TestCase):
    def test_passing_metrics(self):
        rows, failures = run({"wps": {"32": 90.0}, "blind_spots": 7})
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 2)
        self.assertTrue(all(ok for *_, ok in rows))

    def test_floor_regression_fails(self):
        rows, failures = run({"wps": {"32": 74.9}, "blind_spots": 0})
        self.assertEqual(len(failures), 1)
        self.assertIn("74.9 < floor 75.0", failures[0])

    def test_hard_ceiling_has_no_derating(self):
        _rows, failures = run({"wps": {"32": 100.0}, "blind_spots": 8})
        self.assertEqual(len(failures), 1)
        self.assertIn("8 > ceiling 7", failures[0])

    def test_missing_baseline_key_is_a_failure_not_a_skip(self):
        # The artifact renamed "wps" -> "windows_per_sec": the stale
        # baseline key must FAIL the gate with a diagnosable message.
        rows, failures = run({"windows_per_sec": {"32": 500.0}, "blind_spots": 0})
        self.assertEqual(len(failures), 1)
        self.assertIn("BENCH_x.json:wps.32", failures[0])
        self.assertIn("key 'wps' not found", failures[0])
        self.assertIn("available: blind_spots, windows_per_sec", failures[0])
        # The resolvable metric is still reported alongside the failure.
        self.assertEqual(len(rows), 1)

    def test_missing_artifact_is_a_failure(self):
        _rows, failures = gate.check(BASELINE, {"BENCH_x.json": None})
        self.assertEqual(len(failures), 1)
        self.assertIn("artifact missing", failures[0])

    def test_non_numeric_value_is_a_failure(self):
        _rows, failures = run({"wps": {"32": "fast"}, "blind_spots": 0})
        self.assertEqual(len(failures), 1)
        self.assertIn("expected a number", failures[0])

    def test_bool_value_is_rejected(self):
        # bool subclasses int; True must not pass as the measurement 1.0.
        _rows, failures = run({"wps": {"32": True}, "blind_spots": 0})
        self.assertEqual(len(failures), 1)
        self.assertIn("resolved to bool", failures[0])

    def test_malformed_reference_dict_is_a_config_failure(self):
        baseline = {"threshold_ratio": 0.75,
                    "benches": {"BENCH_x.json": {"wps.32": {"min": 10}}}}
        _rows, failures = gate.check(baseline, {"BENCH_x.json": {"wps": {"32": 5}}})
        self.assertEqual(len(failures), 1)
        self.assertIn("no 'max' key", failures[0])


class ModeTests(unittest.TestCase):
    QUICK = {**BASELINE, "mode": "quick"}

    def test_matching_mode_is_compared(self):
        rows, failures = gate.check(
            self.QUICK, {"BENCH_x.json": {"quick": True, "wps": {"32": 90.0}, "blind_spots": 7}})
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 2)

    def test_mismatched_mode_fails_and_is_not_compared(self):
        # A full-mode artifact left in the workspace must not be floored
        # against quick references, even when its numbers would pass.
        rows, failures = gate.check(
            self.QUICK, {"BENCH_x.json": {"quick": False, "wps": {"32": 90.0}, "blind_spots": 7}})
        self.assertEqual(len(failures), 1)
        self.assertIn("BENCH_x.json", failures[0])
        self.assertIn("artifact mode is full, baseline mode is quick", failures[0])
        self.assertEqual(rows, [])

    def test_missing_quick_flag_fails(self):
        _rows, failures = gate.check(
            self.QUICK, {"BENCH_x.json": {"wps": {"32": 90.0}, "blind_spots": 7}})
        self.assertEqual(len(failures), 1)
        self.assertIn("BENCH_x.json", failures[0])
        self.assertIn("no boolean 'quick' flag", failures[0])
        self.assertIn("baseline mode is quick", failures[0])

    def test_non_boolean_quick_flag_fails(self):
        _rows, failures = gate.check(
            {**BASELINE, "mode": "full"},
            {"BENCH_x.json": {"quick": 0, "wps": {"32": 90.0}, "blind_spots": 7}})
        self.assertEqual(len(failures), 1)
        self.assertIn("no boolean 'quick' flag", failures[0])

    def test_unknown_baseline_mode_fails(self):
        _rows, failures = gate.check(
            {**BASELINE, "mode": "fast"},
            {"BENCH_x.json": {"quick": True, "wps": {"32": 90.0}, "blind_spots": 7}})
        self.assertTrue(any("baseline mode is 'fast'" in m for m in failures))

    def test_mismatched_mode_still_reports_unresolved_keys(self):
        _rows, failures = gate.check(
            self.QUICK, {"BENCH_x.json": {"quick": False, "blind_spots": 7}})
        self.assertEqual(len(failures), 2)
        self.assertIn("key 'wps' not found", failures[1])


class RepoBaselineTests(unittest.TestCase):
    def test_committed_baselines_declare_their_mode(self):
        # CI gates quick artifacts against BENCH_baseline.json and the
        # nightly gates full ones against BENCH_nightly_baseline.json.
        import json
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        for name, mode in (("BENCH_baseline.json", "quick"),
                           ("BENCH_nightly_baseline.json", "full")):
            with open(os.path.join(root, name)) as f:
                self.assertEqual(json.load(f).get("mode"), mode, name)

    def test_committed_baseline_paths_resolve_in_committed_artifacts(self):
        # Every key in BENCH_baseline.json (quick, per-PR) and
        # BENCH_nightly_baseline.json (full, nightly) must resolve in the
        # committed artifacts — catches a baseline/bench key drift at
        # ctest time, before CI ever runs the benches. The committed
        # artifacts mix modes, so only resolution failures count here.
        import json
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        for name in ("BENCH_baseline.json", "BENCH_nightly_baseline.json"):
            with self.subTest(baseline=name):
                with open(os.path.join(root, name)) as f:
                    baseline = json.load(f)
                artifacts = {}
                for bench_file in baseline["benches"]:
                    with open(os.path.join(root, bench_file)) as f:
                        artifacts[bench_file] = json.load(f)
                _rows, failures = gate.check(baseline, artifacts)
                resolution_failures = [m for m in failures if "not found" in m
                                       or "expected a number" in m]
                self.assertEqual(resolution_failures, [],
                                 f"{name} keys no longer resolve in committed artifacts")

    def test_committed_pass_flags_are_true(self):
        # A committed artifact whose own gate flag reads false contradicts
        # any claim made about it: every boolean *_pass, *_identical or
        # deterministic* key in a committed BENCH_*.json must be true.
        import fnmatch
        import glob
        import json
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        patterns = ("*_pass", "*_identical", "deterministic*")

        def false_flags(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    here = f"{path}.{key}"
                    if (isinstance(value, bool) and not value
                            and any(fnmatch.fnmatchcase(key, p) for p in patterns)):
                        yield here
                    yield from false_flags(value, here)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from false_flags(value, f"{path}[{i}]")

        artifacts = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        self.assertTrue(artifacts, "no committed BENCH_*.json found")
        failing = []
        for artifact in artifacts:
            with open(artifact) as f:
                failing.extend(false_flags(json.load(f), os.path.basename(artifact)))
        self.assertEqual(failing, [], "committed artifacts carry false gate flags")


if __name__ == "__main__":
    unittest.main()
