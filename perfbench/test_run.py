#!/usr/bin/env python3
"""Tests of the benchmark's own rules: the percentile rule, the counter
drift detector and pins, the metric tables, the result line of a failed
run, and the correctness gate catching a real protocol bug.

    python3 perfbench/test_run.py

The gate test builds the benchmark into .bench_build/ and runs a small
churn instance twice, with and without BneckConfig::fault_single_kick.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        value, beyond = run.percentile(samples, 90)
        self.assertEqual(value, 90.0)
        self.assertEqual(beyond, 10)
        with self.assertRaisesRegex(ValueError, "99 samples has 9 beyond"):
            run.percentile(samples[:99], 90)

    def test_p50_and_order(self):
        value, beyond = run.percentile([5.0, 1.0, 3.0] * 10, 50)
        self.assertEqual(value, 3.0)
        self.assertEqual(beyond, 15)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)
        with self.assertRaises(ValueError):
            run.converge_percentiles([])

    def test_median_over_passes(self):
        fast = [float(i) for i in range(1, 101)]
        slow = [10 * v for v in fast]
        p50, p90, samples, beyond = run.converge_percentiles(
            [fast, slow, fast])
        self.assertEqual((p50, p90, samples, beyond), (50.0, 90.0, 300, 10))
        with self.assertRaises(ValueError):
            run.converge_percentiles([fast, fast[:99]])


class StealCorrection(unittest.TestCase):
    def test_stolen_time_leaves_the_wall(self):
        self.assertAlmostEqual(
            run.unstolen_wall_s({"wall_s": 4.0, "host_steal_s": 1.0}), 3.0)
        self.assertEqual(
            run.unstolen_wall_s({"wall_s": 4.0, "host_steal_s": 0.0}), 4.0)

    def test_correction_is_capped(self):
        self.assertAlmostEqual(
            run.unstolen_wall_s({"wall_s": 4.0, "host_steal_s": 9.0}), 2.0)


class DriftDetector(unittest.TestCase):
    def test_identical_passes_pass(self):
        c = {"sim.events": 10.0, "core.probe_cycles": 3.0}
        self.assertEqual(run.find_drift([c, dict(c), dict(c)]), [])

    def test_changed_counter_is_flagged(self):
        c = {"sim.events": 10.0, "core.probe_cycles": 3.0}
        changed = dict(c, **{"core.probe_cycles": 4.0})
        errors = run.find_drift([c, dict(c), changed])
        self.assertEqual(len(errors), 1)
        self.assertIn("pass 2: core.probe_cycles = 4.0, expected 3.0",
                      errors[0])

    def test_missing_counter_is_flagged(self):
        c = {"sim.events": 10.0, "sharded.windows": 7.0}
        errors = run.find_drift([c, {"sim.events": 10.0}])
        self.assertEqual(errors, ["pass 1: counter sharded.windows missing"])

    def test_passes_compare_within_their_instance(self):
        a, b = {"sim.events": 10.0}, {"sim.events": 12.0}
        report = {"passes": [{"instance": i} for i in (0, 1, 0, 1)],
                  "counters": [a, b, dict(a), {"sim.events": 13.0}]}
        by = run.instance_counters(report)
        self.assertEqual(run.find_drift(by[0]), [])
        self.assertEqual(run.find_drift(by[1], label="instance 1 pass"),
                         ["instance 1 pass 1: sim.events = 13.0, "
                          "expected 12.0"])

    def test_earlier_run_reference(self):
        errors = run.find_drift([{"a": 1.0}], reference={"a": 2.0},
                                label="run")
        self.assertEqual(errors, ["run 0: a = 1.0, expected 2.0"])

    def test_pins(self):
        pins = {"churn": {"size=1,seed=1": {"phase1.packets": 1724674}}}
        ok = {"phase1.packets": 1724674.0}
        self.assertEqual(run.check_pins("churn", 1, 1.0, ok, pins), [])
        self.assertEqual(run.check_pins("churn", 2, 1.0, ok, pins), [])
        bad = {"phase1.packets": 1724675.0}
        self.assertEqual(len(run.check_pins("churn", 1, 1.0, bad, pins)), 1)


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))


class FailedRun(unittest.TestCase):
    def test_failure_prints_a_result_line(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.fail(3)
        self.assertEqual(code, 3)
        self.assertEqual(json.loads(out.getvalue().splitlines()[-1]),
                         {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}})


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def churn(self, *extra):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "churn", "--seed", "3", "--seconds", "0",
             "--size", "0.02"] + list(extra),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=300)
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_clean_protocol_passes(self):
        code, result = self.churn()
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_single_kick_fault_fails_the_gate(self):
        code, result = self.churn("--fault-single-kick")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
