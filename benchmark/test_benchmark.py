"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s benchmark
"""

import json
import os
import random
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import script  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(100_000), 99.99)

    def test_tail_reports_value_and_count(self):
        values = list(range(1, 1001))
        p, value, count = stats.tail(values)
        self.assertEqual((p, count), (99.0, 1000))
        self.assertAlmostEqual(value, stats.percentile(values, 99))
        beyond = sum(v > value for v in values)
        self.assertGreaterEqual(beyond, stats.MIN_BEYOND)
        self.assertEqual(stats.tail([1.0] * 5), (None, None, 5))

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(stats.percentile(list(range(11)), 90), 9.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        rng = random.Random(3)
        values = [rng.uniform(1, 2) for _ in range(10)]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_relative_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class Generator(unittest.TestCase):
    def test_same_seed_same_script(self):
        a = script.make_script(5, 20, "ck")
        b = script.make_script(5, 20, "ck")
        self.assertEqual(a, b)
        self.assertNotEqual(a, script.make_script(6, 20, "ck"))

    def test_request_count_and_due_times(self):
        for seconds, ticks in ((30, script.TICKS), (run.PROBE_SESSION_SECONDS, 60)):
            s = script.make_script(1, seconds, "ck", ticks=ticks)
            self.assertEqual(len(s), script.RATE * seconds)
            due = [d for d, _ in s]
            self.assertEqual(due, sorted(due))
            self.assertTrue(0 <= due[0] and due[-1] < seconds * 1_000_000)

    def test_churn_and_caps_follow_the_window(self):
        lines = [line for _, line in script.make_script(4, 30, "ck")]
        window = script.TICKS * script.TICK_US
        churn = [line for line in lines if "down:" in line]
        self.assertEqual(len(churn), 1)
        self.assertIn(f"@{window // 6}us;", churn[0])
        self.assertTrue(churn[0].endswith(f"@{window // 2}us"))
        caps = [line.split()[1] for line in lines if "cap:" in line]
        expected = [f"cap:{cap}@{window // 2 + j * script.CAP_SPACING_US}us"
                    for j, cap in enumerate(script.REPLAN_CAPS)]
        self.assertEqual(sorted(caps), sorted(expected))

    def test_shape(self):
        s = script.make_script(2, 20, "ck", ticks=script.TICKS)
        lines = [line for _, line in s]
        self.assertEqual(lines[-2:], ["CHECKPOINT ck", "STATUS"])
        self.assertEqual(sum(line.startswith("ADVANCE") for line in lines), script.TICKS)
        verbs = {script.verb(line) for line in lines}
        self.assertEqual(verbs, {"INJECT", "ADVANCE", "STATUS", "CHECKPOINT"})
        injects = " ".join(line for line in lines if line.startswith("INJECT"))
        for kind in ("arrive:", "cap:", "down:", "up:"):
            self.assertIn(kind, injects)


class ScriptValidity(unittest.TestCase):
    def test_every_inject_is_in_the_future_and_inside_the_window(self):
        for seed in range(25):
            for seconds, ticks in ((30, script.TICKS), (20, script.TICKS), (3, 60)):
                s = script.make_script(seed, seconds, "ck", ticks=ticks)
                self.assertEqual(script.violations(s), [], f"seed {seed}")

    def test_violations_are_caught(self):
        past = [(0, "ADVANCE 30"), (1, "INJECT arrive:3@60000000us")]
        self.assertEqual(len(script.violations(past)), 1)
        beyond = [(0, f"INJECT cap:8@{script.HORIZON_US + 1}us")]
        self.assertEqual(len(script.violations(beyond)), 1)
        too_far = [(i, "ADVANCE 30") for i in range(351)]
        self.assertEqual(len(script.violations(too_far)), 1)


class Definition(unittest.TestCase):
    def test_reference_covers_every_workload(self):
        reference = run.load_reference()
        self.assertEqual(set(reference["digests"]), set(run.WORKLOADS))
        self.assertNotEqual(reference["default_seed"], reference["held_out_seed"])

    def test_every_per_layer_metric_has_a_unit(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path, encoding="utf-8") as f:
            benchmark = json.load(f)
        names = {m["name"] for m in benchmark["per_layer"]}
        self.assertEqual(names, set(run.LAYER_UNITS))
        for m in benchmark["per_layer"]:
            self.assertEqual(m["unit"], run.LAYER_UNITS[m["name"]], m["name"])


if __name__ == "__main__":
    unittest.main()
