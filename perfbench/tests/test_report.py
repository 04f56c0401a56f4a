"""Tests of the benchmark's metric printer and contract checks.

Run with `python3 perfbench/run.py --self-test` (no build needed).
"""

import copy
import json
import os
import statistics
import unittest

import report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def raw_line(spec, **overrides):
    """A raw perfbench line with a positive value for every metric."""
    raw = {
        "correct": True, "attempted": 10, "failed": 0,
        "end_to_end": {m["name"]: 1.5 for m in spec["end_to_end"]},
        "per_layer": {m["name"]: 0.0 for m in spec["per_layer"]},
        "info": {},
    }
    raw.update(overrides)
    return raw


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = report.load_spec(os.path.join(ROOT, "BENCHMARK.json"))

    def test_checked_in_spec_passes(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["parallel_night", "archive_cones"])
        self.assertEqual(self.spec["command"][1:], ["perfbench/run.py"])
        for path in self.spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))

    def test_bound_above_limit_is_refused(self):
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"][1]["bound"] = 0.3
        with self.assertRaises(report.ContractError):
            report.check_spec(spec)

    def test_setup_needs_largest_bound(self):
        spec = copy.deepcopy(self.spec)
        for metric in spec["end_to_end"]:
            if metric["name"] == "setup_s":
                metric["bound"] = 0.01
        with self.assertRaises(report.ContractError):
            report.check_spec(spec)

    def test_repeated_or_bad_names_are_refused(self):
        spec = copy.deepcopy(self.spec)
        spec["per_layer"].append(dict(spec["per_layer"][0]))
        with self.assertRaises(report.ContractError):
            report.check_spec(spec)
        spec = copy.deepcopy(self.spec)
        spec["per_layer"][0]["name"] = ".starts-with-a-dot"
        with self.assertRaises(report.ContractError):
            report.check_spec(spec)


class ResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = report.load_spec(os.path.join(ROOT, "BENCHMARK.json"))

    def test_untraced_prints_exactly_the_end_to_end_metrics(self):
        out = report.result(raw_line(self.spec), self.spec, trace=False)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(list(out["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])
        for metric in self.spec["end_to_end"]:
            self.assertEqual(out["metrics"][metric["name"]],
                             {"value": 1.5, "unit": metric["unit"]})
        self.assertTrue(out["correct"])
        json.dumps(out)  # printable as one line

    def test_traced_prints_exactly_the_per_layer_metrics(self):
        out = report.result(raw_line(self.spec), self.spec, trace=True)
        self.assertEqual(list(out["metrics"]),
                         [m["name"] for m in self.spec["per_layer"]])

    def test_missing_metric_is_refused(self):
        raw = raw_line(self.spec)
        del raw["end_to_end"]["xmatch_s"]
        with self.assertRaises(report.ContractError):
            report.result(raw, self.spec, trace=False)

    def test_zero_end_to_end_metric_is_refused_on_a_correct_run(self):
        raw = raw_line(self.spec)
        raw["end_to_end"]["cone_p50_ms"] = 0.0
        with self.assertRaises(report.ContractError):
            report.result(raw, self.spec, trace=False)

    def test_failed_operations_make_the_run_incorrect(self):
        raw = raw_line(self.spec, failed=2)
        raw["end_to_end"]["cone_p50_ms"] = 0.0  # allowed once incorrect
        out = report.result(raw, self.spec, trace=False)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 2)

    def test_bad_tallies_are_refused(self):
        for overrides in ({"attempted": 0}, {"failed": 11},
                          {"failed": -1}, {"attempted": 2.5}):
            with self.assertRaises(report.ContractError):
                report.result(raw_line(self.spec, **overrides), self.spec,
                              trace=False)

    def test_non_finite_value_is_refused(self):
        raw = raw_line(self.spec)
        raw["per_layer"]["db.admit_us_p50"] = float("nan")
        with self.assertRaises(report.ContractError):
            report.result(raw, self.spec, trace=True)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
        med, q1, q3, share = report.spread(values)
        want = statistics.quantiles(values, n=4)
        self.assertEqual((q1, med, q3), tuple(want))
        self.assertAlmostEqual(share, (want[2] - want[0]) / want[1])

    def test_table_flags_noisy_metrics(self):
        spec = report.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
        steady = {m["name"]: 1.0 for m in spec["end_to_end"]}
        runs = []
        for i in range(10):
            run = dict(steady)
            run["cone_p90_ms"] = 1.0 + 0.1 * i  # far outside its bound
            runs.append(run)
        lines = report.steadiness_table(runs, spec)
        by_name = {line.split()[0]: line for line in lines[1:]}
        self.assertIn("TOO NOISY", by_name["cone_p90_ms"])
        self.assertIn("steady", by_name["ingest_rows_per_s"])
        self.assertIn("not gated", by_name["setup_s"])


if __name__ == "__main__":
    unittest.main()
