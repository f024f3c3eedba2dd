#!/usr/bin/env python3
"""Unit tests of the benchmark's Python helpers: the repeat driver's
quartile/spread summary and run.py's result-line builder.

    python3 e2ebench/test_repeat.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import repeat  # noqa: E402
import run  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [12.0, 10.0, 11.0, 15.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5]
        s = repeat.summarize(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["n"], 10)
        self.assertEqual(s["median"], q2)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertEqual((s["min"], s["max"]), (9.0, 15.0))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / q2)

    def test_hand_computed_quartiles(self):
        # Exclusive method: positions (n + 1) / 4 and 3 (n + 1) / 4.
        s = repeat.summarize([1, 2, 3, 4, 5, 6, 7])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.0, 4.0, 6.0))
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_constant_and_single_values(self):
        self.assertEqual(repeat.summarize([5.0, 5.0, 5.0])["spread"], 0.0)
        single = repeat.summarize([3.0])
        self.assertEqual((single["q1"], single["q3"]), (3.0, 3.0))

    def test_verdict_uses_a_third_of_the_bound(self):
        self.assertEqual(repeat.verdict(0.03, 0.1, "img_s"), "steady")
        self.assertEqual(repeat.verdict(0.05, 0.1, "img_s"), "WITHIN BOUND")
        self.assertEqual(repeat.verdict(0.2, 0.1, "img_s"), "TOO NOISY")
        self.assertEqual(repeat.verdict(0.2, None, "trace.images"), "")


class ResultLineTest(unittest.TestCase):
    SPEC = {
        "end_to_end": [{"name": "img_s", "unit": "1/s"}],
        "per_layer": [{"name": "stages.conv_ms", "unit": "ms"}],
    }

    def report(self, mismatches=0, failed=0):
        return {
            "attempted": 10,
            "failed": failed,
            "gates": [{"name": "g", "checked": 4, "mismatches": mismatches}],
            "metrics": {
                "img_s": {"value": 41.5, "unit": "1/s", "samples": 8},
                "stages.conv_ms": {"value": 20.25, "unit": "ms",
                                   "samples": 64},
            },
        }

    def test_selects_the_mode_metrics(self):
        line = run.result_line(self.report(), self.SPEC, trace=0)
        self.assertEqual(line, {"correct": True, "attempted": 10,
                                "failed": 0,
                                "metrics": {"img_s": {"value": 41.5,
                                                      "unit": "1/s"}}})
        traced = run.result_line(self.report(), self.SPEC, trace=1)
        self.assertEqual(list(traced["metrics"]), ["stages.conv_ms"])

    def test_a_gate_mismatch_is_not_correct(self):
        line = run.result_line(self.report(mismatches=1, failed=1),
                               self.SPEC, trace=0)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_missing_metric_or_unit_mismatch_raises(self):
        report = self.report()
        del report["metrics"]["img_s"]
        with self.assertRaises(KeyError):
            run.result_line(report, self.SPEC, trace=0)
        report = self.report()
        report["metrics"]["img_s"]["unit"] = "ms"
        with self.assertRaises(KeyError):
            run.result_line(report, self.SPEC, trace=0)


if __name__ == "__main__":
    unittest.main()
