"""Tests of the benchmark's own arithmetic. No build needed:

    python3 perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def op(key, digest="d1", status="ok"):
    return {"key": key, "digest": digest, "status": status}


def span(id_, t0, t1, parent=0):
    return {"id": id_, "parent": parent, "t0": t0, "t1": t1}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 beyond it; 99 leave 9.9.
        self.assertEqual(metrics.tail_percentile_for(100), 90.0)
        self.assertEqual(metrics.tail_percentile_for(99), 75.0)
        self.assertEqual(metrics.tail_percentile_for(40), 75.0)
        self.assertEqual(metrics.tail_percentile_for(39), 50.0)
        self.assertEqual(metrics.tail_percentile_for(1000), 99.0)
        self.assertIsNone(metrics.tail_percentile_for(19))

    def test_selected_value_has_ten_beyond(self):
        samples = list(range(1, 121))  # 120 samples
        p = metrics.tail_percentile_for(len(samples))
        value = metrics.percentile(samples, p)
        self.assertEqual(p, 90.0)
        self.assertEqual(value, 108)
        self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)

    def test_median(self):
        self.assertEqual(metrics.percentile([5, 1, 3], 50.0), 3)


class SelfTime(unittest.TestCase):
    def test_duration_minus_children(self):
        spans = [span(1, 0.0, 10.0),
                 span(2, 1.0, 3.0, parent=1),
                 span(3, 2.0, 5.0, parent=1),   # overlaps span 2
                 span(4, 8.0, 12.0, parent=1),  # runs past the parent
                 span(5, 8.5, 9.0, parent=4)]
        selfs = metrics.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the parent: 6 s.
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[4], 3.5)
        self.assertAlmostEqual(selfs[5], 0.5)


class ErrorRate(unittest.TestCase):
    def test_refused_ops_stay_in_the_denominator(self):
        expected = {"a": "d1"}
        ops = [op("a")] * 6 + [op("a", status="refused")] * 2 + \
              [op("a", status="timeout"), op("a", status="failed")]
        c = metrics.error_counts(ops, expected)
        self.assertEqual(c["attempted"], 10)
        self.assertEqual(c["refused"], 2)
        self.assertEqual(c["errors"], 4)
        self.assertAlmostEqual(c["error_rate"], 0.4)

    def test_clean_run_has_no_errors(self):
        c = metrics.error_counts([op("a"), op("b", "d2")],
                                 {"a": "d1", "b": "d2"})
        self.assertEqual(c["errors"], 0)
        self.assertEqual(c["error_rate"], 0.0)

    def test_corrupted_expected_digest_is_an_error(self):
        ops = [op("a"), op("b", "d2")]
        corrupted = {"a": "d1", "b": "d2-corrupted"}
        c = metrics.error_counts(ops, corrupted)
        self.assertEqual(c["wrong"], 1)
        self.assertGreater(c["error_rate"], 0.0)

    def test_op_without_expected_digest_is_an_error(self):
        c = metrics.error_counts([op("unknown")], {})
        self.assertEqual(c["wrong"], 1)


class ExpectedDigests(unittest.TestCase):
    def test_corrupting_the_shipped_file_is_detected(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected_digests.txt")
        expected = metrics.load_expected(path)
        key, good = sorted(expected.items())[0]
        ops = [op(key, good)]
        self.assertEqual(metrics.error_counts(ops, expected)["errors"], 0)
        expected[key] = "0" * 16 if good != "0" * 16 else "1" * 16
        self.assertGreater(metrics.error_counts(ops, expected)["error_rate"],
                           0.0)


if __name__ == "__main__":
    unittest.main()
