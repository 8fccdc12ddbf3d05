"""Tests for the benchmark's own statistics: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))  # 1..1000
        value, pct = stats.tail(values)
        self.assertEqual(value, 990)  # 10 samples (991..1000) lie above
        self.assertAlmostEqual(pct, 99.0)

    def test_small_sample_falls_back_to_highest_supported_percentile(self):
        values = list(range(1, 201))  # p99 would leave only 2 above
        value, pct = stats.tail(values)
        self.assertEqual(value, 190)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 95.0)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 3.0] * 10
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))


class RecallTest(unittest.TestCase):
    def test_recall_is_overlap_over_reference_size(self):
        self.assertEqual(stats.recall([1, 2, 3], [1, 2, 3, 4]), 0.75)
        self.assertEqual(stats.recall([], [7]), 0.0)
        self.assertEqual(stats.recall([9, 8], [8, 9]), 1.0)

    def test_mean_recall_skips_requests_without_reference_answers(self):
        rows_ = [{"ids": [1, 2], "ref": [1, 2]},
                 {"ids": [1], "ref": [1, 2]},
                 {"ids": [], "ref": []}]
        self.assertAlmostEqual(stats.mean_recall(rows_), 0.75)

    def test_mean_recall_without_any_reference_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.mean_recall([{"ids": [], "ref": []}])


class InBoundShareTest(unittest.TestCase):
    def test_bound_is_inclusive(self):
        self.assertEqual(stats.in_bound_share([1.0, 4.0, 4.5, 9.0], 4.0), 0.5)

    def test_no_latencies_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.in_bound_share([], 4.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_even_when_they_overlap(self):
        spans = [{"start": 0, "end": 100, "parent": -1},
                 {"start": 10, "end": 30, "parent": 0},
                 {"start": 20, "end": 40, "parent": 0},
                 {"start": 90, "end": 120, "parent": 0},
                 {"start": 12, "end": 14, "parent": 1}]
        # Children cover 10..40 and 90..100 of the root: 40 of 100 ns.
        self.assertEqual(stats.self_time_ns(spans, 0), 60)
        self.assertEqual(stats.self_time_ns(spans, 1), 18)


class SpreadTest(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q3 = 2.75, 8.25  # statistics.quantiles(values, n=4) exclusive
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 5.5)


if __name__ == "__main__":
    unittest.main()
