"""Unit tests for the benchmark's statistics.

Run from the repository root: python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_upper_median_below_twenty_samples(self):
        self.assertEqual(stats.latency_tail([7.0]), (7.0, 100.0, 1))
        value, percentile, n = stats.latency_tail([3.0, 9.0, 4.0])
        self.assertEqual((value, n), (4.0, 3))
        self.assertAlmostEqual(percentile, 200.0 / 3)
        # Eight and nine requests, as a batch workload fits in a run.
        values = [5.0, 1.0, 8.0, 3.0, 7.0, 2.0, 4.0, 6.0]
        self.assertEqual(stats.latency_tail(values), (5.0, 62.5, 8))
        self.assertEqual(stats.latency_tail(values + [9.0])[0], 5.0)
        value, percentile, n = stats.latency_tail(list(range(19)))
        self.assertEqual((value, n), (9, 19))
        self.assertEqual(sum(v > value for v in range(19)), 9)

    def test_twenty_samples_leave_ten_beyond(self):
        values = list(range(1, 21))
        value, percentile, n = stats.latency_tail(values)
        self.assertEqual((value, percentile, n), (10, 50.0, 20))
        self.assertEqual(sum(v > value for v in values), stats.TAIL_BEYOND)

    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(100, 0, -1))  # unsorted input
        value, percentile, n = stats.latency_tail(values)
        self.assertEqual((value, percentile, n), (90, 90.0, 100))
        # One rank higher would leave only nine samples beyond.
        self.assertEqual(sum(v > value + 1 for v in values), 9)

    def test_forty_requests_give_p75(self):
        value, percentile, _ = stats.latency_tail([float(i) for i in range(40)])
        self.assertEqual((value, percentile), (29.0, 75.0))


class ThroughputTest(unittest.TestCase):
    def test_counts_only_correct_circuits_over_whole_window(self):
        # 5 requests of 16 circuits, 3 decoded wrong, in a 25 s window.
        self.assertAlmostEqual(stats.circuits_per_s(5 * 16 - 3, 25.0), 3.08)

    def test_rejects_empty_window(self):
        with self.assertRaises(ValueError):
            stats.circuits_per_s(10, 0.0)


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        # Quartiles of 1..5 (exclusive method) are 1.5 and 4.5.
        self.assertAlmostEqual(stats.spread([5.0, 1.0, 4.0, 2.0, 3.0]), 1.0)
        # One outlier at each end does not move the quartiles of ten values.
        values = [9.0] + [10.0] * 8 + [11.0]
        self.assertEqual(stats.spread(values), 0.0)


if __name__ == "__main__":
    unittest.main()
