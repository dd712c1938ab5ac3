"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import random
import unittest

import stats


class Percentile(unittest.TestCase):
    def test_nearest_rank_matches_latency_reservoir_convention(self):
        # serving::LatencyReservoir: the ceil(p/100 * n)-th smallest value.
        rng = random.Random(7)
        for n in (1, 2, 3, 10, 99, 100, 101, 1000):
            values = [rng.randrange(1_000_000) for _ in range(n)]
            ordered = sorted(values)
            for p in (1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0):
                rank = math.ceil(p / 100.0 * n)
                self.assertEqual(stats.percentile(values, p), ordered[max(rank, 1) - 1])

    def test_known_values(self):
        v = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(v, 50), 5)
        self.assertEqual(stats.percentile(v, 90), 9)
        self.assertEqual(stats.percentile(v, 91), 10)
        self.assertEqual(stats.percentile(v, 100), 10)
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)

    def test_edges(self):
        self.assertEqual(stats.percentile([], 50), 0.0)
        self.assertEqual(stats.percentile([5, 3, 9], 0), 3)
        self.assertEqual(stats.percentile([5, 3, 9], -5), 3)


def span(start, end, parent=-1, name="s"):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, 10)]), [10])

    def test_disjoint_children(self):
        spans = [span(0, 100), span(10, 20, 0), span(50, 80, 0)]
        self.assertEqual(stats.self_times(spans), [60, 10, 30])

    def test_overlapping_children_count_once(self):
        # Two workers under one parent: [10, 60] and [40, 90] cover [10, 90].
        spans = [span(0, 100), span(10, 60, 0), span(40, 90, 0)]
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_nested_child_inside_child(self):
        spans = [span(0, 100), span(10, 60, 0), span(20, 30, 1), span(15, 40, 0)]
        # Parent children: [10, 60] and [15, 40] -> union [10, 60] = 50.
        self.assertEqual(stats.self_times(spans), [50, 40, 10, 25])

    def test_child_clipped_to_parent(self):
        spans = [span(0, 50), span(40, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_layer_table_aggregates_by_name(self):
        spans = [span(0, 1000, name="a"), span(0, 400, 0, name="b"), span(500, 700, 0, name="b")]
        t = stats.layer_table(spans)
        self.assertEqual(t["a"]["count"], 1)
        self.assertAlmostEqual(t["a"]["self_ms"], 0.4)
        self.assertEqual(t["b"]["count"], 2)
        self.assertAlmostEqual(t["b"]["total_ms"], 0.6)


class ChromeTrace(unittest.TestCase):
    def test_complete_events(self):
        doc = stats.chrome_trace([span(5, 15, name="x")])
        (e,) = doc["traceEvents"]
        self.assertEqual((e["ph"], e["ts"], e["dur"], e["name"]), ("X", 5, 10, "x"))


if __name__ == "__main__":
    unittest.main()
