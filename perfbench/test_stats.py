"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_percentile_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(100, 99), 1)
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(20, 50), 10)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))   # 9 beyond the median
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 75)  # p90 leaves 9
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_summary_reports_median_tail_and_count(self):
        samples = [float(i) for i in range(1000, 0, -1)]
        sm = stats.summarize(samples)
        self.assertEqual(sm["n"], 1000)
        self.assertEqual(sm["p50"], 500.0)
        self.assertEqual(sm["tail_p"], 99)
        self.assertEqual(sm["tail"], 990.0)
        few = stats.summarize([5.0, 1.0, 3.0])
        self.assertEqual((few["n"], few["p50"], few["tail_p"], few["tail"]),
                         (3, 3.0, None, None))

    def test_capped_percentile_falls_back_to_the_median(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.capped_percentile(samples, 90), (90.0, 90))
        # p99 needs 1000 samples; 40 would support p75, but the fallback is
        # always the median, so the metric's percentile does not drift.
        self.assertEqual(stats.capped_percentile(samples, 99), (50.0, 50))
        forty = [float(i) for i in range(1, 41)]
        self.assertEqual(stats.capped_percentile(forty, 90), (20.0, 50))
        self.assertEqual(stats.capped_percentile(forty[:9], 90), (5.0, 50))
        with self.assertRaises(ValueError):
            stats.capped_percentile([], 90)


class OpenLoopTimingTest(unittest.TestCase):
    def test_freshness_counts_from_the_due_time(self):
        due = [0.0, 0.1, 0.2]
        # The generator sent batch 1 late; freshness still starts at its due
        # time, so the stall counts against it.
        answer_time = [0.05, 0.12, 0.26, 0.31]
        answer_epoch = [1, 1, 2, 3]
        fresh = stats.freshness(due, answer_time, answer_epoch)
        self.assertAlmostEqual(fresh[0], 0.05)
        self.assertAlmostEqual(fresh[1], 0.16)
        self.assertAlmostEqual(fresh[2], 0.11)

    def test_one_answer_can_cover_several_batches(self):
        fresh = stats.freshness([0.0, 0.1, 0.2], [0.5], [3])
        self.assertEqual([round(f, 9) for f in fresh], [0.5, 0.4, 0.3])

    def test_answers_from_older_snapshots_do_not_count(self):
        fresh = stats.freshness([0.0, 0.1], [0.2, 0.3, 0.4], [0, 1, 1])
        self.assertAlmostEqual(fresh[0], 0.3)
        self.assertIsNone(fresh[1])

    def test_unordered_answers_are_sorted_by_time(self):
        fresh = stats.freshness([0.0], [0.9, 0.4], [1, 1])
        self.assertAlmostEqual(fresh[0], 0.4)

    def test_lateness(self):
        self.assertEqual(stats.lateness([0.0, 1.0, 2.0], [0.0, 1.5, 1.9]),
                         [0.0, 0.5, 0.0])


def span(name, start, end, parent):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            span("job", 0, 100, -1),
            span("load", 10, 30, 0),
            span("run", 40, 90, 0),
            span("step", 40, 60, 2),
            span("step", 60, 85, 2),
        ]
        st = stats.self_times(spans)
        self.assertEqual(st["job"], 100 - 20 - 50)
        self.assertEqual(st["load"], 20)
        self.assertEqual(st["run"], 50 - 45)
        self.assertEqual(st["step"], 45)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [span("p", 0, 10, -1), span("a", 0, 6, 0), span("b", 4, 8, 0)]
        self.assertEqual(stats.self_times(spans)["p"], 2)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 10, 20, -1), span("c", 5, 15, 0)]
        self.assertEqual(stats.self_times(spans)["p"], 5)


class NodeSkewTest(unittest.TestCase):
    def test_ratio_of_slowest_node_to_mean(self):
        def ev(name, step, node, dur):
            return {"name": name, "ph": "X", "pid": node + 1, "dur": dur,
                    "args": {"superstep": step}}
        events = [
            ev("update", 0, 0, 10), ev("update", 0, 1, 30),
            ev("drain", 0, 0, 5), ev("drain", 0, 1, 5),
            # Cluster-wide phase spans (pid 0) are ignored.
            {"name": "update", "ph": "X", "pid": 0, "dur": 99,
             "args": {"superstep": 0}},
        ]
        self.assertAlmostEqual(stats.node_skew(events), (30 + 5) / (20 + 5))
        self.assertEqual(stats.node_skew([]), 0.0)


if __name__ == "__main__":
    unittest.main()
