#!/usr/bin/env python3
"""Self-tests of the benchmark's reduction helpers (no build needed):

    python3 perfbench/test_report.py
"""
import json
import unittest

import report


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(report.percentile(values, 0.5), 50)
        self.assertEqual(report.percentile(values, 1.0), 100)
        self.assertEqual(report.percentile([7.0], 0.5), 7.0)

    def test_rank_survives_binary_rounding(self):
        # 0.55 * 100 evaluates to 55.00000000000001 in binary floating point.
        self.assertEqual(report.rank(100, 0.55), 55)
        self.assertEqual(report.rank(1000, 0.99), 990)
        self.assertEqual(report.samples_beyond(1000, 0.99), 10)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(report.percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(ValueError):
            report.percentile(list(range(999)), 0.99)
        self.assertEqual(report.samples_beyond(100, 0.9), 10)
        report.percentile(list(range(100)), 0.9)
        with self.assertRaises(ValueError):
            report.percentile(list(range(99)), 0.9)

    def test_median_needs_no_tail(self):
        self.assertEqual(report.percentile([3, 1, 2], 0.5), 2)

    def test_unsorted_input(self):
        self.assertEqual(report.percentile([5, 4, 3, 2, 1] * 200, 0.99), 5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            report.percentile([], 0.5)


class Windows(unittest.TestCase):
    def test_offered_window_ends_at_last_send(self):
        # Due at 0, 1, 2 s; the last request left 0.25 s late.
        self.assertAlmostEqual(report.offered_window([0, 1, 2], [0.0, 0.1, 0.25]), 2.25)

    def test_offered_window_uses_the_latest_send_not_the_last_due(self):
        # A request due earlier can leave after the last due one.
        self.assertAlmostEqual(report.offered_window([1.0, 1.5], [0.9, 0.0]), 1.9)

    def test_rate_excludes_drain(self):
        due = [i * 0.01 for i in range(1000)]  # 100 tx/s over 10 s
        late = [0.0] * 1000
        window = report.offered_window(due, late)
        self.assertAlmostEqual(report.rate(1000, window), 1000 / 9.99)
        # A cluster that fell behind confirms fewer in the same window.
        self.assertLess(report.rate(900, window), 100.2)

    def test_mismatched_or_empty(self):
        with self.assertRaises(ValueError):
            report.offered_window([0, 1], [0])
        with self.assertRaises(ValueError):
            report.offered_window([], [])
        with self.assertRaises(ValueError):
            report.rate(1, 0)


class Failures(unittest.TestCase):
    def test_clean_window(self):
        f = report.cluster_failures(100, 100, 100, [100, 100, 100, 100])
        self.assertEqual((f["attempted"], f["failed"]), (100, 0))

    def test_refused_and_unconfirmed(self):
        f = report.cluster_failures(100, 97, 95, [95, 95, 95, 95])
        self.assertEqual((f["refused"], f["unconfirmed"], f["duplicates"]), (3, 2, 0))
        self.assertEqual(f["failed"], 5)

    def test_duplicates_counted_once_per_extra_inclusion(self):
        f = report.cluster_failures(100, 100, 100, [100, 102, 100, 101])
        self.assertEqual(f["duplicates"], 2)
        self.assertEqual(f["failed"], 2)

    def test_sim_duplicates(self):
        # 27 extra inclusions of records already on the chain, all confirmed.
        f = report.sim_failures(11764, [(11764, 11791)])
        self.assertEqual((f["unconfirmed"], f["duplicates"], f["failed"]), (0, 27, 27))

    def test_sim_failures_count_every_network(self):
        f = report.sim_failures(10, [(8, 8), (10, 11), (9, 10)])
        self.assertEqual(f["attempted"], 30)
        self.assertEqual((f["unconfirmed"], f["duplicates"], f["failed"]), (3, 2, 5))

    def test_sim_repeats_count_once_and_must_match(self):
        raw = {"networks": [1, 2, 1], "tips": ["a", "b", "a"], "traced": [0, 0, 0]}
        self.assertEqual(report.first_per_network(raw, [0, 1, 2]), [0, 1])
        self.assertTrue(report.repeats_identical(raw, "tips"))
        raw["tips"][2] = "c"
        self.assertFalse(report.repeats_identical(raw, "tips"))


class ObsSnapshot(unittest.TestCase):
    SNAPSHOT = json.dumps({
        "mempool_admission_total{result=\"ACCEPTED\"}": 40,
        "mempool_admission_total{result=\"QUEUE_FULL\"}": 2,
        "net_messages_total{kind=\"sent\"}": 120,
        "net_messages_total{kind=\"lost\"}": 3,
        "wal_appends_total": 7,
        "validation_verify_seconds": {"count": 3, "sum": 0.1, "mean": 0.03,
                                      "p50": 0.03, "p90": 0.04, "p99": 0.05},
        "mempool_size{instance=\"0\"}": 5.5,
    }, indent=2)

    def test_parse_text_with_newlines(self):
        self.assertEqual(report.parse_snapshot(self.SNAPSHOT)["wal_appends_total"], 7)

    def test_counter_sums_label_children(self):
        self.assertEqual(report.counter(self.SNAPSHOT, "mempool_admission_total"), 42)
        self.assertEqual(report.counter(self.SNAPSHOT, "wal_appends_total"), 7)

    def test_counter_does_not_match_prefixes_or_histograms(self):
        self.assertEqual(report.counter(self.SNAPSHOT, "wal_appends"), 0)
        self.assertEqual(report.counter(self.SNAPSHOT, "validation_verify_seconds"), 0)
        self.assertEqual(report.counter(self.SNAPSHOT, "absent_total"), 0)

    def test_labeled_child(self):
        self.assertEqual(report.labeled(self.SNAPSHOT, "net_messages_total", kind="sent"), 120)
        self.assertEqual(report.labeled(self.SNAPSHOT, "net_messages_total", kind="x"), 0)

    def test_delta_over_nodes(self):
        before = [{"wal_appends_total": 1}, {"wal_appends_total": 10}]
        after = [{"wal_appends_total": 4}, {"wal_appends_total": 15}]
        self.assertEqual(report.delta(before, after, "wal_appends_total"), 8)

    def test_rejects_missing_or_non_object(self):
        with self.assertRaises(ValueError):
            report.parse_snapshot(None)
        with self.assertRaises(ValueError):
            report.parse_snapshot("[1, 2]")


if __name__ == "__main__":
    unittest.main()
