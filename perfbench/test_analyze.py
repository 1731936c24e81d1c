"""Tests for the benchmark's own arithmetic (perfbench/analyze.py).

    python3 perfbench/test_analyze.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analyze  # noqa: E402


def op(kind, t0, t1, phases=None, particles=None, seg="plain"):
    n = len(t0)
    return {"type": "op", "seg": seg, "kind": kind, "ok": True, "cycle": 0,
            "t0": t0, "t1": t1, "t2": t1, "phases": phases or [[] for _ in range(n)],
            "bat": [[] for _ in range(n)], "particles": particles or [1] * n,
            "bytes": [0] * n}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_one_hundred_samples(self):
        self.assertEqual(analyze.min_samples(0.9), analyze.MIN_SAMPLES)
        self.assertEqual(analyze.samples_above(100, 0.9), 10)
        self.assertEqual(analyze.samples_above(99, 0.9), 9)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(analyze.min_samples(0.5), 20)

    def test_reported_value_has_ten_samples_above(self):
        values = list(range(1, 101))
        p90 = analyze.percentile(values, 0.9)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)
        self.assertEqual(analyze.percentile(values, 0.5), 50)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(analyze.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_end_to_end_refuses_too_few_samples(self):
        records = [{"type": "setup", "seconds": 1.0}]
        records += [op(k, [0], [1000]) for k in analyze.KINDS for _ in range(99)]
        with self.assertRaises(ValueError):
            analyze.end_to_end(records)

    def test_samples_are_pooled_over_processes(self):
        for counts, enough in (((50, 50), True), ((50, 49), False)):
            records = [{"type": "setup", "seconds": 1.0, "proc": 0},
                       {"type": "end", "peak_rss_kb": 1024, "proc": 0}]
            for proc, n in enumerate(counts):
                for k in analyze.KINDS:
                    records += analyze.tag_process([op(k, [0], [1000]) for _ in range(n)], proc)
            if enough:
                self.assertEqual(analyze.end_to_end(records)["query_p90_ms"][2], 100)
            else:
                with self.assertRaises(ValueError):
                    analyze.end_to_end(records)

    def test_timings_pool_the_processes(self):
        records = []
        for proc, wall in ((0, 1_000_000), (1, 2_000_000), (2, 9_000_000)):
            recs = [{"type": "setup", "seconds": 1.0},
                    {"type": "end", "peak_rss_kb": 1024}]
            recs += [op(k, [0], [wall]) for k in analyze.KINDS for _ in range(100)]
            records += analyze.tag_process(recs, proc)
        m = analyze.end_to_end(records)
        self.assertEqual(m["read_step_p50_ms"][0], 2.0)
        self.assertEqual(m["query_p90_ms"][0], 9.0)
        self.assertEqual(m["query_per_s"][0], 250.0)
        self.assertEqual(m["read_step_p90_ms"][2], 300)


class Processes(unittest.TestCase):
    def test_every_process_of_every_run_has_its_own_seed(self):
        seeds = [analyze.process_seed(s, p, 8) for s in range(20) for p in range(8)]
        self.assertEqual(len(set(seeds)), len(seeds))
        self.assertEqual(analyze.process_seed(3, 0, 8), analyze.process_seed(3, 0, 8))

    def test_counts_repeat_within_each_process(self):
        def traced(proc, cycle, n):
            r = op("read", [0], [1], seg="traced")
            r.update(proc=proc, cycle=cycle, counters={"read.request_msgs": n})
            return r
        # Processes run on different data sets, so their counts may differ.
        same = [traced(0, c, 4) for c in range(3)] + [traced(1, c, 7) for c in range(3)]
        self.assertTrue(analyze.counts_repeat(same))
        self.assertFalse(analyze.counts_repeat(same + [traced(1, 3, 8)]))


class SelfTime(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        self.assertEqual(analyze.covered_ns((0, 100), [(10, 30), (20, 50), (80, 120)]), 60)

    def test_children_outside_the_parent_are_clipped(self):
        self.assertEqual(analyze.covered_ns((0, 100), [(-10, 5), (150, 160)]), 5)

    def test_self_is_span_minus_covered_child_intervals(self):
        spans = [
            [0, "op", -1, 0, 100],
            [0, "io/reader", 0, 10, 70],
            [0, "oracle", 0, 60, 90],      # overlaps the reader span
            [0, "core/bat_query", 1, 20, 30],  # grandchild of op
            [1, "op", -1, 0, 50],          # another rank
        ]
        self_ns = analyze.self_times_ns(spans, 0)
        self.assertEqual(self_ns["op"], 100 - 80)
        self.assertEqual(self_ns["io/reader"], 60 - 10)
        self.assertEqual(self_ns["oracle"], 30)
        self.assertEqual(self_ns["core/bat_query"], 10)
        self.assertEqual(analyze.self_times_ns(spans, 1), {"op": 50})


class CriticalPath(unittest.TestCase):
    def test_critical_rank_returned_last(self):
        self.assertEqual(analyze.critical_rank(op("write", [0, 0, 0], [5, 9, 3])), 1)

    def test_tie_picks_lowest_rank(self):
        self.assertEqual(analyze.critical_rank(op("write", [0, 0, 0], [9, 4, 9])), 0)

    def test_wall_runs_from_first_start_to_last_return(self):
        self.assertEqual(analyze.wall_ns(op("read", [100, 50, 70], [400, 900, 300])), 850)

    def test_rows_plus_untiled_tile_the_wall(self):
        # Rank 1 returns last; its rows (seconds) are what tile the wall.
        o = op("read", [0, 1_000_000], [4_000_000, 10_000_000],
               phases=[[0.001, 0.001], [0.002, 0.005]])
        untiled = analyze.untiled_ms(o)
        self.assertAlmostEqual(untiled, 10.0 - 7.0)
        self.assertAlmostEqual(1e3 * sum(o["phases"][1]) + untiled, analyze.wall_ns(o) / 1e6)


    def test_rows_longer_than_the_wall_are_flagged(self):
        ok = op("read", [0], [10_000_000], phases=[[0.005, 0.005]])
        bad = op("read", [0], [10_000_000], phases=[[0.008, 0.005]])
        self.assertEqual(analyze.untiled_negative([ok]), 0)
        self.assertEqual(analyze.untiled_negative([ok, bad]), 1)


class DiskAccounting(unittest.TestCase):
    def test_manifest_and_metadata_count(self):
        cycle = {"particles_written": 100, "leaf_bytes": 5000, "batmeta_bytes": 300,
                 "manifest_bytes": 200, "other_bytes": 0}
        self.assertEqual(analyze.disk_bytes(cycle), 5500)
        self.assertEqual(analyze.disk_bytes_per_particle([cycle]), 55.0)

    def test_ratio_over_several_cycles(self):
        cycles = [{"particles_written": 100, "leaf_bytes": 1000, "batmeta_bytes": 0,
                   "manifest_bytes": 0, "other_bytes": 0},
                  {"particles_written": 300, "leaf_bytes": 2000, "batmeta_bytes": 0,
                   "manifest_bytes": 1000, "other_bytes": 0}]
        self.assertEqual(analyze.disk_bytes_per_particle(cycles), 10.0)

    def test_no_particles_written(self):
        self.assertEqual(analyze.disk_bytes_per_particle([]), 0.0)


class Means(unittest.TestCase):
    def test_mean_over_repeated_cycles_is_exact(self):
        cycle = [1.956, 1.948, 1.057, 1.085, 1.835]  # a plain float sum differs
        self.assertEqual(analyze._mean(cycle * 3), analyze._mean(cycle * 7))


class Budget(unittest.TestCase):
    def test_threads_within_nproc(self):
        self.assertTrue(analyze.budget_ok({"rank_threads": 4, "pool_workers": 0, "nproc": 4}))
        self.assertFalse(analyze.budget_ok({"rank_threads": 4, "pool_workers": 1, "nproc": 4}))


if __name__ == "__main__":
    unittest.main()
