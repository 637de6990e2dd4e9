"""Self-test of the benchmark: every workload, shrunk to a few seconds, runs
and passes its checks; the checks reject broken reports; the traced and
timed paths report every metric BENCHMARK.json names; the memory peak
counts child processes; the tracer's self-time arithmetic and the host
clock's rescaling hold on synthetic spans and bursts.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import unittest

import numpy as np

import hostclock
import run
import tracing
import workloads

workloads.import_program()

with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
        tr = tracing.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
        tr.enter("a")
        tr.enter("b")
        tr.enter("c")
        tr.exit()
        tr.exit()
        tr.enter("b")
        tr.exit()
        tr.exit()
        self.assertEqual(tr.stats("a"), (1, 10, 10 - 3 - 2))
        self.assertEqual(tr.stats("b"), (2, 5, 5 - 1))
        self.assertEqual(tr.stats("c"), (1, 1, 1))
        self.assertEqual(tr.layer(""), (4, 10))      # self times sum to root
        self.assertEqual(tr.roots, [("a", 0, 10)])

    def test_same_name_under_two_parents(self):
        # p [0, 4] holds x [1, 3]; q [5, 6]; x [6, 8] at top level
        tr = tracing.Tracer(FakeClock([0, 1, 3, 4, 5, 6, 6, 8]))
        for outer in ("p", "q"):
            tr.enter(outer)
            if outer == "p":
                tr.enter("x")
                tr.exit()
            tr.exit()
        tr.enter("x")
        tr.exit()
        self.assertEqual(tr.stats("x"), (2, 4, 4))
        self.assertEqual(tr.stats("p"), (1, 4, 2))


def _good_report():
    return {"seed": 1, "generated": 250, "delivered": 200, "relayed": 900,
            "aborted": 3, "ttl_dropped": 10, "buffer_evicted": 5,
            "still_buffered": 35, "evicted_copies": 12, "expired_copies": 0,
            "avg_latency": 1000.0}


class Checks(unittest.TestCase):
    def setUp(self):
        self.config = workloads.scenario_config(
            workloads.WORKLOADS["desk-epidemic"])

    def test_good_report_passes(self):
        self.assertEqual(workloads.check_report(_good_report(), self.config,
                                                copies=10), [])

    def test_each_broken_report_fails(self):
        broken = [dict(still_buffered=36), dict(generated=400, still_buffered=185),
                  dict(relayed=199, delivered=200),
                  dict(avg_latency=None), dict(avg_latency=0.0),
                  dict(avg_latency=86401.0), dict(relayed=2501)]
        for change in broken:
            rep = dict(_good_report(), **change)
            self.assertTrue(workloads.check_report(rep, self.config, copies=10),
                            change)

    def test_generated_band_holds_for_renewal_draws(self):
        traffic, duration = self.config.traffic, self.config.duration
        lo, hi = workloads.generated_band(traffic, duration)
        rng = np.random.default_rng(0)
        end = min(traffic.window[1], duration)
        for draw_lo, draw_hi in ((traffic.interval_range[0],) * 2,
                                 (traffic.interval_range[1],) * 2,
                                 traffic.interval_range):
            t, n = traffic.window[0], 0
            while True:
                t += rng.uniform(draw_lo, draw_hi)
                if t > traffic.window[1] or t >= end:
                    break
                n += 1
            self.assertTrue(lo <= n <= hi, (n, lo, hi))

    def test_round_checks_catch_sweep_and_eviction_faults(self):
        w = workloads.WORKLOADS["desk-epidemic"]
        quiet = dict(_good_report(), evicted_copies=0)
        res = workloads.RoundResult(1.0, 1.0, [quiet], {})
        self.assertTrue(any("evicted" in e
                            for e in workloads.check_round(w, res)))
        w = workloads.shrink(workloads.WORKLOADS["copies-sweep"])
        other = dict(_good_report(), generated=251, still_buffered=36)
        res = workloads.RoundResult(1.0, 1.0, [_good_report(), other], {})
        self.assertTrue(any("differs" in e
                            for e in workloads.check_round(w, res)))


class Rescale(unittest.TestCase):
    def test_stretches_scale_by_the_burst_time_around_them(self):
        # bursts (start, wall, cpu, steal): one before the block, two
        # inside, one after; the host runs at half the reference speed,
        # then at it
        bursts = [(-1.0, 0.1, 2.0, 0, (0.0,)), (2.0, 0.5, 2.0, 0, (0.0,)),
                  (5.0, 0.5, 1.0, 0, (0.0,)), (9.0, 0.1, 1.0, 0, (0.0,))]
        scaled, plain = hostclock.rescale(0.0, 8.0, bursts, ref=1.0,
                                          window=0)
        # stretches [0, 2] at speed 2, [2.5, 5] at 2, [5.5, 8] at 1
        self.assertAlmostEqual(plain, 2.0 + 2.5 + 2.5)
        self.assertAlmostEqual(scaled, 1.0 + 1.25 + 2.5)

    def test_steal_between_bursts_is_taken_off_its_stretch(self):
        # on core 1: 0.5 s stolen before the second burst, 1 s before the
        # third; core 0's steal does not count
        bursts = [(-1.0, 0.0, 1.0, 1, (0.0, 10.0)),
                  (2.0, 0.0, 1.0, 1, (3.0, 10.5)),
                  (5.0, 0.0, 1.0, 1, (4.0, 11.5)),
                  (9.0, 0.0, 1.0, 1, (9.0, 11.5))]
        scaled, plain = hostclock.rescale(0.0, 8.0, bursts, ref=1.0,
                                          window=0)
        self.assertAlmostEqual(plain, 8.0)
        self.assertAlmostEqual(scaled, 8.0 - 1.5)

    def test_median_window_ignores_one_slow_burst(self):
        bursts = [(t, 0.0, c, 0, (0.0,))
                  for t, c in ((-1.0, 1.0), (1.0, 1.0), (2.0, 9.0),
                               (3.0, 1.0), (5.0, 1.0))]
        scaled, plain = hostclock.rescale(0.0, 4.0, bursts, ref=1.0,
                                          window=1)
        self.assertAlmostEqual(scaled, plain)
        self.assertAlmostEqual(plain, 4.0)

    def test_clock_excludes_bursts_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostclock.HostClock(period=0.01) as clock:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        inside = [b for b in clock.bursts if clock.t0 <= b[0] < clock.t1]
        self.assertGreater(len(inside), 5)
        self.assertAlmostEqual(clock.wall_s + sum(b[1] for b in inside),
                               clock.t1 - clock.t0, places=6)
        self.assertGreater(clock.seconds, 0)


class Memory(unittest.TestCase):
    def test_peak_counts_child_processes(self):
        child = ("import sys, time; b = b'x' * (64 << 20); "
                 "sys.stdout.write('ok\\n'); sys.stdout.flush(); time.sleep(0.5)")
        with run.TreePeakRss() as rss:
            alone = run._rss_kb(os.getpid())
            with subprocess.Popen([sys.executable, "-c", child],
                                  stdout=subprocess.PIPE) as proc:
                proc.stdout.readline()
                proc.wait(timeout=30)
        self.assertGreater(rss.peak_kb, alone + (60 << 10))


class SmallWorkloads(unittest.TestCase):
    def test_every_workload_runs_and_passes(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(name):
                small = workloads.shrink(w)
                res = workloads.run_round(small, 7)
                self.assertEqual(res.failed, 0)
                self.assertEqual(len(res.reports), small.runs_per_round)
                self.assertEqual(workloads.check_round(small, res), [])

    def test_traced_round_reports_every_layer_metric_and_unwraps(self):
        from opposim import engine, mobility
        before = (engine.step_radio, engine.Simulation.run,
                  mobility.MobilityModel.position, mobility.shortest_path)
        w = workloads.shrink(workloads.WORKLOADS["commute-hrson"])
        tally = run.Tally(w)
        metrics, _ = run.traced(w, 0, 0.1, tally)
        after = (engine.step_radio, engine.Simulation.run,
                 mobility.MobilityModel.position, mobility.shortest_path)
        self.assertEqual(before, after)
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in SPEC["per_layer"]))
        self.assertEqual(tally.errors, [])
        self.assertEqual(tally.attempted, 2)
        for name in ("radio.step_radio.calls", "mobility.position.calls",
                     "map_graph.shortest_path.calls", "engine.self_s",
                     "trace.overhead_ratio"):
            self.assertGreater(metrics[name][0], 0, name)

    def test_timed_round_reports_every_end_to_end_metric(self):
        w = workloads.shrink(workloads.WORKLOADS["copies-sweep"])
        tally = run.Tally(w)
        metrics, _ = run.timed(w, 0, 0.1, tally)
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertEqual((tally.attempted, tally.failed, tally.errors),
                         (2, 0, []))
        for value, _ in metrics.values():
            self.assertGreater(value, 0)


if __name__ == "__main__":
    unittest.main()
