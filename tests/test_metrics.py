import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opposim.metrics import (
    MetricsCollector, MetricsError, MetricsReport, aggregate, delivery_rate,
    overhead_ratio, render_aggregate_csv, render_runs_csv, render_sweep_csv,
    write_reports,
)


def report(**kw):
    rep = MetricsReport(**kw)
    rep.delivery_rate = delivery_rate(rep)
    rep.overhead_ratio = overhead_ratio(rep)
    return rep


def avg_latency(pairs):
    """avg_latency of a run whose messages are (created, delivered) pairs,
    delivered in list order."""
    c = MetricsCollector()
    for msg_id, (created, delivered) in enumerate(pairs):
        c.on_generated(msg_id)
        c.on_delivered(msg_id, created, delivered)
    return c.report(still_buffered=0).avg_latency


def avg_buffer_time(residencies):
    """avg_buffer_time of a run whose copies stay buffered for the given
    times, one after another."""
    c = MetricsCollector()
    for copy, held in enumerate(residencies):
        c.on_copy_admitted(copy, 0.0)
        c.on_copy_removed(copy, held, "delivered")
    return c.report(still_buffered=0).avg_buffer_time


class TestDeliveryRate:
    def test_direct_ratio(self):
        assert delivery_rate(MetricsReport(generated=10, delivered=5)) == 0.5

    def test_zero_delivered(self):
        assert delivery_rate(MetricsReport(generated=10, delivered=0)) == 0.0

    def test_perfect_delivery(self):
        assert delivery_rate(MetricsReport(generated=7, delivered=7)) == 1.0

    def test_no_traffic_is_absent(self):
        assert delivery_rate(MetricsReport(generated=0)) is None


class TestAvgLatency:
    def test_singleton(self):
        assert avg_latency([(0.0, 100.0)]) == 100.0

    def test_two_point_mean(self):
        assert avg_latency([(0.0, 100.0), (0.0, 300.0)]) == 200.0

    def test_empty_absent(self):
        assert avg_latency([]) is None

    def test_large_sample_against_recompute(self):
        rng = np.random.default_rng(8)
        created = rng.uniform(0, 1000, size=1000)
        delivered = created + rng.uniform(1, 5000, size=1000)
        pairs = list(zip(created, delivered))
        # independent second pass
        expect = float(np.mean(delivered - created))
        assert avg_latency(pairs) == pytest.approx(expect, rel=1e-12)

    def test_sums_left_to_right_on_every_python(self):
        # see TestBufferTime: latencies 1e16, 1 and -1e16 add up to 0
        assert avg_latency([(0.0, 1e16), (0.0, 1.0), (1e16, 0.0)]) == 0.0


class TestOverheadRatio:
    def test_chosen_definition(self):
        assert overhead_ratio(MetricsReport(delivered=50, relayed=200)) == 3.0

    def test_no_surplus(self):
        assert overhead_ratio(MetricsReport(delivered=5, relayed=5)) == 0.0

    def test_single_direct_delivery(self):
        assert overhead_ratio(MetricsReport(delivered=1, relayed=1)) == 0.0

    def test_zero_delivered_absent(self):
        assert overhead_ratio(MetricsReport(delivered=0, relayed=9)) is None


class TestBufferTime:
    def test_simple_residencies(self):
        assert avg_buffer_time([50.0]) == 50.0
        assert avg_buffer_time([86400.0]) == 86400.0
        assert avg_buffer_time([]) is None

    def test_two_point_mean(self):
        assert avg_buffer_time([50.0, 150.0]) == 100.0

    def test_large_sample_against_recompute(self):
        held = np.random.default_rng(9).uniform(0, 86400, size=1000)
        expect = float(np.mean(held))
        assert avg_buffer_time(held) == pytest.approx(expect, rel=1e-12)

    def test_sums_left_to_right_on_every_python(self):
        # the built-in sum compensates rounding from Python 3.12 on, where
        # these would average 1/3; the reports add left to right, as sum
        # does up to 3.11, so no report moves with the Python version
        assert avg_buffer_time([1e16, 1.0, -1e16]) == 0.0

    def test_collector_episodes(self):
        c = MetricsCollector()
        # any hashable names a copy; the engine passes its buffer entry
        c.on_copy_admitted((1, 10), 0.0)
        c.on_copy_admitted((2, 10), 10.0)
        c.on_copy_removed((1, 10), 50.0, "delivered")
        c.on_copy_removed((2, 10), 86410.0, "expired")
        rep = c.report(still_buffered=0)
        assert rep.avg_buffer_time == (50.0 + 86400.0) / 2
        assert rep.expired_copies == 1

    def test_teardown_closes_open_copies(self):
        c = MetricsCollector()
        c.on_copy_admitted((1, 10), 100.0)
        c.close_open_copies(1100.0)
        assert c.report(still_buffered=0).avg_buffer_time == 1000.0
        c.close_open_copies(2000.0)   # idempotent once drained
        assert c.report(still_buffered=0).avg_buffer_time == 1000.0

    def test_removal_of_a_copy_never_admitted_surfaces_error(self):
        c = MetricsCollector()
        with pytest.raises(MetricsError):
            c.on_copy_removed((1, 10), 5.0, "evicted")
        c.on_copy_admitted((1, 10), 0.0)
        c.on_copy_removed((1, 10), 5.0, "evicted")
        with pytest.raises(MetricsError):
            c.on_copy_removed((1, 10), 6.0, "evicted")
        rep = c.report(still_buffered=0)
        assert (rep.evicted_copies, rep.avg_buffer_time) == (1, 5.0)

    def test_custody_episodes_do_not_grow_the_collector(self):
        # a run's memory must not grow with its transfers: each custody
        # episode adds to running sums, and 100,000 of them (3.2 MB as a
        # list of floats) leave the collector as it was
        c = MetricsCollector()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for copy in range(100_000):
                c.on_copy_admitted(copy, float(copy))
                c.on_copy_removed(copy, copy + 1.5, "delivered")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        assert c.report(still_buffered=0).avg_buffer_time == 1.5


class TestCollectorDeliveries:
    def test_dedup_counts_once(self):
        c = MetricsCollector()
        c.on_generated(5)
        assert c.on_delivered(5, 100.0, 250.0)
        assert not c.on_delivered(5, 100.0, 400.0)
        rep = c.report(still_buffered=0)
        assert rep.delivered == 1
        assert rep.avg_latency == 150.0

    def test_unknown_id_surfaces_error(self):
        c = MetricsCollector()
        with pytest.raises(MetricsError):
            c.on_delivered(99, 0.0, 1.0)

    def test_conservation_check(self):
        rep = MetricsReport(generated=10, delivered=4, ttl_dropped=3,
                            buffer_evicted=1, still_buffered=2)
        rep.check_conservation()
        bad = MetricsReport(generated=10, delivered=4)
        with pytest.raises(MetricsError):
            bad.check_conservation()


class TestAggregate:
    def test_singleton_mean_and_zero_std(self):
        rep = report(seed=1, generated=10, delivered=5, relayed=20)
        agg = aggregate([rep])
        assert agg["delivery_rate"] == (0.5, 0.0)

    def test_mean_matches_recompute(self):
        reps = [report(seed=i, generated=100, delivered=d, relayed=d * 3)
                for i, d in enumerate((10, 20, 40))]
        agg = aggregate(reps)
        values = [r.delivery_rate for r in reps]
        assert agg["delivery_rate"][0] == pytest.approx(np.mean(values), rel=1e-9)
        assert agg["delivery_rate"][1] == pytest.approx(np.std(values, ddof=1),
                                                        rel=1e-9)

    def test_order_invariance(self):
        reps = [report(seed=i, generated=50, delivered=i * 5, relayed=i * 9)
                for i in range(1, 6)]
        assert aggregate(reps) == aggregate(list(reversed(reps)))

    def test_absent_metrics_aggregate_to_none(self):
        reps = [MetricsReport(seed=1), MetricsReport(seed=2)]
        agg = aggregate(reps)
        assert agg["avg_latency"] == (None, None)

    def test_sums_left_to_right_on_every_python(self):
        # see TestBufferTime
        reps = [MetricsReport(seed=i, avg_buffer_time=v)
                for i, v in enumerate((1e16, 1.0, -1e16))]
        assert aggregate(reps)["avg_buffer_time"][0] == 0.0


class TestCsv:
    def reports(self):
        return [report(seed=s, generated=100, delivered=60 + s,
                       relayed=300 + s) for s in range(3)]

    def test_runs_csv_shape(self):
        text = render_runs_csv(self.reports())
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("seed,generated,delivered")

    def test_deterministic_bytes(self):
        reps = self.reports()
        assert render_runs_csv(reps) == render_runs_csv(reps)
        assert render_aggregate_csv(reps) == render_aggregate_csv(reps)

    def test_empty_batch_header_only(self):
        text = render_runs_csv([])
        assert len(text.strip().split("\n")) == 1

    def test_absent_values_serialize_empty(self):
        rep = MetricsReport(seed=1)   # no traffic at all
        line = render_runs_csv([rep]).strip().split("\n")[1]
        assert ",," in line

    def test_write_reports_round_trip(self, tmp_path):
        reps = self.reports()
        p1, p2 = write_reports(reps, str(tmp_path), prefix="x_")
        a = Path(p1).read_bytes()
        write_reports(reps, str(tmp_path), prefix="x_")
        assert Path(p1).read_bytes() == a
        assert Path(p2).read_text(encoding="utf-8").startswith(
            "metric,mean,std,runs")

    def test_32_run_batch_rows(self):
        reps = [report(seed=s, generated=10, delivered=5, relayed=9)
                for s in range(32)]
        assert len(render_runs_csv(reps).strip().split("\n")) == 33
        agg_lines = render_aggregate_csv(reps).strip().split("\n")
        assert all(line.endswith(",32") for line in agg_lines[1:])

    def test_sweep_csv(self):
        rows = [("4", self.reports()), ("8", self.reports())]
        text = render_sweep_csv("copies", rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("copies,runs,")
        assert len(lines) == 3
