"""Run metrics: counters, derived ratios and CSV serialization.

Per run we count message outcomes (delivered, expired, evicted to
extinction, still buffered) and completed/aborted transfers, and keep
running sums of delivery latencies and buffer custody episodes. Three
headline metrics follow the usual DTN conventions:

    delivery rate   = delivered / generated
    average latency = mean(delivered_at - created_at), first delivery only
    overhead ratio  = (relayed - delivered) / delivered

Buffer time averages custody episodes: admission until the copy leaves the
buffer via delivery hand-off, eviction, TTL expiry, or simulation
teardown. A spray copy parked in some custodian's buffer all day weighs in
with its full parked time.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields
from typing import Dict, Hashable, Optional, Sequence, Tuple


class MetricsError(RuntimeError):
    pass


@dataclass
class MetricsReport:
    seed: int = 0
    generated: int = 0
    delivered: int = 0
    relayed: int = 0            # completed transfers, including deliveries
    aborted: int = 0
    ttl_dropped: int = 0        # messages that expired undelivered
    buffer_evicted: int = 0     # messages whose last copy was evicted
    still_buffered: int = 0     # messages alive in buffers at run end
    evicted_copies: int = 0
    expired_copies: int = 0
    delivery_rate: Optional[float] = None
    avg_latency: Optional[float] = None
    overhead_ratio: Optional[float] = None
    avg_buffer_time: Optional[float] = None

    def check_conservation(self) -> None:
        total = (self.delivered + self.ttl_dropped + self.buffer_evicted
                 + self.still_buffered)
        if total != self.generated:
            raise MetricsError(
                f"message accounting leak: generated={self.generated} "
                f"delivered={self.delivered} ttl={self.ttl_dropped} "
                f"evicted={self.buffer_evicted} left={self.still_buffered}")


def _sum(values) -> float:
    """Left to right, as `sum` adds floats up to Python 3.11: from 3.12 on
    it compensates rounding, and reports would move with the version."""
    total = 0
    for v in values:
        total += v
    return total


def delivery_rate(report: MetricsReport) -> Optional[float]:
    if report.generated == 0:
        return None
    return report.delivered / report.generated


def overhead_ratio(report: MetricsReport) -> Optional[float]:
    if report.delivered == 0:
        return None
    return (report.relayed - report.delivered) / report.delivered


class MetricsCollector:
    """Event sink owned by a single run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.generated_ids: set = set()
        self.delivered_at: Dict[int, float] = {}
        # running sums, added in event order from int 0 as _sum adds
        self.latency_total = 0                          # first deliveries
        self.relayed = 0
        self.aborted = 0
        self.ttl_dropped = 0
        self.buffer_evicted = 0
        self.evicted_copies = 0
        self.expired_copies = 0
        self.buffer_time_total = 0
        self.episodes = 0                               # closed custodies
        self._open: Dict[Hashable, float] = {}          # copy -> admit time

    # -- message lifecycle ---------------------------------------------------

    def on_generated(self, msg_id: int) -> None:
        self.generated_ids.add(msg_id)

    def on_delivered(self, msg_id: int, created_at: float, now: float) -> bool:
        """Record a delivery; duplicate arrivals count once. Returns True
        for the first delivery."""
        if msg_id not in self.generated_ids:
            raise MetricsError(f"delivery of unknown message {msg_id}")
        if msg_id in self.delivered_at:
            return False
        self.delivered_at[msg_id] = now
        self.latency_total += now - created_at
        return True

    def on_transfer_completed(self) -> None:
        self.relayed += 1

    def on_transfer_aborted(self) -> None:
        self.aborted += 1

    def on_message_expired(self) -> None:
        self.ttl_dropped += 1

    def on_message_extinct(self) -> None:
        self.buffer_evicted += 1

    # -- buffer custody --------------------------------------------------------

    def on_copy_admitted(self, copy: Hashable, now: float) -> None:
        """A copy enters a buffer. `copy` names it until it leaves; the
        engine passes the copy's buffer entry, which exists anyway, so a
        run builds no key per copy."""
        self._open[copy] = now

    def on_copy_removed(self, copy: Hashable, now: float, kind: str) -> None:
        start = self._open.pop(copy, None)
        if start is None:
            raise MetricsError(f"removal of a copy never admitted: {copy!r}")
        self.buffer_time_total += now - start
        self.episodes += 1
        if kind == "evicted":
            self.evicted_copies += 1
        elif kind == "expired":
            self.expired_copies += 1

    def close_open_copies(self, now: float) -> None:
        """Teardown: every copy still buffered ends its custody episode
        now, in admission order, so long-held spray copies weigh in."""
        for start in self._open.values():
            self.buffer_time_total += now - start
        self.episodes += len(self._open)
        self._open.clear()

    # -- finalize --------------------------------------------------------------

    def report(self, still_buffered: int) -> MetricsReport:
        rep = MetricsReport(
            seed=self.seed,
            generated=len(self.generated_ids),
            delivered=len(self.delivered_at),
            relayed=self.relayed,
            aborted=self.aborted,
            ttl_dropped=self.ttl_dropped,
            buffer_evicted=self.buffer_evicted,
            still_buffered=still_buffered,
            evicted_copies=self.evicted_copies,
            expired_copies=self.expired_copies,
        )
        rep.delivery_rate = delivery_rate(rep)
        rep.avg_latency = (self.latency_total / rep.delivered
                           if rep.delivered else None)
        rep.overhead_ratio = overhead_ratio(rep)
        rep.avg_buffer_time = (self.buffer_time_total / self.episodes
                               if self.episodes else None)
        return rep


# ---------------------------------------------------------------------------
# Aggregation and CSV output
# ---------------------------------------------------------------------------

RUN_COLUMNS = [f.name for f in fields(MetricsReport)]

METRIC_COLUMNS = ["generated", "delivered", "relayed", "aborted",
                  "ttl_dropped", "buffer_evicted", "still_buffered",
                  "evicted_copies", "expired_copies", "delivery_rate",
                  "avg_latency", "overhead_ratio", "avg_buffer_time"]


def aggregate(reports: Sequence[MetricsReport]) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
    """Per-metric (mean, sample std) over runs; metrics absent in every run
    aggregate to (None, None). A single run has std 0."""
    out: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    for name in METRIC_COLUMNS:
        values = [getattr(r, name) for r in reports]
        values = [v for v in values if v is not None]
        if not values:
            out[name] = (None, None)
            continue
        mean = _sum(values) / len(values)
        if len(values) == 1:
            std = 0.0
        else:
            var = _sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            std = math.sqrt(var)
        out[name] = (mean, std)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(value, ".10g")


def render_runs_csv(reports: Sequence[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for rep in reports:
        writer.writerow([_fmt(getattr(rep, c)) for c in RUN_COLUMNS])
    return buf.getvalue()


def render_aggregate_csv(reports: Sequence[MetricsReport]) -> str:
    agg = aggregate(reports)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "mean", "std", "runs"])
    for name in METRIC_COLUMNS:
        mean, std = agg[name]
        writer.writerow([name, _fmt(mean), _fmt(std), len(reports)])
    return buf.getvalue()


def write_reports(reports: Sequence[MetricsReport], out_dir: str,
                  prefix: str = "") -> Tuple[str, str]:
    """Write per-run and aggregate CSVs; returns the two paths.

    Output is deterministic: serializing the same reports twice yields
    identical bytes."""
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, f"{prefix}runs.csv")
    agg_path = os.path.join(out_dir, f"{prefix}aggregate.csv")
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_runs_csv(reports))
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_aggregate_csv(reports))
    return runs_path, agg_path


def render_sweep_csv(parameter: str, rows: Sequence[Tuple[str, Sequence[MetricsReport]]]) -> str:
    """Combined sweep table: one row per swept value with per-metric mean
    and std columns, ready for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [parameter, "runs"]
    for name in METRIC_COLUMNS:
        header += [f"{name}_mean", f"{name}_std"]
    writer.writerow(header)
    for value_label, reports in rows:
        agg = aggregate(reports)
        row = [value_label, len(reports)]
        for name in METRIC_COLUMNS:
            mean, std = agg[name]
            row += [_fmt(mean), _fmt(std)]
        writer.writerow(row)
    return buf.getvalue()
