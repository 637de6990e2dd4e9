"""Layer tracing from outside the simulator.

``instrumented`` replaces, for the duration of a ``with`` block, the public
functions and methods that ``opposim.engine`` calls in each layer module
with wrappers that record a span around every call, and restores the
originals on exit; the program itself carries no instrumentation, and
untraced rounds run the unmodified code.

Spans are kept in memory. Calls into hot layers number in the millions per
run, so each span is folded into a per-(parent, name) aggregate as it
closes (calls, total time, self time) instead of being stored whole; only
the outermost spans are kept individually. A span's self time is its
duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []      # [name, start, child time]
        # (parent, name) -> [calls, total_s, self_s]
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.roots: List[Tuple[str, float, float]] = []   # (name, start, end)
        self.counts: Counter = Counter()
        self.path_pairs: set = set()      # shortest-path queries of this run

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        end = self.clock()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        key = (parent[0] if parent else None, name)
        agg = self.edges.get(key)
        if agg is None:
            agg = self.edges[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if parent is not None:
            parent[2] += dur
        else:
            self.roots.append((name, start, end))

    def stats(self, name: str) -> Tuple[int, float, float]:
        """(calls, total_s, self_s) of one span name over all parents."""
        calls, total, self_s = 0, 0.0, 0.0
        for (_, n), (c, t, s) in self.edges.items():
            if n == name:
                calls += c
                total += t
                self_s += s
        return int(calls), total, self_s

    def layer(self, prefix: str) -> Tuple[int, float]:
        """(calls, self_s) summed over span names starting with prefix."""
        calls, self_s = 0, 0.0
        for (_, n), (c, _, s) in self.edges.items():
            if n.startswith(prefix):
                calls += c
                self_s += s
        return int(calls), self_s

    def dump(self, path: str) -> None:
        data = {
            "edges": [{"parent": p, "name": n, "calls": int(c), "total_s": t,
                       "self_s": s}
                      for (p, n), (c, t, s) in sorted(
                          self.edges.items(), key=lambda kv: (kv[0][1],
                                                              kv[0][0] or ""))],
            "roots": [{"name": n, "start": a, "end": b}
                      for n, a, b in self.roots],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, result)
        return result
    return traced


def _targets(tracer: Tracer):
    """(owner, attribute, span name, before, after) for every layer entry
    point the engine uses. Functions the engine imported by name are
    replaced in the engine's namespace, where its calls look them up."""
    from opposim import engine, metrics, mobility, radio, routing

    counts = tracer.counts

    def count_plans(args, result):
        counts["routing.select.plans"] += len(result)
        counts["routing.offers"] += len(result)

    def count_offers(args, result):
        # an approved offer queues a copy; the check _start_next repeats
        # before sending is not a new offer
        if result and sys._getframe(2).f_code.co_name != "_start_next":
            counts["routing.offers"] += 1

    def count_evictions(args, result):
        counts["routing.evictions"] += len(result[1])

    def new_run(args):
        tracer.path_pairs = set()

    def count_repeat(args):
        key = (id(args[0]), args[1], args[2])
        if key in tracer.path_pairs:
            counts["map_graph.shortest_path.repeats"] += 1
        else:
            tracer.path_pairs.add(key)

    out = [
        (engine.Simulation, "__init__", "engine.build", new_run, None),
        (engine.Simulation, "run", "engine.run", None, None),
        # routing
        (engine, "buffer_admit", "routing.buffer_admit", None, count_evictions),
        (engine, "spray_split", "routing.spray_split", None, None),
        # radio
        (engine, "step_radio", "radio.step_radio", None, None),
        (engine, "assign_channel", "radio.assign_channel", None, None),
        (engine, "joiner_bandwidth_estimate", "radio.bandwidth.joiner", None, None),
        (engine, "member_bandwidth_estimate", "radio.bandwidth.member", None, None),
        (radio, "effective_bandwidth", "radio.bandwidth.effective", None, None),
        (engine, "should_switch_ap", "radio.should_switch_ap", None, None),
        (engine, "ap_due_retirement", "radio.ap_due_retirement", None, None),
        (radio.RadioState, "reset_to_scan", "radio.reset_to_scan", None, None),
        # mobility
        (engine, "build_profiles", "mobility.build_profiles", None, None),
        (mobility.MobilityModel, "__init__", "mobility.build", None, None),
        (mobility.MobilityModel, "wake", "mobility.wake", None, None),
        (mobility.MobilityModel, "position", "mobility.position", None, None),
        (mobility.MobilityModel, "begin_day", "mobility.begin_day", None, None),
        (mobility.MobilityModel, "initial_wakes", "mobility.initial_wakes", None, None),
        (mobility.MobilityModel, "at_home", "mobility.at_home", None, None),
        # map & routes
        (engine, "synth_map", "map_graph.build.synth_map", None, None),
        (engine, "parse_map", "map_graph.build.parse_map", None, None),
        (engine, "place_pois", "map_graph.build.place_pois", None, None),
        (mobility, "shortest_path", "map_graph.shortest_path", count_repeat, None),
        # traffic
        (engine, "make_message", "traffic.make_message", None, None),
        (engine, "next_creation", "traffic.next_creation", None, None),
        # metrics
        (metrics.MetricsReport, "check_conservation", "metrics.check_conservation",
         None, None),
    ]
    for attr, fn in vars(metrics.MetricsCollector).items():
        if callable(fn) and not attr.startswith("_"):
            out.append((metrics.MetricsCollector, attr, f"metrics.{attr}",
                        None, None))
    for cls in _subclasses(routing.RouterPolicy):
        for attr, name, after in (
                ("select_transfers", "routing.select", count_plans),
                ("eligible", "routing.eligible", count_offers),
                ("may_become_ap", "routing.may_become_ap", None)):
            if attr in vars(cls):
                out.append((cls, attr, name, None, after))
    return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Trace every layer entry point while the block runs."""
    patched = []
    try:
        for owner, attr, name, before, after in _targets(tracer):
            orig = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, name, orig, before, after))
            patched.append((owner, attr, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, rounds: int, reports: List[Dict]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from traced rounds, per round; ratios use totals.

    ``reports`` are the traced rounds' simulation reports, which give the
    transfer counts the useful-offer ratio divides by.
    """
    def per(x):
        return x / rounds

    out: Dict[str, Tuple[float, str]] = {}
    c = tracer.counts
    sel_calls, _, sel_self = tracer.stats("routing.select")
    out["routing.select.calls"] = (per(sel_calls), "count")
    out["routing.select.plans"] = (per(c["routing.select.plans"]), "count")
    out["routing.select.busy_s"] = (per(sel_self), "s")
    out["routing.eligible.calls"] = (per(tracer.stats("routing.eligible")[0]),
                                     "count")
    out["routing.buffer_admit.calls"] = (
        per(tracer.stats("routing.buffer_admit")[0]), "count")
    out["routing.evictions"] = (per(c["routing.evictions"]), "count")
    out["routing.busy_s"] = (per(tracer.layer("routing.")[1]), "s")
    completed = sum(r["relayed"] for r in reports)
    aborted = sum(r["aborted"] for r in reports)
    offers = c["routing.offers"]
    out["routing.useful_offer_ratio"] = (completed / offers if offers else 0.0,
                                         "ratio")
    m_calls, m_self = tracer.layer("metrics.")
    out["metrics.callbacks"] = (per(m_calls), "count")
    out["metrics.busy_s"] = (per(m_self), "s")
    out["radio.step_radio.calls"] = (per(tracer.stats("radio.step_radio")[0]),
                                     "count")
    out["radio.bandwidth_estimates"] = (
        per(tracer.layer("radio.bandwidth.")[0]), "count")
    out["radio.assign_channel.calls"] = (
        per(tracer.stats("radio.assign_channel")[0]), "count")
    out["radio.busy_s"] = (per(tracer.layer("radio.")[1]), "s")
    out["mobility.wake.calls"] = (per(tracer.stats("mobility.wake")[0]), "count")
    out["mobility.position.calls"] = (
        per(tracer.stats("mobility.position")[0]), "count")
    out["mobility.busy_s"] = (per(tracer.layer("mobility.")[1]), "s")
    build = sum(tracer.stats(n)[1] for n in (
        "map_graph.build.synth_map", "map_graph.build.parse_map",
        "map_graph.build.place_pois"))
    out["map_graph.build_s"] = (per(build), "s")
    sp_calls, _, sp_self = tracer.stats("map_graph.shortest_path")
    out["map_graph.shortest_path.calls"] = (per(sp_calls), "count")
    out["map_graph.shortest_path.repeat_ratio"] = (
        c["map_graph.shortest_path.repeats"] / sp_calls if sp_calls else 0.0,
        "ratio")
    out["map_graph.shortest_path.busy_s"] = (per(sp_self), "s")
    out["traffic.messages"] = (per(tracer.stats("traffic.make_message")[0]),
                               "count")
    out["traffic.busy_s"] = (per(tracer.layer("traffic.")[1]), "s")
    out["engine.self_s"] = (per(tracer.stats("engine.run")[2]), "s")
    out["engine.transfers_completed"] = (per(completed), "count")
    out["engine.transfers_aborted"] = (per(aborted), "count")
    return out
