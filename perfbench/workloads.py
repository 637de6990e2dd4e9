"""Benchmark workloads: how each one's inputs follow from a seed, how one
round runs, and the output checks every round must pass.

A round is the unit a workload repeats: one seeded simulation for
``commute-hrson`` and ``desk-epidemic``, one whole ``opposim sweep``
(every copies value, CSV output included) for ``copies-sweep``. Round ``k``
of a benchmark run with ``--seed n`` uses simulation seed ``1000 * n + k``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_program():
    """Import opposim from this checkout's ``src/``, never an installed copy."""
    init = SRC / "opposim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run from a checkout "
                         f"that holds the simulator sources")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opposim
    if Path(opposim.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported opposim from {opposim.__file__}, "
                         f"not from {init}")


def round_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    router: str
    nodes: Optional[int] = None        # None keeps the preset's node count
    duration: Optional[float] = None   # None keeps the preset's duration
    copies_values: Tuple[int, ...] = ()  # non-empty: a copies sweep per round
    workers: int = 1
    expect_evictions: bool = False

    @property
    def runs_per_round(self) -> int:
        return len(self.copies_values) or 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Run by hand only: its host time follows the seed (see README.md).
    Workload("desk-epidemic", "desk", "epidemic", expect_evictions=True),
    # 10 simulated hours (night, the 08:00 departures, the first office
    # hours) and 12 for the sweep (the whole creation window) keep a round
    # near 7 s, so a run takes the median of several rounds.
    Workload("commute-hrson", "scenario4", "hrson", nodes=300,
             duration=36000.0),
    Workload("copies-sweep", "desk", "snw", duration=43200.0,
             copies_values=(2, 4, 8, 16), workers=2),
)}

# Shrunk variants for the self-test: same code paths, a few seconds each.
SMALL = {"desk-epidemic": dict(duration=50400.0),
         "commute-hrson": dict(nodes=80, duration=36000.0),
         "copies-sweep": dict(duration=36000.0, copies_values=(2, 8))}


def shrink(w: Workload) -> Workload:
    return dataclasses.replace(w, **SMALL[w.name])


def scenario_config(w: Workload):
    from opposim.scenario import load_scenario
    return load_scenario(w.scenario, router=w.router, nodes=w.nodes,
                         duration=w.duration)


def value_configs(w: Workload) -> List[Tuple[Optional[int], object]]:
    """(copies value or None, config) for every simulation one round runs."""
    from opposim.engine import apply_sweep_value
    base = scenario_config(w)
    if not w.copies_values:
        return [(None, base)]
    return [(v, apply_sweep_value(base, "copies", v))
            for v in w.copies_values]


def build_first(w: Workload, sim_seed: int):
    """World build of a round's first simulation (what set-up pays)."""
    from opposim.engine import Simulation
    return Simulation(value_configs(w)[0][1], sim_seed)


@dataclass
class RoundResult:
    run_s: float                 # host time, first tick until every report,
                                 # rescaled to the reference host speed
    cpu_s: float                 # CPU time of this process and reaped children
    reports: List[Dict]          # one dict of report fields per simulation
    files: Dict[str, bytes]      # CSV outputs by file name (sweeps only)
    failed: int = 0              # simulations that raised or exited non-zero
    wall_s: float = 0.0          # the same host time, not rescaled
    steal_s: float = 0.0         # steal time the VM's cores had meanwhile


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(w: Workload, sim_seed: int,
              workers: Optional[int] = None) -> RoundResult:
    if w.copies_values:
        return _sweep_round(w, sim_seed, w.workers if workers is None
                            else workers)
    from opposim.engine import Simulation
    sim = Simulation(scenario_config(w), sim_seed)
    c0 = _cpu()
    with HostClock() as clock:
        report = sim.run()
    return RoundResult(clock.seconds, _cpu() - c0 - clock.burst_cpu_s,
                       [dataclasses.asdict(report)], {},
                       wall_s=clock.wall_s, steal_s=clock.steal_s)


def _sweep_round(w: Workload, sim_seed: int, workers: int) -> RoundResult:
    from opposim import cli
    OUT.mkdir(parents=True, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    argv = ["sweep", "--scenario", w.scenario, "--router", w.router,
            "--param", "copies",
            "--values", ",".join(str(v) for v in w.copies_values),
            "--runs", "1", "--base-seed", str(sim_seed),
            "--workers", str(workers), "--out", out]
    if w.nodes is not None:
        argv += ["--nodes", str(w.nodes)]
    if w.duration is not None:
        argv += ["--duration", repr(w.duration)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            c0 = _cpu()
            with HostClock() as clock:
                code = cli.main(argv)
            cpu_s = _cpu() - c0 - clock.burst_cpu_s
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        return RoundResult(clock.seconds, cpu_s, [], files,
                           failed=w.runs_per_round, wall_s=clock.wall_s,
                           steal_s=clock.steal_s)
    reports = []
    for v in w.copies_values:
        rows = list(csv.DictReader(io.StringIO(
            files[f"copies_{v}_runs.csv"].decode("utf-8"))))
        if len(rows) != 1:
            raise RuntimeError(f"copies={v}: expected one run row, "
                               f"got {len(rows)}")
        reports.append(_parse_row(rows[0]))
    return RoundResult(clock.seconds, cpu_s, reports, files,
                       wall_s=clock.wall_s, steal_s=clock.steal_s)


_INT_FIELDS = ("seed", "generated", "delivered", "relayed", "aborted",
               "ttl_dropped", "buffer_evicted", "still_buffered",
               "evicted_copies", "expired_copies")


def _parse_row(row: Dict[str, str]) -> Dict:
    rep: Dict = {}
    for key, text in row.items():
        if key in _INT_FIELDS:
            rep[key] = int(text)
        else:
            rep[key] = float(text) if text != "" else None
    return rep


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def generated_band(traffic, duration: float) -> Tuple[int, int]:
    """Bounds on the message count from the creation window and interval
    range alone: creation k happens at window start plus k intervals, each
    in [lo, hi], and only creations before the run ends are realised."""
    lo, hi = traffic.interval_range
    span = min(traffic.window[1], duration) - traffic.window[0]
    return max(0, math.ceil(span / hi) - 1), math.floor(span / lo)


def check_report(rep: Dict, config, copies: Optional[int]) -> List[str]:
    """Failures of one simulation's report against accounting identities
    and bounds the method must satisfy; empty when it passes. ``copies`` is
    the spray budget, None for a router that does not spray."""
    errs = []
    g, d = rep["generated"], rep["delivered"]
    closed = d + rep["ttl_dropped"] + rep["buffer_evicted"] + rep["still_buffered"]
    if closed != g:
        errs.append(f"accounting: generated={g} but delivered + ttl_dropped "
                    f"+ buffer_evicted + still_buffered = {closed}")
    lo, hi = generated_band(config.traffic, config.duration)
    if not lo <= g <= hi:
        errs.append(f"generated={g} outside the creation band [{lo}, {hi}]")
    if d > g:
        errs.append(f"delivered={d} > generated={g}")
    if rep["relayed"] < d:
        errs.append(f"relayed={rep['relayed']} < delivered={d}")
    lat, ttl = rep["avg_latency"], config.traffic.ttl
    if lat is None or not 0 < lat <= ttl:
        errs.append(f"avg_latency={lat} not in (0, ttl={ttl:g}]")
    # each message makes at most copies - 1 spray hand-offs plus a delivery
    if copies is not None and rep["relayed"] > g * copies:
        errs.append(f"relayed={rep['relayed']} > generated x copies = "
                    f"{g * copies}")
    return errs


def check_round(w: Workload, result: RoundResult) -> List[str]:
    if result.failed:
        return []          # counted as failed operations, not as wrong output
    configs = value_configs(w)
    spray = w.router in ("snw", "hrson")
    errs: List[str] = []
    if len(result.reports) != len(configs):
        return [f"expected {len(configs)} reports, got {len(result.reports)}"]
    for (value, config), rep in zip(configs, result.reports):
        prefix = f"copies={value}: " if value is not None else ""
        copies = None
        if spray:
            copies = value if value is not None else config.traffic.copy_limit
        errs += [prefix + e for e in check_report(rep, config, copies)]
        if w.expect_evictions and rep["evicted_copies"] <= 0:
            errs.append(prefix + "evicted_copies=0: no buffer pressure")
    if w.copies_values:
        generated = {rep["generated"] for rep in result.reports}
        if len(generated) != 1:
            errs.append(f"generated differs across copies values: "
                        f"{sorted(generated)}")
    return errs
