"""Simulator benchmark: host time, set-up time and memory per workload.

    python3 perfbench/run.py --workload commute-hrson --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/``. With ``--trace 0`` the run times untraced rounds and reports the
end-to-end metrics; with ``--trace 1`` it alternates an untraced and a
traced round on the same inputs and reports the per-layer metrics. Every
round's outputs are checked (see ``workloads.check_round``). Host times
are rescaled to a fixed host speed (see ``hostclock.py``). The last line
of standard output is one JSON object; details and the trace go to
``perfbench/out/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import List

import tracing
import workloads

# Set-up probes run between rounds, so that their median spans the run
# as the rounds do; host speed here drifts over seconds to minutes.
PROBES_PER_ROUND = 2
MIN_PROBES = 9
RSS_INTERVAL = 0.1        # seconds between memory samples of the process tree
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


# ---------------------------------------------------------------------------
# Set-up time and memory
# ---------------------------------------------------------------------------

def setup_samples(w: workloads.Workload, sim_seed: int,
                  count: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to its first simulation
    being built, once per probe, rescaled to the reference host speed by
    the factor the probe measured over its own work."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, w.name, str(sim_seed)],
                              stdout=subprocess.PIPE,
                              cwd=str(workloads.ROOT)) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        word, _, factor = line.decode("ascii", "replace").partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(elapsed * float(factor))
    return samples


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:          # the process ended between listing and reading
        pass
    return 0


def _children(pid: int) -> List[int]:
    """Processes started by any thread of ``pid``."""
    out: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                out += [int(c) for c in fh.read().split()]
    except OSError:          # the process or thread ended while listing
        pass
    return out


def _descendants(root: int) -> List[int]:
    out, todo = [], [root]
    while todo:
        for child in _children(todo.pop()):
            out.append(child)
            todo.append(child)
    return out


class TreePeakRss:
    """Peak resident memory of this process plus every process it started
    (pool workers included), summed over the tree and sampled from /proc
    while the block runs; never below this process's own kernel-kept peak."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()     # held while sampling or paused
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        with self._lock:
            me = os.getpid()
            total = _rss_kb(me) + sum(_rss_kb(p) for p in _descendants(me))
            self.peak_kb = max(self.peak_kb, total)

    def paused(self):
        """Block in which started processes (set-up probes) are not counted;
        they must have ended when it exits."""
        return self._lock

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss)

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self, w: workloads.Workload):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def round(self, sim_seed: int) -> workloads.RoundResult:
        w = self.w
        self.attempted += w.runs_per_round
        try:
            result = workloads.run_round(w, sim_seed)
        except Exception:
            traceback.print_exc()
            result = workloads.RoundResult(0.0, 0.0, [], {},
                                           failed=w.runs_per_round)
        self.failed += result.failed
        for err in workloads.check_round(w, result):
            self.errors.append(f"seed {sim_seed}: {err}")
            print(f"check failed: seed {sim_seed}: {err}", file=sys.stderr)
        return result


def _more(started: float, seconds: float, done: int) -> bool:
    """Start another round only if one more of the average length so far
    still ends inside the measured period."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def timed(w, seed: int, seconds: float, tally: Tally):
    rounds, setup = [], []
    seed0 = workloads.round_seed(seed, 0)
    started = time.perf_counter()
    with TreePeakRss() as rss:
        while True:
            rounds.append(tally.round(workloads.round_seed(seed, len(rounds))))
            with rss.paused():
                setup += setup_samples(w, seed0, PROBES_PER_ROUND)
            if not _more(started, seconds, len(rounds)):
                break
    setup += setup_samples(w, seed0, MIN_PROBES - len(setup))
    ok = [r for r in rounds if not r.failed]
    if not ok:
        raise SystemExit("error: every round failed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(r.run_s for r in ok), "s"),
        "peak_rss_mb": (rss.mb, "MB"),
    }
    detail = {"setup_samples_s": setup,
              "rounds": [{"run_s": r.run_s, "wall_s": r.wall_s,
                          "cpu_s": r.cpu_s, "steal_s": r.steal_s,
                          "reports": r.reports} for r in rounds]}
    return metrics, detail


def traced(w, seed: int, seconds: float, tally: Tally):
    plain, probed = [], []
    tracer = tracing.Tracer()
    started = time.perf_counter()
    while True:
        sim_seed = workloads.round_seed(seed, len(plain))
        plain.append(tally.round(sim_seed))
        with tracing.instrumented(tracer):
            probed.append(tally.round(sim_seed))
        if not _more(started, seconds, len(plain)):
            break
    pairs = [(a, b) for a, b in zip(plain, probed)
             if not a.failed and not b.failed]
    if not pairs:
        raise SystemExit("error: every round failed")
    reports = [rep for _, b in pairs for rep in b.reports]
    metrics = tracing.layer_metrics(tracer, len(probed), reports)
    metrics["engine.batch.worker_busy_ratio"] = (
        sum(a.cpu_s for a, _ in pairs)
        / (w.workers * sum(a.wall_s for a, _ in pairs)), "ratio")
    metrics["trace.overhead_ratio"] = (
        sum(b.run_s for _, b in pairs) / sum(a.run_s for a, _ in pairs),
        "ratio")
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(workloads.OUT / f"trace-{w.name}-seed{seed}.json"))
    detail = {"rounds": [{"untraced_run_s": a.run_s, "traced_run_s": b.run_s,
                          "untraced_wall_s": a.wall_s, "cpu_s": a.cpu_s,
                          "reports": b.reports}
                         for a, b in zip(plain, probed)]}
    return metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    workloads.import_program()
    w = workloads.WORKLOADS[args.workload]
    tally = Tally(w)
    run = traced if args.trace else timed
    metrics, detail = run(w, args.seed, args.seconds, tally)
    result = {"correct": not tally.errors, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    with open(workloads.OUT / f"result-{w.name}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, errors=tally.errors, **detail), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
