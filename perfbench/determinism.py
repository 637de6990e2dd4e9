"""Determinism check, separate from the timed runs.

    python3 perfbench/determinism.py [--seed N] [--workload NAME ...]

Runs round 0 of each workload's seed twice and requires identical reports
(and, for the sweep, byte-identical CSVs); then runs ``copies-sweep`` with
``--workers 1`` and ``--workers 2`` and requires byte-identical CSVs.
Exits non-zero on the first difference.
"""

from __future__ import annotations

import argparse
import sys

import workloads


def _diff(a: workloads.RoundResult, b: workloads.RoundResult) -> str:
    if a.failed or b.failed:
        return "a round failed"
    if a.reports != b.reports:
        return f"reports differ:\n  {a.reports}\n  {b.reports}"
    if a.files != b.files:
        names = sorted(n for n in set(a.files) | set(b.files)
                       if a.files.get(n) != b.files.get(n))
        return f"CSV bytes differ in {', '.join(names)}"
    return ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    workloads.import_program()
    sim_seed = workloads.round_seed(args.seed, 0)
    bad = 0
    for name in args.workload or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        checks = [("same seed twice", {}, {})]
        if w.copies_values:
            checks.append(("--workers 1 vs 2", {"workers": 1},
                           {"workers": 2}))
        for label, ka, kb in checks:
            diff = _diff(workloads.run_round(w, sim_seed, **ka),
                         workloads.run_round(w, sim_seed, **kb))
            print(f"{name} seed {sim_seed} {label}: "
                  f"{'DIFFERENT: ' + diff if diff else 'identical'}")
            bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
