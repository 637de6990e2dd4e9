#!/usr/bin/env python3
"""Experiment layer walkthrough: seeded batches, a parameter sweep and the
CSV reports they produce. Mirrors what the CLI does:

    opposim sweep --scenario desk --router snw --param copies \
        --values 4,12,20 --runs 3 --out results/
"""

import dataclasses
import tempfile
from pathlib import Path

from opposim.batch import run_batch, sweep
from opposim.metrics import aggregate, render_sweep_csv, write_reports
from opposim.scenario import load_scenario

config = load_scenario("desk", router="snw")
config = dataclasses.replace(config, duration=4 * 3600.0)
seeds = [1, 2, 3]

reports = run_batch(config, seeds)
agg = aggregate(reports)
print(f"batch of {len(seeds)} seeds (4 h horizon):")
print(f"   delivery rate mean {agg['delivery_rate'][0]:.3f} "
      f"(std {agg['delivery_rate'][1]:.3f})")
print(f"   generated mean     {agg['generated'][0]:.1f}")

rows = sweep(config, "copies", [4, 12, 20], seeds)
print("\ncopy-limit sweep (delivery rate means):")
for value, reps in rows:
    mean = aggregate(reps)["delivery_rate"][0]
    print(f"   L={value:2d}: {mean:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    runs_path, agg_path = write_reports(reports, tmp)
    table = Path(tmp, "sweep_copies.csv")
    table.write_text(render_sweep_csv(
        "copies", [(str(v), reps) for v, reps in rows]), encoding="utf-8")
    print(f"\nper-run CSV columns: {Path(runs_path).read_text().splitlines()[0]}")
    print(f"sweep table row for L=4: {table.read_text().splitlines()[1][:72]}...")
print("\nsame seeds -> byte-identical CSVs, sequential or parallel.")
