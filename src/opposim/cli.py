"""Command-line front end: validate scenarios, launch runs, batches and
parameter sweeps, write CSV reports.

    opposim run      --scenario desk --seed 1 --out results/
    opposim batch    --scenario desk --runs 32 --out results/
    opposim sweep    --scenario scenario2 --param copies --values 4,8,12,16,20 \
                     --runs 8 --out results/
    opposim validate --scenario my_experiment.ini

The --scenario argument takes a file path or a packaged preset name
(desk, scenario1..scenario4). Any scenario key can be overridden with
repeated --set section.key=value flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .batch import run_batch, sweep
from .map_graph import MapError
from .metrics import (aggregate, render_sweep_csv, write_reports)
from .mobility import MobilityError
from .scenario import (PRESET_NAMES, SWEEP_PARAMETERS, ConfigError,
                       load_scenario, sweep_parameter)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   help=f"scenario file path or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a scenario key")
    p.add_argument("--nodes", type=int, default=None,
                   help="rescale group sizes to this node count")
    p.add_argument("--duration", type=float, default=None,
                   help="override run duration in seconds")
    p.add_argument("--router", default=None,
                   help="override the routing policy (epidemic, snw, hrson)")


def _add_seeds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", default=None,
                   help="comma-separated explicit seed list")
    p.add_argument("--runs", type=int, default=1,
                   help="number of seeds, starting at --base-seed")
    p.add_argument("--base-seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes (default: CPU count)")


def _parse_list(text: str, parse, error: str) -> List:
    """Each comma-separated token parsed; `error` formats a bad token."""
    values = []
    for tok in [t.strip() for t in text.split(",") if t.strip()]:
        try:
            values.append(parse(tok))
        except ValueError:
            raise ConfigError(error.format(tok)) from None
    return values


def _seed_list(args) -> List[int]:
    if args.seeds:
        return _parse_list(args.seeds, int, "bad seed {!r} in --seeds")
    return list(range(args.base_seed, args.base_seed + args.runs))


def _parse_sweep_values(param: str, text: str) -> List:
    parameter = sweep_parameter(param)
    return _parse_list(text, parameter.parse, f"bad {param} value {{!r}}: "
                       f"expected {parameter.form}")


def _print_summary(label: str, reports) -> None:
    agg = aggregate(reports)
    def show(name):
        mean, _ = agg[name]
        return "n/a" if mean is None else f"{mean:.4g}"
    print(f"{label}: runs={len(reports)} generated={show('generated')} "
          f"delivered={show('delivered')} delivery_rate={show('delivery_rate')} "
          f"avg_latency_s={show('avg_latency')} overhead={show('overhead_ratio')} "
          f"avg_buffer_time_s={show('avg_buffer_time')}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opposim",
        description="Opportunistic-network simulator: working-day mobility, "
                    "infrastructure-mode WiFi and store-carry-forward routing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single seeded run")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", default=None, help="directory for CSV output")

    p_batch = sub.add_parser("batch", help="independent runs over a seed list")
    _add_common(p_batch)
    _add_seeds(p_batch)
    p_batch.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="vary one parameter over a batch")
    _add_common(p_sweep)
    _add_seeds(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         choices=list(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", required=True, help="  ".join(
        p.example for p in SWEEP_PARAMETERS.values()))
    p_sweep.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a scenario without running")
    _add_common(p_val)

    args = parser.parse_args(argv)
    try:
        config = load_scenario(args.scenario, args.overrides,
                               nodes=args.nodes, duration=args.duration,
                               router=args.router)
        if args.command == "validate":
            print(f"scenario OK: {config.node_count} nodes, "
                  f"{config.duration:g} s, router={config.routing.router}")
            return 0
        if args.command == "run":
            # through run_batch, so that an error names the seed
            report = run_batch(config, [args.seed], workers=1)[0]
            _print_summary(f"run seed={args.seed}", [report])
            if args.out:
                write_reports([report], args.out)
            return 0
        if args.command == "batch":
            reports = run_batch(config, _seed_list(args),
                                workers=args.workers)
            _print_summary("batch", reports)
            if args.out:
                write_reports(reports, args.out)
            return 0
        if args.command == "sweep":
            values = _parse_sweep_values(args.param, args.values)
            rows = sweep(config, args.param, values, _seed_list(args),
                         workers=args.workers)
            label_of = sweep_parameter(args.param).label
            labeled = [(label_of(v), reports) for v, reports in rows]
            for label, reports in labeled:
                _print_summary(f"{args.param}={label}", reports)
            if args.out:
                for label, reports in labeled:
                    write_reports(reports, args.out,
                                  prefix=f"{args.param}_{label}_")
                import os
                path = os.path.join(args.out, f"sweep_{args.param}.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(render_sweep_csv(args.param, labeled))
            return 0
    except (ConfigError, MobilityError, MapError, OSError) as exc:
        # bad settings, a map or population they cannot build, and
        # unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
