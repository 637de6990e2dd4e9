"""Seeded batches and parameter sweeps, run in one process pool.

A batch runs one config under many seeds. A sweep runs one batch per
value of a sweep parameter (`scenario.SWEEP_PARAMETERS`). Parallelism
never changes a report: each is a pure function of (config, seed).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from .engine import Simulation, shares_world
from .metrics import MetricsReport
from .scenario import ConfigError, ScenarioConfig, apply_sweep_value


def _checked_seeds(seeds: Sequence[int]) -> List[int]:
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seed {min(seeds)}: seeds must be non-negative")
    return seeds


def _run_planes(task) -> List[MetricsReport]:
    """Reports of configs that differ only in traffic, run as routing
    planes on one world. An error keeps its type, and its message starts
    with the task's label: the seed and any swept values."""
    configs, seed, token_audit, label = task
    try:
        sim = Simulation(configs[0], seed, token_audit=token_audit)
        for config in configs[1:]:
            sim.add_plane(config)
        sim.run()
    except Exception as exc:
        exc.args = (f"{label}: {exc}",)
        raise
    return [plane.report for plane in sim.planes]


def _run_tasks(tasks: Sequence, workers: Optional[int]
               ) -> List[List[MetricsReport]]:
    """_run_planes over every task: in one process pool, or in the caller
    for a single task or a single worker."""
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    if workers <= 1 or len(tasks) == 1:
        return [_run_planes(task) for task in tasks]
    import multiprocessing as mp
    ctx = mp.get_context("spawn" if os.name == "nt" else "fork")
    with ctx.Pool(min(workers, len(tasks))) as pool:
        return pool.map(_run_planes, tasks, chunksize=1)


def run_batch(config: ScenarioConfig, seeds: Sequence[int],
              workers: Optional[int] = None,
              token_audit: bool = False) -> List[MetricsReport]:
    """Independent runs for every seed; parallelism never changes results."""
    seeds = _checked_seeds(seeds)
    config.validate()
    tasks = [([config], s, token_audit, f"seed {s}") for s in seeds]
    return [reports[0] for reports in _run_tasks(tasks, workers)]


def sweep(config: ScenarioConfig, parameter: str, values: Sequence,
          seeds: Sequence[int], workers: Optional[int] = None,
          token_audit: bool = False,
          ) -> List[Tuple[object, List[MetricsReport]]]:
    """One batch per swept value, all other parameters fixed.

    Values whose configs differ only in traffic share one world per seed,
    each as a routing plane of it (see Simulation); a `homes` value is a
    world of its own. Every (world, seed) pair is one task, and all tasks
    share one pool. Reports equal independent runs of each value."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    seeds = _checked_seeds(seeds)
    derived = [apply_sweep_value(config, parameter, v) for v in values]
    groups: List[List[int]] = []      # indices of values sharing a world
    for i, cfg in enumerate(derived):
        for group in groups:
            if shares_world(cfg, derived[group[0]]):
                group.append(i)
                break
        else:
            groups.append([i])
    tasks = [([derived[i] for i in group], seed, token_audit,
              f"seed {seed}, {parameter}={[values[i] for i in group]}")
             for group in groups for seed in seeds]
    results = iter(_run_tasks(tasks, workers))
    by_value: List[List[MetricsReport]] = [[] for _ in values]
    for group in groups:
        for _ in seeds:
            for i, report in zip(group, next(results)):
                by_value[i].append(report)
    return list(zip(values, by_value))
