"""Set-up probe: a fresh process that imports the simulator, loads a
workload's scenario and builds the world of its first simulation, then
writes ``ready <factor>`` to stdout and exits. ``run.py`` times it from
spawn to that line and rescales the time by ``factor``, the ratio of
rescaled to plain host time over the probe's own work (see hostclock.py).

    python3 perfbench/probe.py <workload> <simulation seed>
"""

import sys

from hostclock import HostClock


def main() -> int:
    name, sim_seed = sys.argv[1], int(sys.argv[2])
    with HostClock() as clock:
        import workloads
        workloads.import_program()
        import opposim.cli  # noqa: F401  (the import a user's command pays)
        workloads.build_first(workloads.WORKLOADS[name], sim_seed)
    sys.stdout.write(f"ready {clock.seconds / clock.wall_s!r}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
