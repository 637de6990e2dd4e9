"""Host time rescaled to a fixed host speed.

On a shared host the speed of one core swings by up to 2x within
fractions of a second, as neighbours come and go; process CPU time
slows just as much as wall time. A block timed with ``HostClock`` is
interrupted every ``PERIOD`` seconds by SIGALRM. The handler times a fixed
burst of pure-Python work (``calibrate``) in thread CPU time, which is the
host's speed at that moment. Each stretch of the block between two bursts
is then rescaled by ``REF_BURST_S`` over the burst time measured around it
(the median of the ``WINDOW`` bursts on each side, so that one interrupted
burst does not count). The host may also stop the VM's cores for a while
(steal time, which thread CPU time does not count): the steal that
``/proc/stat`` reports, between two bursts, for the core the block was
running on at the first of them is taken off the stretch first.
The sum is the block's time at the reference speed: what it would have
taken had the host run at full speed throughout, without stopping it.

    with HostClock() as clock:
        work()
    clock.seconds      # rescaled seconds, the bursts excluded
    clock.wall_s       # plain wall seconds, the bursts excluded

The bursts take 2-4% of the block and are excluded from both figures.
Signal handlers run in the main thread only, so the block must run there.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from typing import List, Tuple

PERIOD = 0.025            # seconds between bursts
WINDOW = 2                # bursts on each side whose median rescales a stretch
# Thread CPU time of one burst when the host runs at full speed: the fast
# mode of the 2-core VM the reference figures come from (Python 3.11),
# where bursts took 0.55-0.64 ms at full speed and about 0.94 ms typically.
REF_BURST_S = 0.0006
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")    # unit of the /proc/stat counters

# start, wall duration, CPU duration, core it ran on, steal of every core
Burst = Tuple[float, float, float, int, Tuple[float, ...]]


def current_core() -> int:
    """The core the calling thread is running on."""
    with open("/proc/thread-self/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[36])


def steal_s() -> Tuple[float, ...]:
    """Steal time of each of the VM's cores since boot, in seconds."""
    with open("/proc/stat", "rb") as fh:
        lines = fh.read().split(b"\n")
    return tuple(int(line.split()[8]) * TICK_S for line in lines
                 if line.startswith(b"cpu") and line[3:4].isdigit())


def calibrate() -> float:
    """Fixed work in the simulator's idiom: heap, dict and float steps."""
    heap: List[Tuple[int, int]] = []
    table = {}
    acc = 0.0
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += (i * 1.5) ** 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def rescale(t0: float, t1: float, bursts: List[Burst],
            ref: float = REF_BURST_S, window: int = WINDOW
            ) -> Tuple[float, float]:
    """(rescaled seconds, plain seconds) of the block [t0, t1], bursts
    excluded. ``bursts`` holds a ``Burst`` for every burst, in time order,
    with exactly one before ``t0`` and at least one after ``t1``."""
    cpu = [b[2] for b in bursts]
    speed = [statistics.median(cpu[max(0, i - window):i + window + 1])
             for i in range(len(cpu))]
    inside = [i for i, b in enumerate(bursts) if t0 <= b[0] < t1]
    # a stretch runs from the end of burst i (or t0) to the next start;
    # the steal counted between the two bursts is taken off it
    starts = [(t0, 0)]
    starts += [(bursts[i][0] + bursts[i][1], i) for i in inside]
    ends = [bursts[i][0] for i in inside] + [t1]
    scaled = plain = 0.0
    for (start, i), end in zip(starts, ends):
        span = max(0.0, end - start)
        core = bursts[i][3]
        stolen = bursts[i + 1][4][core] - bursts[i][4][core]
        plain += span
        scaled += max(0.0, span - stolen) * ref / speed[i]
    return scaled, plain


class HostClock:
    def __init__(self, period: float = PERIOD):
        self.period = period
        self.bursts: List[Burst] = []
        self._busy = False
        self._old = None
        self.t0 = self.t1 = 0.0

    def _burst(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        core, stolen = current_core(), steal_s()
        w0, c0 = time.perf_counter(), time.thread_time()
        calibrate()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.bursts.append((w0, w1 - w0, c1 - c0, core, stolen))
        self._busy = False

    def __enter__(self) -> "HostClock":
        self._burst()
        self._old = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._burst()        # a signal still pending runs the handler here
        signal.signal(signal.SIGALRM, self._old)

    @property
    def seconds(self) -> float:
        return rescale(self.t0, self.t1, self.bursts)[0]

    @property
    def wall_s(self) -> float:
        return rescale(self.t0, self.t1, self.bursts)[1]

    @property
    def steal_s(self) -> float:
        """Steal time taken off the block's stretches."""
        return sum(b[4][a[3]] - a[4][a[3]]
                   for a, b in zip(self.bursts, self.bursts[1:]))

    @property
    def burst_cpu_s(self) -> float:
        """CPU time the bursts inside the block took."""
        return sum(b[2] for b in self.bursts if self.t0 <= b[0] < self.t1)
