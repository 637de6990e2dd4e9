"""Random application traffic: message descriptors and the creation process.

One network-wide renewal process creates messages at uniform random
intervals inside a configurable generation window. Each message gets a
uniform random source/destination pair, a uniform random size and a fixed
copy budget for spray-style routers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


class TrafficError(ValueError):
    pass


@dataclass(frozen=True)
class TrafficConfig:
    interval_range: Tuple[float, float] = (25.0, 50.0)   # seconds between creations
    size_range: Tuple[int, int] = (500_000, 1_500_000)   # bytes
    ttl: float = 86400.0                                 # seconds
    window: Tuple[float, float] = (0.0, 86400.0)         # creation window, sim seconds
    copy_limit: int = 10                                 # tokens per new message

    def validate(self) -> None:
        lo, hi = self.interval_range
        if not (0 < lo <= hi):
            raise TrafficError(f"bad interval range {self.interval_range}")
        slo, shi = self.size_range
        if not (0 < slo <= shi):
            raise TrafficError(f"bad size range {self.size_range}")
        if self.ttl <= 0:
            raise TrafficError("ttl must be positive")
        if self.copy_limit < 1:
            raise TrafficError("copy limit must be >= 1")
        if self.window[1] < self.window[0]:
            raise TrafficError(f"bad generation window {self.window}")


@dataclass(frozen=True, slots=True)
class Message:
    """A message as its creation drew it; a run never changes it."""
    msg_id: int
    source: int
    destination: int
    size: int                 # bytes
    created_at: float
    ttl: float
    copy_limit: int           # initial token budget (spray routers)

    @property
    def expires_at(self) -> float:
        return self.created_at + self.ttl

    def expired(self, now: float) -> bool:
        return now - self.created_at > self.ttl


def next_creation(config: TrafficConfig, last_time: float, rng) -> Optional[float]:
    """Time of the creation after last_time, or None past the window end."""
    t = last_time + rng.uniform(*config.interval_range)
    if t > config.window[1]:
        return None
    return t


def make_message(config: TrafficConfig, msg_id: int, now: float,
                 node_ids: Sequence[int], rng) -> Message:
    """Draw a message with distinct uniform source and destination."""
    if len(node_ids) < 2:
        raise TrafficError("need at least 2 nodes for traffic")
    si = int(rng.integers(len(node_ids)))
    di = int(rng.integers(len(node_ids) - 1))
    if di >= si:
        di += 1
    lo, hi = config.size_range
    size = int(rng.integers(lo, hi + 1))
    return Message(msg_id, node_ids[si], node_ids[di], size, now,
                   config.ttl, config.copy_limit)


def expected_count(config: TrafficConfig) -> float:
    """Expected number of creations: window length over mean interval."""
    lo, hi = config.interval_range
    start, end = config.window
    return (end - start) / ((lo + hi) / 2.0)
