"""Infrastructure-mode WiFi connectivity machine.

Every node is an access point, a client of one access point, or in the
scan/rest cycle looking for one. Data moves only across an established
AP-client link. Role changes cost real time (scan, become-AP,
connect), which is where the network build/rebuild delays come from:

    initiate   = t_scan + t_ap + t_scan + t_connect   (no AP anywhere)
    reinitiate = t_scan + t_connect                   (another AP in range)

All access points share one channel. An AP's link rate divides by the
access points in its range, the AP itself included, and by the AP's
concurrently active transfers.

The phases are bound to module names as well, in definition order
(`SCANNING, RESTING, ..., CLIENT = Phase`), and the hot paths here and in
the engine read those: a module name costs a global lookup, where
`Phase.AP` is an enum class-attribute lookup about ten times dearer.
`Phase.AP` and `AP` are the same object, so `is` tests mix freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence


@dataclass(frozen=True)
class TimingParams:
    t_scan: float = 5.0      # scanning for nearby access points
    t_rest: float = 1.0      # pause between scans
    t_ap: float = 1.0        # assume the AP role
    t_connect: float = 5.0   # attach to an AP as client

    def validate(self) -> None:
        if min(self.t_scan, self.t_rest, self.t_ap, self.t_connect) < 0:
            raise ValueError("timing parameters must be nonnegative")
        if self.t_scan + self.t_rest == 0:
            # a node refused the AP role would scan and rest forever
            # without the clock moving
            raise ValueError("scan_time and rest_time cannot both be zero")


@dataclass(frozen=True)
class LinkModel:
    base_speed: float = 5_000_000.0   # bytes/s
    range: float = 20.0               # meters

    def validate(self) -> None:
        if self.base_speed <= 0 or self.range <= 0:
            raise ValueError("bad link model")


def net_initiate_time(t: TimingParams) -> float:
    """Delay until first possible data flow when no AP exists anywhere."""
    return t.t_scan + t.t_ap + t.t_scan + t.t_connect


def net_reinitiate_time(t: TimingParams, ap_available: bool) -> float:
    """Rebuild delay after a network falls apart."""
    if ap_available:
        return t.t_scan + t.t_connect
    return net_initiate_time(t)


class Phase(Enum):
    SCANNING = 1
    RESTING = 2
    BECOMING_AP = 3
    CONNECTING = 4
    AP = 5
    CLIENT = 6


SCANNING, RESTING, BECOMING_AP, CONNECTING, AP, CLIENT = Phase


class RadioState:
    """Per-node radio state: phase plus transition timers."""

    __slots__ = ("phase", "timer_expiry", "attached_ap", "clients",
                 "ap_since", "last_client_change", "connect_target")

    def __init__(self):
        self.phase = RESTING     # its first phase event starts a scan
        self.timer_expiry = 0.0
        self.attached_ap: Optional[int] = None
        self.clients: Dict[int, None] = {}
        self.ap_since = 0.0
        self.last_client_change = 0.0
        self.connect_target: Optional[int] = None

    def reset_to_scan(self, now: float, timing: TimingParams) -> None:
        self.phase = SCANNING
        self.timer_expiry = now + timing.t_scan
        self.attached_ap = None
        self.clients = {}
        self.connect_target = None


@dataclass(frozen=True)
class VisibleAp:
    node_id: int
    estimated_bandwidth: float


def joiner_bandwidth_estimate(link: LinkModel, co_channel_count: int,
                              current_clients: int) -> float:
    """What a prospective client can expect from an AP: the base speed cut
    by co-channel interferers, split as if every client (plus the joiner)
    ran one transfer."""
    return link.base_speed / max(1, co_channel_count) / (current_clients + 1)


def step_radio(state: RadioState, permits_ap: bool,
               visible: Sequence[VisibleAp], now: float,
               timing: TimingParams) -> None:
    """Advance an unconnected node whose phase timer has expired.

    A rest ends in a scan. Scan results in hand (`visible`, fastest
    first): connect to the fastest AP, else claim the AP role if the
    routing policy permits it here, else rest and rescan. A node finishing
    its become-AP transition defers to an AP that appeared in the
    meantime, so co-located nodes don't all end up as client-less APs.
    """
    phase = state.phase
    if phase is RESTING:
        state.phase = SCANNING
        state.timer_expiry = now + timing.t_scan
        return
    if phase is not SCANNING and phase is not BECOMING_AP:
        raise ValueError(f"step_radio called in phase {phase}")
    if visible:
        state.phase = CONNECTING
        state.connect_target = visible[0].node_id
        state.timer_expiry = now + timing.t_connect
    elif phase is BECOMING_AP:
        state.phase = AP
        state.ap_since = now
        state.last_client_change = now
    elif permits_ap:
        state.phase = BECOMING_AP
        state.timer_expiry = now + timing.t_ap
    else:
        state.phase = RESTING
        state.timer_expiry = now + timing.t_rest


def should_switch_ap(current_estimate: float, candidate_estimate: float,
                     ratio: float = 1.25) -> bool:
    """Hysteresis rule for a connected client eyeing a faster AP."""
    return candidate_estimate >= ratio * current_estimate


def ap_due_retirement(state: RadioState, now: float,
                      idle_timeout: float = 60.0,
                      max_duration: float = 600.0) -> bool:
    """An AP steps down after idling without clients or serving too long.

    Each deadline is compared as the sum the engine pushes its apcheck
    for: `now - ap_since` can round below the term that `ap_since +
    max_duration` reached (1217.1 - 617.1 is 599.9999999999999)."""
    if state.phase is not AP:
        return False
    if not state.clients and now >= state.last_client_change + idle_timeout:
        return True
    return now >= state.ap_since + max_duration


def assign_channel(nearby_channels: Iterable[int], num_channels: int = 5) -> int:
    """Least-loaded channel among nearby APs; ties take the lowest number.

    The model has one shared channel and no AP state reads this answer.
    The engine still calls it once per AP role it steps, so that a traced
    run counts those roles as `radio.assign_channel.calls`."""
    loads = {ch: 0 for ch in range(1, num_channels + 1)}
    for ch in nearby_channels:
        if ch in loads:
            loads[ch] += 1
    return min(loads, key=lambda ch: (loads[ch], ch))


def effective_bandwidth(link: LinkModel, co_channel_count: int,
                        active_transfers: int) -> float:
    """Per-transfer rate at an AP: base speed over co-channel APs in range
    (including the AP itself), split equally among its active transfers."""
    return link.base_speed / max(1, co_channel_count) / max(1, active_transfers)


# What a client expects from its own AP: the rate of one of as many
# transfers as the AP has clients. One formula under two names, because
# perfbench/tracing.py counts the calls to each name apart.
member_bandwidth_estimate = effective_bandwidth
