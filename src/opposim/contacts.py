"""Scripted contact-trace driver for the routing layer.

Runs a router policy over an explicit schedule of pairwise contacts
(start, end, bandwidth) instead of the full mobility/radio stack. Useful
for studying routing behavior against known reachability structure: a
message can only travel along time-respecting contact chains with enough
per-contact capacity.

The trace runs on the engine itself, as a routing plane with no world:
each open contact is one of the plane's links, and offers, queueing,
custody hand-off, aborts, re-offers on a sender's other links and TTL
expiry are the engine's own. Only the pipe differs: a transfer runs at
its contact's bandwidth, and a copy that cannot finish before the
contact ends is not sent on it. Transfers are serial within a
contact; a contact closing mid-transfer discards the partial bytes.
Overlapping contacts of one pair share a link at the first contact's
bandwidth until the last of them ends. TTL expiry is applied at each
schedule event, and a send that ends after its message's TTL hands
nothing over. Control summaries are free, as in the full engine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .engine import Link, Plane, Transfer
from .routing import RouterPolicy
from .scenario import RoutingConfig, ScenarioConfig
from .traffic import Message


@dataclass(frozen=True)
class Contact:
    start: float
    end: float
    a: int
    b: int
    bandwidth: float = 5_000_000.0


@dataclass
class ContactTraceResult:
    delivered_at: Dict[int, float] = field(default_factory=dict)
    completed: int = 0
    aborted: int = 0
    transfers: List[Tuple[int, int, int, float]] = field(default_factory=list)

    def delivered_ids(self) -> Set[int]:
        return set(self.delivered_at)


_OPEN, _CREATE, _CLOSE = 0, 1, 2     # their order at equal times


class _TracePlane(Plane):
    """A routing plane with no world: links open and close on the
    schedule, and each runs as its own pipe."""

    def __init__(self, n_nodes: int, policy: RouterPolicy,
                 buffer_capacity: int):
        config = ScenarioConfig(routing=RoutingConfig(
            buffer_capacity=buffer_capacity, summary_refresh=0.0))
        super().__init__(config, 0, n_nodes, policy=policy)
        # (ap, client) of an open link -> [bandwidth, end, open contacts]
        self.pipes: Dict[Tuple[int, int], List] = {}
        self.transfers: List[Tuple[int, int, int, float]] = []

    def _settle_ap(self, ap: int, now: float) -> None:
        for tr in self.ap_active.get(ap, ()):
            if tr.rate == 0.0:    # just started; its rate never changes
                tr.rate = self.pipes[tr.link.ap, tr.link.client][0]
                self._seq += 1
                heapq.heappush(self.transfer_events,
                               (now + tr.remaining / tr.rate, self._seq, tr,
                                tr.epoch))

    def _start_next(self, link: Link, t: float) -> None:
        if link.open and link.active is None:
            # a copy that cannot finish before the contact ends never will,
            # as time only grows
            bandwidth, end, _ = self.pipes[link.ap, link.client]
            fits = [item for item in link.queue
                    if t + self.messages[item[2]].size / bandwidth
                    <= end + 1e-9]
            if len(fits) < len(link.queue):
                heapq.heapify(fits)
                link.queue = fits
                link.queued = {(src, mid) for _, src, mid in fits}
        super()._start_next(link, t)

    def _complete_transfer(self, tr: Transfer, now: float) -> None:
        self.transfers.append((tr.msg.msg_id, tr.src, tr.dst, now))
        super()._complete_transfer(tr, now)


def run_contact_trace(n_nodes: int, contacts: Sequence[Contact],
                      messages: Sequence[Message], policy: RouterPolicy,
                      buffer_capacity: int = 10 ** 12) -> ContactTraceResult:
    """Drive a router over a contact schedule; returns delivery outcomes."""
    plane = _TracePlane(n_nodes, policy, buffer_capacity)
    events: List[Tuple[float, int, int, object]] = []
    for c in sorted(contacts, key=lambda c: (c.start, c.end, c.a, c.b)):
        if c.end > c.start:
            events.append((c.start, _OPEN, len(events), c))
            events.append((c.end, _CLOSE, len(events), c))
    for m in sorted(messages, key=lambda m: (m.created_at, m.msg_id)):
        events.append((m.created_at, _CREATE, len(events), m))
    events.sort()

    for now, kind, _, item in events:
        # transfers ending at `now` come after opens and creations
        plane._transfer_step(now, now if kind == _CLOSE
                             else math.nextafter(now, -math.inf))
        plane._expire_messages(now)
        if kind == _CREATE:
            plane._inject(item, now)
            continue
        link = plane.links[item.a].get(item.b)
        if link is None:                # the pair's first open contact
            plane.pipes[item.a, item.b] = [item.bandwidth, item.end, 1]
            plane._establish_link(item.a, item.b, now)
            continue
        pipe = plane.pipes[link.ap, link.client]
        if kind == _OPEN:
            pipe[1] = max(pipe[1], item.end)
            pipe[2] += 1
            plane._select_into(link, now)
            plane._start_next(link, now)
        else:
            pipe[2] -= 1
            if pipe[2] == 0:
                plane._close_link(link, now)
                del plane.pipes[link.ap, link.client]
    col = plane.collector
    return ContactTraceResult(dict(col.delivered_at), col.relayed,
                              col.aborted, plane.transfers)
