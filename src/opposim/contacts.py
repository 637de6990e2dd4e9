"""Scripted contact-trace driver for the routing layer.

Runs a router policy over an explicit schedule of pairwise contacts
(start, end, bandwidth) instead of the full mobility/radio stack. Useful
for studying routing behavior against known reachability structure: a
message can only travel along time-respecting contact chains with enough
per-contact capacity.

Transfers are serial within a contact; a contact closing mid-transfer
discards the partial bytes. Control summaries are free, as in the full
engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .routing import (Buffer, HasView, PeerSummary, RouterPolicy,
                      buffer_admit, spray_split)
from .traffic import Message


@dataclass(frozen=True)
class Contact:
    start: float
    end: float
    a: int
    b: int
    bandwidth: float = 5_000_000.0

    def peers(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass
class ContactTraceResult:
    delivered_at: Dict[int, float] = field(default_factory=dict)
    completed: int = 0
    aborted: int = 0
    transfers: List[Tuple[int, int, int, float]] = field(default_factory=list)

    def delivered_ids(self) -> Set[int]:
        return set(self.delivered_at)


class _LiveContact:
    __slots__ = ("contact", "queue", "queued", "active", "open")

    def __init__(self, contact: Contact):
        self.contact = contact
        self.queue: List[Tuple[Tuple, int, int]] = []
        self.queued: Set[Tuple[int, int]] = set()
        self.active = None   # (msg, src, dst, finish)
        self.open = False


def run_contact_trace(n_nodes: int, contacts: Sequence[Contact],
                      messages: Sequence[Message], policy: RouterPolicy,
                      buffer_capacity: int = 10 ** 12) -> ContactTraceResult:
    """Drive a router over a contact schedule; returns delivery outcomes."""
    buffers = [Buffer(buffer_capacity) for _ in range(n_nodes)]
    delivered: List[Set[int]] = [set() for _ in range(n_nodes)]
    result = ContactTraceResult()
    live: List[_LiveContact] = []
    by_node: Dict[int, List[int]] = {i: [] for i in range(n_nodes)}

    events: List[Tuple[float, int, int, str, object]] = []
    seq = 0

    def push(time: float, prio: int, kind: str, payload) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(events, (time, prio, seq, kind, payload))

    for c in sorted(contacts, key=lambda c: (c.start, c.end, c.a, c.b)):
        if c.end <= c.start:
            continue
        ci = len(live)
        live.append(_LiveContact(c))
        push(c.start, 0, "open", ci)
        push(c.end, 2, "close", ci)
    for m in sorted(messages, key=lambda m: (m.created_at, m.msg_id)):
        push(m.created_at, 1, "create", m)

    def summary(nid: int) -> PeerSummary:
        return PeerSummary(nid, HasView(buffers[nid], delivered[nid]))

    def enqueue(lc: _LiveContact, src: int) -> None:
        dst = lc.contact.a if src == lc.contact.b else lc.contact.b
        peer = summary(dst)
        for plan in policy.select_transfers(buffers[src], peer):
            if (src, plan.msg_id) not in lc.queued:
                heapq.heappush(lc.queue, (plan.sort_key(), src, plan.msg_id))
                lc.queued.add((src, plan.msg_id))

    def start_next(ci: int, now: float) -> None:
        lc = live[ci]
        if not lc.open or lc.active is not None:
            return
        while lc.queue:
            _, src, mid = heapq.heappop(lc.queue)
            lc.queued.discard((src, mid))
            entry = buffers[src].get(mid)
            if entry is None or entry.pinned:
                continue
            dst = lc.contact.a if src == lc.contact.b else lc.contact.b
            if not policy.eligible(entry, summary(dst)):
                continue
            finish = now + entry.message.size / lc.contact.bandwidth
            if finish > lc.contact.end + 1e-9:
                # not enough contact left; keep the entry out of the way
                continue
            entry.pinned = True
            lc.active = (entry.message, src, dst, finish)
            push(finish, 1, "done", ci)
            return

    def offer_everywhere(nid: int, now: float) -> None:
        for ci in list(by_node[nid]):
            if live[ci].open:
                enqueue(live[ci], nid)
                start_next(ci, now)

    while events:
        now, _, _, kind, payload = heapq.heappop(events)
        if kind == "open":
            ci = payload
            lc = live[ci]
            lc.open = True
            for nid in lc.contact.peers():
                by_node[nid].append(ci)
            enqueue(lc, lc.contact.a)
            enqueue(lc, lc.contact.b)
            start_next(ci, now)
        elif kind == "create":
            msg: Message = payload
            msg.custodians.add(msg.source)
            ok, _ = buffer_admit(buffers[msg.source], msg, msg.copy_limit, now)
            if ok:
                offer_everywhere(msg.source, now)
        elif kind == "done":
            ci = payload
            lc = live[ci]
            if lc.active is None or not lc.open:
                continue
            msg, src, dst, finish = lc.active
            if abs(finish - now) > 1e-9:
                continue   # stale completion after an abort
            lc.active = None
            entry = buffers[src].get(msg.msg_id)
            if entry is not None:
                entry.pinned = False
            result.completed += 1
            result.transfers.append((msg.msg_id, src, dst, now))
            if msg.destination == dst:
                delivered[dst].add(msg.msg_id)
                result.delivered_at.setdefault(msg.msg_id, now)
                if entry is not None:
                    buffers[src].remove(msg.msg_id)
            elif msg.msg_id not in buffers[dst].entries:
                tokens = msg.copy_limit
                if policy.uses_tokens and entry is not None:
                    give, keep = spray_split(entry.tokens)
                    entry.tokens = keep
                    tokens = give
                ok, _ = buffer_admit(buffers[dst], msg, tokens, now)
                if ok:
                    msg.custodians.add(dst)
                    offer_everywhere(dst, now)
            start_next(ci, now)
        elif kind == "close":
            ci = payload
            lc = live[ci]
            lc.open = False
            if lc.active is not None:
                msg, src, dst, finish = lc.active
                entry = buffers[src].get(msg.msg_id)
                if entry is not None:
                    entry.pinned = False
                result.aborted += 1
                lc.active = None
            for nid in lc.contact.peers():
                if ci in by_node[nid]:
                    by_node[nid].remove(ci)
    return result
