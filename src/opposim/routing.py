"""Store-carry-forward routing: buffers, custody rules and router policies.

Three routers share one machinery:

* epidemic      -- hand every message to every peer that never had it.
* snw           -- binary spray-and-wait: a copy carries a token budget,
                   halved toward each new custodian; a single-token copy
                   waits for the destination.
* hrson         -- spray-and-wait forwarding plus a home gate on the AP
                   role: a node may only become an access point at its
                   house, office or evening spot.

A message's custodian set (everyone who holds or ever held a copy) is
shared state carried with the message; nothing is ever re-sent to a former
custodian except the destination itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .traffic import Message

DEFAULT_BUFFER_CAPACITY = 100_000_000  # bytes


class RoutingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------

class BufferEntry:
    __slots__ = ("message", "tokens", "received_at", "pinned")

    def __init__(self, message: Message, tokens: int, received_at: float):
        self.message = message
        self.tokens = tokens
        self.received_at = received_at
        self.pinned = False      # an outgoing transfer is using this entry


class Buffer:
    """Byte-capacity message store with FIFO eviction pressure.

    Entries keep insertion (receipt) order; eviction removes the oldest
    unpinned entries first.
    """

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY):
        self.capacity = int(capacity)
        self.entries: Dict[int, BufferEntry] = {}
        self.used = 0
        # bumped whenever the set of buffered ids changes; token and pin
        # changes leave it alone
        self.version = 0

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, msg_id: int) -> Optional[BufferEntry]:
        return self.entries.get(msg_id)

    def ids(self) -> List[int]:
        return list(self.entries.keys())

    def remove(self, msg_id: int) -> Optional[BufferEntry]:
        entry = self.entries.pop(msg_id, None)
        if entry is not None:
            self.used -= entry.message.size
            self.version += 1
        return entry


def buffer_admit(buffer: Buffer, message: Message, tokens: int,
                 now: float) -> Tuple[bool, List[BufferEntry]]:
    """Store a message copy, evicting oldest unpinned entries to make room.

    Returns (admitted, evicted_entries). A message larger than the whole
    buffer is rejected outright; so is a duplicate id. A message that does
    not fit even after every unpinned entry is gone is refused and leaves
    the buffer untouched, its FIFO order included.
    """
    if message.msg_id in buffer.entries:
        raise RoutingError(f"message {message.msg_id} already buffered")
    if message.size > buffer.capacity:
        return False, []
    evicted: List[BufferEntry] = []
    used = buffer.used
    if used + message.size > buffer.capacity:
        for entry in buffer.entries.values():
            if entry.pinned:
                continue
            evicted.append(entry)
            used -= entry.message.size
            if used + message.size <= buffer.capacity:
                break
        else:
            return False, []    # pinned entries block the remaining space
        for entry in evicted:
            del buffer.entries[entry.message.msg_id]
        buffer.used = used
    buffer.entries[message.msg_id] = BufferEntry(message, tokens, now)
    buffer.used += message.size
    buffer.version += 1
    return True, evicted


def ttl_sweep(buffer: Buffer, now: float) -> List[BufferEntry]:
    """Remove every copy whose message lifetime has passed."""
    expired = [e for e in buffer.entries.values() if e.message.expired(now)]
    for entry in expired:
        buffer.entries.pop(entry.message.msg_id)
        buffer.used -= entry.message.size
    if expired:
        buffer.version += 1
    return expired


# ---------------------------------------------------------------------------
# Summaries and transfer selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerSummary:
    """What one side of a link knows about the other after the (zero-cost)
    control exchange: peer identity and the message ids it already has."""
    node_id: int
    has: FrozenSet[int]


def summary_exchange(a_id: int, a_buffer: Buffer, a_delivered: Set[int],
                     b_id: int, b_buffer: Buffer, b_delivered: Set[int],
                     ) -> Tuple[PeerSummary, PeerSummary]:
    """Mutual id summaries for a link; delivered ids count as 'has' so a
    destination is never offered a message twice."""
    view_of_b = PeerSummary(b_id, frozenset(set(b_buffer.entries) | b_delivered))
    view_of_a = PeerSummary(a_id, frozenset(set(a_buffer.entries) | a_delivered))
    return view_of_b, view_of_a


@dataclass(frozen=True)
class PlannedSend:
    msg_id: int
    direct: bool       # peer is the destination
    created_at: float

    def sort_key(self):
        return (0 if self.direct else 1, self.created_at, self.msg_id)


def _offerable(entry: BufferEntry, peer: PeerSummary) -> bool:
    return entry.message.msg_id not in peer.has


def epidemic_select(local: Buffer, peer: PeerSummary) -> List[PlannedSend]:
    """Everything the peer currently lacks: destination-bound first, then
    oldest first. A peer that evicted a copy under buffer pressure is
    offered it again; flooding keeps no per-peer history."""
    plans = []
    for entry in local.entries.values():
        m = entry.message
        if not _offerable(entry, peer):
            continue
        plans.append(PlannedSend(m.msg_id, m.destination == peer.node_id,
                                 m.created_at))
    plans.sort(key=PlannedSend.sort_key)
    return plans


def snw_select(local: Buffer, peer: PeerSummary) -> List[PlannedSend]:
    """Spray-and-wait offer list.

    Direct deliveries go out regardless of tokens. Sprays need at least two
    tokens and a peer that never held the message."""
    plans = []
    for entry in local.entries.values():
        m = entry.message
        if not _offerable(entry, peer):
            continue
        if m.destination == peer.node_id:
            plans.append(PlannedSend(m.msg_id, True, m.created_at))
        elif entry.tokens >= 2 and peer.node_id not in m.custodians:
            plans.append(PlannedSend(m.msg_id, False, m.created_at))
    plans.sort(key=PlannedSend.sort_key)
    return plans


def spray_split(tokens: int) -> Tuple[int, int]:
    """Binary split of a spray budget: (recipient_share, sender_keeps)."""
    give = tokens // 2
    return give, tokens - give


# ---------------------------------------------------------------------------
# Router policies
# ---------------------------------------------------------------------------

class RouterPolicy:
    """Behavior contract shared by the simulation engine.

    may_become_ap gates the AP role; select_transfers orders what to send
    over a fresh or refreshed link; uses_tokens switches the spray custody
    accounting on."""

    name = "base"
    uses_tokens = False

    def __init__(self, p_ap: float = 0.5):
        self.p_ap = p_ap

    def may_become_ap(self, at_home: bool, rng) -> bool:
        raise NotImplementedError

    def select_transfers(self, local: Buffer, peer: PeerSummary) -> List[PlannedSend]:
        raise NotImplementedError

    def eligible(self, entry: BufferEntry, peer: PeerSummary) -> bool:
        """Late validity check used when a queued offer finally starts."""
        raise NotImplementedError


class EpidemicPolicy(RouterPolicy):
    name = "epidemic"
    uses_tokens = False

    def may_become_ap(self, at_home: bool, rng) -> bool:
        return rng.random() < self.p_ap

    def select_transfers(self, local, peer):
        return epidemic_select(local, peer)

    def eligible(self, entry, peer):
        return entry.message.msg_id not in peer.has


class SprayAndWaitPolicy(RouterPolicy):
    name = "snw"
    uses_tokens = True

    def may_become_ap(self, at_home: bool, rng) -> bool:
        return rng.random() < self.p_ap

    def select_transfers(self, local, peer):
        return snw_select(local, peer)

    def eligible(self, entry, peer):
        m = entry.message
        if m.msg_id in peer.has:
            return False
        if m.destination == peer.node_id:
            return True
        return entry.tokens >= 2 and peer.node_id not in m.custodians


class HrsonPolicy(SprayAndWaitPolicy):
    """Spray-and-wait forwarding with the AP role gated to Home locations."""
    name = "hrson"

    def may_become_ap(self, at_home: bool, rng) -> bool:
        return at_home


_POLICIES = {
    "epidemic": EpidemicPolicy,
    "snw": SprayAndWaitPolicy,
    "sprayandwait": SprayAndWaitPolicy,
    "spray-and-wait": SprayAndWaitPolicy,
    "hrson": HrsonPolicy,
}


def make_policy(name: str, p_ap: float = 0.5) -> RouterPolicy:
    key = name.strip().lower().replace("_", "-")
    key = {"spray-and-wait": "snw", "sprayandwait": "snw"}.get(key, key)
    if key not in _POLICIES:
        raise RoutingError(f"unknown router {name!r}; "
                           f"choose from epidemic, snw, hrson")
    return _POLICIES[key](p_ap=p_ap)


# ---------------------------------------------------------------------------
# Transfer and delivery records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferRecord:
    msg_id: int
    from_node: int
    to_node: int
    started_at: float
    finished_at: float
    bytes_moved: int
    completed: bool


@dataclass(frozen=True)
class DeliveryRecord:
    msg_id: int
    node: int
    created_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.created_at


def deliver(message: Message, at_node: int, now: float) -> DeliveryRecord:
    """Finalize a message at its destination."""
    if at_node != message.destination:
        raise RoutingError(
            f"message {message.msg_id} delivered to {at_node}, "
            f"destination is {message.destination}")
    return DeliveryRecord(message.msg_id, at_node, message.created_at, now)
