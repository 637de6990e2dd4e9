"""Store-carry-forward routing: buffers, custody rules and router policies.

A router decides what crosses a link. Three share one machinery:

* epidemic      -- hand every message to every peer that never had it.
* snw           -- binary spray-and-wait: a copy carries a token budget,
                   halved toward each new custodian; a single-token copy
                   waits for the destination.
* hrson         -- spray-and-wait forwarding. What sets it apart is a rule
                   of the world, not of forwarding: a node may only become
                   an access point at its house, office or evening spot.
                   The policy carries that as `home_gate`, and the
                   engine's world applies it.

A message's custodian set (everyone who holds or ever held a copy) is
shared state carried with the message. The spray routers never send a copy
to a former custodian except the destination itself; epidemic keeps no
such history and offers a copy again to a peer that has lost its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Set, Tuple

from .traffic import Message

DEFAULT_BUFFER_CAPACITY = 100_000_000  # bytes


class RoutingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------

class BufferEntry:
    __slots__ = ("message", "tokens", "pinned")

    def __init__(self, message: Message, tokens: int):
        self.message = message
        self.tokens = tokens
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


def buffer_admit(buffer: Buffer, message: Message,
                 tokens: int) -> Tuple[bool, List[BufferEntry]]:
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
    buffer.entries[message.msg_id] = BufferEntry(message, tokens)
    buffer.used += message.size
    buffer.version += 1
    return True, evicted


# ---------------------------------------------------------------------------
# Summaries and transfer selection
# ---------------------------------------------------------------------------

class HasView:
    """Live membership view over a node's buffered plus delivered ids.

    Delivered ids count as held, so a destination is never offered a
    message twice."""

    __slots__ = ("buffer", "delivered")

    def __init__(self, buffer: Buffer, delivered: Set[int]):
        self.buffer = buffer
        self.delivered = delivered

    def __contains__(self, msg_id) -> bool:
        return msg_id in self.buffer.entries or msg_id in self.delivered


@dataclass(frozen=True)
class PeerSummary:
    """What one side of a link knows about the other after the (zero-cost)
    control exchange: peer identity and the message ids it already has."""
    node_id: int
    has: Container[int]


@dataclass(frozen=True)
class PlannedSend:
    msg_id: int
    direct: bool       # peer is the destination
    created_at: float

    def sort_key(self):
        return (0 if self.direct else 1, self.created_at, self.msg_id)


def spray_split(tokens: int) -> Tuple[int, int]:
    """Binary split of a spray budget: (recipient_share, sender_keeps)."""
    give = tokens // 2
    return give, tokens - give


# ---------------------------------------------------------------------------
# Router policies
# ---------------------------------------------------------------------------

class RouterPolicy:
    """Forwarding contract shared by the simulation engine.

    select_transfers orders what to send over a fresh or refreshed link;
    eligible re-checks one queued copy when it is offered or about to be
    sent; uses_tokens switches the spray custody accounting on; home_gate
    tells the world to let a node take the AP role only at home."""

    name = "base"
    uses_tokens = False
    home_gate = False

    def select_transfers(self, local: Buffer, peer: PeerSummary) -> List[PlannedSend]:
        raise NotImplementedError

    def eligible(self, entry: BufferEntry, peer: PeerSummary) -> bool:
        raise NotImplementedError


class EpidemicPolicy(RouterPolicy):
    """Everything the peer lacks. A peer that evicted a copy under buffer
    pressure is offered it again; flooding keeps no per-peer history.

    Subclasses change only `_forwards`, the rule for one copy; both
    entry points apply it."""

    name = "epidemic"

    def select_transfers(self, local, peer):
        """Every copy the rule lets go to the peer: destination-bound
        first, then oldest first."""
        forwards = self._forwards
        dst = peer.node_id
        plans = [PlannedSend(entry.message.msg_id,
                             entry.message.destination == dst,
                             entry.message.created_at)
                 for entry in local.entries.values()
                 if forwards(entry, peer)]
        plans.sort(key=PlannedSend.sort_key)
        return plans

    def eligible(self, entry, peer):
        return self._forwards(entry, peer)

    @staticmethod
    def _forwards(entry: BufferEntry, peer: PeerSummary) -> bool:
        return entry.message.msg_id not in peer.has


class SprayAndWaitPolicy(EpidemicPolicy):
    """Direct deliveries go out regardless of tokens. Sprays need at least
    two tokens and a peer that never held the message."""

    name = "snw"
    uses_tokens = True

    @staticmethod
    def _forwards(entry, peer):
        m = entry.message
        if m.msg_id in peer.has:
            return False
        if m.destination == peer.node_id:
            return True
        return entry.tokens >= 2 and peer.node_id not in m.custodians


class HrsonPolicy(SprayAndWaitPolicy):
    """Spray-and-wait forwarding; the world gates the AP role to home."""
    name = "hrson"
    home_gate = True


_POLICIES = {
    "epidemic": EpidemicPolicy,
    "snw": SprayAndWaitPolicy,
    "sprayandwait": SprayAndWaitPolicy,
    "spray-and-wait": SprayAndWaitPolicy,
    "hrson": HrsonPolicy,
}


def make_policy(name: str) -> RouterPolicy:
    key = name.strip().lower().replace("_", "-")
    if key not in _POLICIES:
        raise RoutingError(f"unknown router {name!r}; "
                           f"choose from epidemic, snw, hrson")
    return _POLICIES[key]()
