"""Store-carry-forward routing: buffers, custody rules and router policies.

A router decides what crosses a link. Three share one machinery:

* epidemic      -- hand every message to every peer that never had it;
                   its copies carry no tokens.
* snw           -- binary spray-and-wait: a copy carries a token budget,
                   halved toward each new custodian; a single-token copy
                   waits for the destination.
* hrson         -- spray-and-wait forwarding under the world's home gate
                   (a node may only become an access point at its house,
                   office or evening spot): `make_policy` gives it the snw
                   policy, and the world reads the gate off `router_name`.

A spray copy's custodian set (every node that holds or ever held a copy)
is shared by all the copies of its message on a plane. The spray routers
never send a copy to a former custodian except the destination itself;
epidemic copies keep no set, and flooding offers a copy again to a peer
that has lost its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

from .traffic import Message

DEFAULT_BUFFER_CAPACITY = 100_000_000  # bytes

# a copy needs this many tokens to spray: half goes to the new custodian
SPRAY_MIN_TOKENS = 2


class RoutingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------

class BufferEntry:
    __slots__ = ("message", "tokens", "pinned", "custodians")

    def __init__(self, message: Message, tokens: int, custodians=None):
        self.message = message
        self.tokens = tokens
        self.pinned = False      # an outgoing transfer is using this entry
        self.custodians = custodians  # shared by its message's spray copies


class Buffer:
    """Byte-capacity message store with FIFO eviction pressure.

    Entries keep insertion (receipt) order; eviction removes the oldest
    unpinned entries first.

    `sprayable` lists each entry with at least SPRAY_MIN_TOKENS tokens,
    each once and in no particular order: the only copies a spray router
    may hand to a peer that is not their destination. Admission, removal,
    eviction and `set_tokens` keep it, so tokens change only through
    `set_tokens`. Epidemic copies carry no tokens, so under flooding the
    list stays empty. It is a list rather than a dict because it holds a
    few entries and a list takes a third of the memory; a removal walks it.
    """

    # a plane holds one buffer per node
    __slots__ = ("capacity", "entries", "sprayable", "used", "version")

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY):
        self.capacity = int(capacity)
        self.entries: Dict[int, BufferEntry] = {}
        self.sprayable: List[BufferEntry] = []
        self.used = 0
        # bumped whenever the set of buffered ids changes; token and pin
        # changes leave it alone
        self.version = 0

    def get(self, msg_id: int) -> Optional[BufferEntry]:
        return self.entries.get(msg_id)

    def remove(self, msg_id: int) -> Optional[BufferEntry]:
        entry = self.entries.pop(msg_id, None)
        if entry is not None:
            self.used -= entry.message.size
            self.version += 1
            self._unlist(entry)
        return entry

    def set_tokens(self, entry: BufferEntry, tokens: int) -> None:
        """Give a buffered copy a new token count."""
        listed = entry.tokens >= SPRAY_MIN_TOKENS
        entry.tokens = tokens
        if tokens >= SPRAY_MIN_TOKENS:
            if not listed:
                self.sprayable.append(entry)
        elif listed:
            self.sprayable.remove(entry)

    def _unlist(self, entry: BufferEntry) -> None:
        """Drop a copy that left the buffer from `sprayable`."""
        if entry.tokens >= SPRAY_MIN_TOKENS:
            self.sprayable.remove(entry)


def buffer_admit(buffer: Buffer, message: Message, tokens: int,
                 custodians=None) -> Tuple[bool, List[BufferEntry]]:
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
            buffer._unlist(entry)
        buffer.used = used
    entry = BufferEntry(message, 0, custodians)
    buffer.entries[message.msg_id] = entry
    buffer.set_tokens(entry, tokens)
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


@dataclass(frozen=True, slots=True)     # a plane holds one per node
class PeerSummary:
    """What one side of a link knows about the other after the (zero-cost)
    control exchange: peer identity, the message ids it already has and
    the ids of the messages addressed to it that are neither delivered nor
    expired."""
    node_id: int
    has: Container[int]
    addressed: Sequence[int]


SendKey = Tuple[int, float, int]


def send_key(message: Message, peer_id: int) -> SendKey:
    """Where a send of `message` to `peer_id` sits in a link's queue:
    destination-bound first, then oldest first; the id makes keys unique."""
    return (0 if message.destination == peer_id else 1, message.created_at,
            message.msg_id)


def spray_split(tokens: int) -> Tuple[int, int]:
    """Binary split of a spray budget: (recipient_share, sender_keeps)."""
    give = tokens // 2
    return give, tokens - give


# ---------------------------------------------------------------------------
# Router policies
# ---------------------------------------------------------------------------

class RouterPolicy:
    """Forwarding contract shared by the simulation engine.

    select_transfers gives the sorted `send_key`s of what to send over a
    fresh or refreshed link; eligible re-checks one queued copy when it is
    offered or about to be sent; uses_tokens gives a new message's source
    copy its spray budget and custodian set, turning custody accounting on."""

    name = "base"
    uses_tokens = False

    def select_transfers(self, local: Buffer,
                         peer: PeerSummary) -> List[SendKey]:
        raise NotImplementedError

    def eligible(self, entry: BufferEntry, peer: PeerSummary) -> bool:
        raise NotImplementedError


class EpidemicPolicy(RouterPolicy):
    """Everything the peer lacks. A peer that evicted a copy under buffer
    pressure is offered it again; flooding keeps no per-peer history.

    Subclasses change `_forwards`, the rule for one copy, which both
    entry points apply; a subclass's `select_transfers` may only narrow
    the copies it asks the rule about. `_forwards` must stay a pure
    predicate of the entry and the peer view, with no side effect, so that
    a rule may run its tests in any order and put its cheap ones first."""

    name = "epidemic"

    def select_transfers(self, local, peer):
        """Every copy the rule lets go to the peer, in queue order."""
        forwards = self._forwards
        dst = peer.node_id
        keys = [send_key(entry.message, dst)
                for entry in local.entries.values() if forwards(entry, peer)]
        keys.sort()
        return keys

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

    def select_transfers(self, local, peer):
        """The epidemic answer under the spray rule, from two short lists
        instead of the whole buffer. A copy the rule lets go is addressed
        to the peer, and so among `peer.addressed` (a delivered or expired
        message is not, and the rule refuses it anyway), or holds
        SPRAY_MIN_TOKENS tokens or more, and so in `local.sprayable`; most
        copies hold one token and wait for a destination that is not the
        peer. `_forwards` decides each candidate, and the sort fixes the
        order, as its keys are unique."""
        forwards = self._forwards
        dst = peer.node_id
        entries = local.entries
        keys = []
        for mid in peer.addressed:
            entry = entries.get(mid)
            if entry is not None and forwards(entry, peer):
                keys.append(send_key(entry.message, dst))
        for entry in local.sprayable:
            m = entry.message
            if m.destination != dst and forwards(entry, peer):
                keys.append(send_key(m, dst))
        keys.sort()
        return keys

    @staticmethod
    def _forwards(entry, peer):
        # the peer view's lookup goes last: most copies hold one token and
        # wait for their destination, so their test ends before it
        m = entry.message
        dst = peer.node_id
        if m.destination == dst:
            return m.msg_id not in peer.has
        return (entry.tokens >= SPRAY_MIN_TOKENS
                and dst not in entry.custodians and m.msg_id not in peer.has)


# canonical router name -> forwarding policy
_POLICIES = {
    "epidemic": EpidemicPolicy,
    "snw": SprayAndWaitPolicy,
    "hrson": SprayAndWaitPolicy,
}
_ALIASES = {"sprayandwait": "snw", "spray-and-wait": "snw"}


def router_name(name: str) -> str:
    """The canonical name, epidemic, snw or hrson, of router `name`."""
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    if key not in _POLICIES:
        raise RoutingError(f"unknown router {name!r}; "
                           f"choose from epidemic, snw, hrson")
    return key


def make_policy(name: str) -> RouterPolicy:
    return _POLICIES[router_name(name)]()
