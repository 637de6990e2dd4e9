"""Simulation engine: clock, event heaps, links and transfer accounting.

Time advances on a fixed tick (1 s by default). Mobility and radio state
change at tick boundaries; transfer bytes are accounted continuously
inside a tick, so a transfer finishing mid-tick immediately frees
bandwidth for the next queued one. Everything is driven by per-node wake
times kept in heaps, which lets quiet stretches (a parked night, an empty
map) skip ahead instead of burning ticks.

Reproducibility: a run is a pure function of (config, seed). The master
seed expands into independent named streams (world, mobility, traffic,
radio, policy) so reconfiguring one layer never perturbs another.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import radio as radio_mod
from .map_graph import (PoiKind, SegmentLayout, parse_map, place_pois,
                        synth_map)
from .metrics import MetricsCollector, MetricsReport
from .mobility import (DAY, MobilityError, MobilityModel, MobilitySettings,
                       build_profiles)
from .radio import (LinkModel, Phase, RadioState, TimingParams, VisibleAp,
                    ap_due_retirement, assign_channel,
                    joiner_bandwidth_estimate, member_bandwidth_estimate,
                    should_switch_ap, step_radio)
from .routing import (Buffer, PeerSummary, RouterPolicy, buffer_admit,
                      make_policy, spray_split)
from .traffic import Message, TrafficConfig, make_message, next_creation

RNG_STREAMS = {"world": 1, "mobility": 2, "traffic": 3, "radio": 4,
               "policy": 5}


class ConfigError(ValueError):
    pass


class AuditError(RuntimeError):
    """An in-run invariant check failed."""


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapConfig:
    source: str = "synthetic"          # synthetic | file
    file: Optional[str] = None
    width: float = 500.0
    height: float = 500.0
    grid_step: float = 50.0
    edge_removal: float = 0.15
    map_seed: int = 0                  # map geometry is fixed across runs

    def validate(self) -> None:
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"map source must be synthetic or file, got {self.source!r}")
        if self.source == "file" and not self.file:
            raise ConfigError("map source 'file' needs a file path")
        if self.source == "synthetic" and min(self.width, self.height,
                                              self.grid_step) <= 0:
            raise ConfigError("synthetic map dimensions must be positive")
        if not (0 <= self.edge_removal < 1):
            raise ConfigError("edge_removal must be in [0, 1)")


@dataclass(frozen=True)
class PoiConfig:
    houses: int = 12
    offices: int = 4
    evening_spots: int = 3
    bus_stops: int = 6
    office_area: float = 10000.0
    segment_overlap: float = 0.2

    def validate(self) -> None:
        if min(self.houses, self.offices, self.evening_spots, self.bus_stops) < 0:
            raise ConfigError("POI counts must be nonnegative")
        if self.office_area <= 0:
            raise ConfigError("office_area must be positive")
        if not (0 < self.segment_overlap < 1):
            raise ConfigError("segment_overlap must be in (0, 1)")

    def counts(self) -> Dict[PoiKind, int]:
        return {PoiKind.HOUSE: self.houses, PoiKind.OFFICE: self.offices,
                PoiKind.EVENING_SPOT: self.evening_spots,
                PoiKind.BUS_STOP: self.bus_stops}


@dataclass(frozen=True)
class RadioConfig:
    timing: TimingParams = field(default_factory=TimingParams)
    link: LinkModel = field(default_factory=LinkModel)
    p_ap: float = 0.5                  # baseline AP coin after a failed scan
    client_rescan: float = 30.0        # seconds between background rescans
    switch_ratio: float = 1.25         # faster-AP hysteresis
    ap_idle_timeout: float = 60.0
    ap_max_duration: float = 600.0
    stagger: bool = True               # randomize first scan start per node

    def validate(self) -> None:
        self.timing.validate()
        self.link.validate()
        if not (0 <= self.p_ap <= 1):
            raise ConfigError("p_ap must be in [0, 1]")
        if self.client_rescan <= 0 or self.switch_ratio < 1:
            raise ConfigError("bad client rescan settings")
        if self.ap_idle_timeout <= 0 or self.ap_max_duration <= 0:
            raise ConfigError("AP retirement timers must be positive")


@dataclass(frozen=True)
class RoutingConfig:
    router: str = "epidemic"           # epidemic | snw | hrson
    buffer_capacity: int = 100_000_000
    summary_refresh: float = 120.0     # periodic anti-entropy on long links; 0 off

    def validate(self) -> None:
        try:
            make_policy(self.router)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
        if self.buffer_capacity <= 0:
            raise ConfigError("buffer capacity must be positive")
        if self.summary_refresh < 0:
            raise ConfigError("summary_refresh must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    map: MapConfig = field(default_factory=MapConfig)
    pois: PoiConfig = field(default_factory=PoiConfig)
    mobility: MobilitySettings = field(default_factory=MobilitySettings)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    duration: float = 86400.0
    tick: float = 1.0

    @property
    def node_count(self) -> int:
        return sum(self.mobility.group_sizes)

    def validate(self) -> None:
        self.map.validate()
        self.pois.validate()
        try:
            self.mobility.validate()
            self.traffic.validate()
        except (MobilityError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        self.radio.validate()
        self.routing.validate()
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.tick <= 0:
            raise ConfigError("tick must be positive")
        if self.node_count < 2:
            raise ConfigError("need at least 2 nodes")


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named stream of a run."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), RNG_STREAMS[name]])))


# ---------------------------------------------------------------------------
# Static placement (scripted scenarios and unit probes)
# ---------------------------------------------------------------------------

class StaticMobility:
    """Drop-in mobility stand-in: nodes sit at fixed positions, counting as
    being at home. Scripted moves teleport nodes at tick boundaries."""

    def __init__(self, positions: Sequence[Tuple[float, float]]):
        self.positions = {i: tuple(p) for i, p in enumerate(positions)}
        self.home = {i: True for i in self.positions}
        self.log = None

    def initial_wakes(self):
        return []

    def begin_day(self, day_index):
        pass

    def wake(self, node_id, now):  # pragma: no cover - static nodes never wake
        raise MobilityError("static nodes have no mobility events")

    def position(self, node_id, now):
        return self.positions[node_id]

    def at_home(self, node_id):
        return self.home[node_id]

    def moving_ids(self):
        return []


# ---------------------------------------------------------------------------
# Links and transfers
# ---------------------------------------------------------------------------

class Transfer:
    __slots__ = ("msg", "src", "dst", "remaining", "rate", "last_settle",
                 "started_at", "link", "epoch")

    def __init__(self, msg: Message, src: int, dst: int, now: float, link):
        self.msg = msg
        self.src = src
        self.dst = dst
        self.remaining = float(msg.size)
        self.rate = 0.0
        self.last_settle = now
        self.started_at = now
        self.link = link
        self.epoch = 0


class _HasView:
    """Live membership view over a node's buffered plus delivered ids."""

    __slots__ = ("buffer", "delivered")

    def __init__(self, buffer: Buffer, delivered: Set[int]):
        self.buffer = buffer
        self.delivered = delivered

    def __contains__(self, mid) -> bool:
        return mid in self.buffer.entries or mid in self.delivered


class Link:
    """Established AP-client association carrying transfers both ways."""

    __slots__ = ("ap", "client", "queue", "queued", "active", "open",
                 "summary_key")

    def __init__(self, ap: int, client: int):
        self.ap = ap
        self.client = client
        self.queue: List[Tuple[Tuple, int, int]] = []   # (sort_key, src, msg_id)
        self.queued: Set[Tuple[int, int]] = set()
        self.active: Optional[Transfer] = None
        self.open = True
        # both ends' buffer versions and refusal counts at the last summary
        # exchange; a refresh rescans only when this has moved
        self.summary_key: Optional[Tuple[int, int, int, int]] = None

    def other(self, nid: int) -> int:
        return self.client if nid == self.ap else self.ap


# ---------------------------------------------------------------------------
# The simulation proper
# ---------------------------------------------------------------------------

def _ring(cx: int, cy: int) -> Tuple[Tuple[int, int], ...]:
    """A grid cell and its eight neighbours, column by column."""
    x0, x1, y0, y1 = cx - 1, cx + 1, cy - 1, cy + 1
    return ((x0, y0), (x0, cy), (x0, y1), (cx, y0), (cx, cy), (cx, y1),
            (x1, y0), (x1, cy), (x1, y1))


class Simulation:
    def __init__(self, config: ScenarioConfig, seed: int,
                 static_positions: Optional[Sequence[Tuple[float, float]]] = None,
                 policy_table: Optional[Dict[int, RouterPolicy]] = None,
                 scripted_moves: Optional[Sequence[Tuple[float, int, Tuple[float, float]]]] = None,
                 auditors: Optional[Sequence[Callable]] = None,
                 audit_interval: float = 100.0,
                 token_audit: bool = False):
        config.validate()
        self.config = config
        self.seed = int(seed)
        self.timing = config.radio.timing
        self.link_model = config.radio.link
        self.policy = make_policy(config.routing.router, config.radio.p_ap)
        self.policy_table = policy_table or {}
        self.collector = MetricsCollector(self.seed)
        self.auditors = list(auditors or [])
        if token_audit:
            self.auditors.append(Simulation._audit_tokens)
        self.audit_interval = audit_interval
        self.audit_failures: List[str] = []

        self.rng_world = stream_rng(seed, "world")
        self.rng_mobility = stream_rng(seed, "mobility")
        self.rng_traffic = stream_rng(seed, "traffic")
        self.rng_radio = stream_rng(seed, "radio")
        self.rng_policy = stream_rng(seed, "policy")

        self._build_world(static_positions)
        self.scripted_moves = sorted(scripted_moves or [])

        n = self.n_nodes
        self.radio: List[RadioState] = [RadioState() for _ in range(n)]
        self.buffers: List[Buffer] = [Buffer(config.routing.buffer_capacity)
                                      for _ in range(n)]
        self.refused = [0] * n          # admissions each node turned down
        self.delivered: List[Set[int]] = [set() for _ in range(n)]
        self.links: List[Dict[int, Link]] = [dict() for _ in range(n)]
        self.in_flight: Set[Tuple[int, int]] = set()     # (sender, msg_id)
        self.in_flight_to: Set[Tuple[int, int]] = set()  # (receiver, msg_id)
        self.ap_active: Dict[int, Dict[Transfer, None]] = {}
        self.epoch = [0] * n            # bumps invalidate stale radio events

        # event plumbing
        self.clock = 0.0
        self._seq = 0
        self.radio_events: List[Tuple[float, int, int, str, int]] = []
        self.mobility_events: List[Tuple[float, int]] = []
        self.transfer_events: List[Tuple[float, int, Transfer, int]] = []
        self.ttl_events: List[Tuple[float, int]] = []
        self.refresh_events: List[Tuple[float, int, Link]] = []

        # message bookkeeping
        self.messages: Dict[int, Message] = {}
        self.msg_status: Dict[int, str] = {}    # live | delivered | ttl | extinct
        self.holders: Dict[int, Set[int]] = {}
        self.next_msg_id = 0
        self.next_create: Optional[float] = None
        self._closing = False

        # spatial hash: every node in `grid`, AP-role nodes also in `ap_grid`
        self.cell_size = self.link_model.range
        self.grid: Dict[Tuple[int, int], Dict[int, None]] = {}
        self.ap_grid: Dict[Tuple[int, int], Dict[int, None]] = {}
        self.cellver: Dict[Tuple[int, int], int] = {}
        self.node_cell: List[Tuple[int, int]] = [(-1, -1)] * n
        self.pos: List[Tuple[float, float]] = [(0.0, 0.0)] * n
        self.moving: Set[int] = set()
        self.client_scan_key: Dict[int, Tuple] = {}

        self._init_positions()
        self._init_radio()
        self._init_traffic()

    # -- construction ---------------------------------------------------------

    def _build_world(self, static_positions) -> None:
        cfg = self.config
        if static_positions is not None:
            self.n_nodes = len(static_positions)
            self.graph = None
            self.model = StaticMobility(static_positions)
            return
        if cfg.map.source == "file":
            with open(cfg.map.file, "r", encoding="utf-8") as fh:
                self.graph = parse_map(fh.read())
        else:
            self.graph = synth_map(cfg.map.width, cfg.map.height,
                                   cfg.map.grid_step, cfg.map.map_seed,
                                   cfg.map.edge_removal)
        layout = SegmentLayout.default(self.graph.bounds,
                                       cfg.pois.segment_overlap)
        layout.validate()
        poi_seed = int(self.rng_world.integers(2 ** 31))
        pois = place_pois(self.graph, layout, cfg.pois.counts(), poi_seed,
                          cfg.pois.office_area)
        profiles = build_profiles(cfg.node_count, cfg.mobility.group_sizes,
                                  pois, layout, self.rng_world,
                                  cfg.mobility.own_car_prob)
        self.n_nodes = len(profiles)
        self.model = MobilityModel(self.graph, pois, profiles,
                                   cfg.mobility, self.rng_mobility)

    def _init_positions(self) -> None:
        for nid in range(self.n_nodes):
            p = self.model.position(nid, 0.0)
            self.pos[nid] = p
            cell = (int(p[0] // self.cell_size), int(p[1] // self.cell_size))
            self.grid.setdefault(cell, {})[nid] = None
            self.node_cell[nid] = cell
        for t, nid in self.model.initial_wakes():
            heapq.heappush(self.mobility_events, (t, nid))

    def _init_radio(self) -> None:
        span = self.timing.t_scan + self.timing.t_rest
        for nid in range(self.n_nodes):
            start = (float(self.rng_radio.uniform(0.0, span))
                     if self.config.radio.stagger else 0.0)
            self._push_radio(start, nid, "phase")

    def _init_traffic(self) -> None:
        self.next_create = next_creation(self.config.traffic,
                                         self.config.traffic.window[0],
                                         self.rng_traffic)

    # -- small helpers ----------------------------------------------------------

    def _push_radio(self, time: float, nid: int, kind: str) -> None:
        self._seq += 1
        heapq.heappush(self.radio_events,
                       (time, nid, self._seq, kind, self.epoch[nid]))

    def _bump_cell(self, cell: Tuple[int, int]) -> None:
        self.cellver[cell] = self.cellver.get(cell, 0) + 1

    def _neighbors(self, nid: int,
                   grid: Dict[Tuple[int, int], Dict[int, None]]) -> List[int]:
        """Nodes of `grid` within radio range of nid, nid excluded, in
        cell order and, within a cell, in the bucket's insertion order."""
        pos = self.pos
        px, py = pos[nid]
        r2 = self.cell_size * self.cell_size
        cx, cy = self.node_cell[nid]
        out = []
        for cell in _ring(cx, cy):
            bucket = grid.get(cell)
            if bucket:
                for other in bucket:
                    if other != nid:
                        ox, oy = pos[other]
                        if (ox - px) ** 2 + (oy - py) ** 2 <= r2:
                            out.append(other)
        return out

    def _policy_for(self, nid: int) -> RouterPolicy:
        return self.policy_table.get(nid, self.policy)

    def _co_channel_count(self, nid: int) -> int:
        """APs within range of this AP sharing its channel, incl. itself."""
        channel = self.radio[nid].channel
        radio = self.radio
        count = 1
        for other in self._neighbors(nid, self.ap_grid):
            if radio[other].channel == channel:
                count += 1
        return count

    def _visible_aps(self, nid: int) -> List[VisibleAp]:
        out = []
        for other in self._neighbors(nid, self.ap_grid):
            est = joiner_bandwidth_estimate(
                self.link_model, self._co_channel_count(other),
                len(self.radio[other].clients))
            out.append(VisibleAp(other, est))
        out.sort(key=lambda v: (-v.estimated_bandwidth, v.node_id))
        return out

    # -- run loop ----------------------------------------------------------------

    def run(self) -> MetricsReport:
        cfg = self.config
        tick = cfg.tick
        end = cfg.duration
        self._next_audit = self.audit_interval if self.auditors else math.inf
        self._move_idx = 0
        day = 1
        while self.clock < end:
            t = self.clock
            if t >= day * DAY:
                self.model.begin_day(day)
                day += 1
            # scripted teleports (tests drive disruption scenarios with these)
            while (self._move_idx < len(self.scripted_moves)
                   and self.scripted_moves[self._move_idx][0] <= t):
                _, nid, newpos = self.scripted_moves[self._move_idx]
                self._move_idx += 1
                if isinstance(self.model, StaticMobility):
                    self.model.positions[nid] = tuple(newpos)
                self._apply_move(nid, tuple(newpos), t)
            self._expire_messages(t)
            self._create_traffic(t)
            self._mobility_step(t)
            self._radio_step(t)
            self._refresh_step(t)
            self._transfer_step(t, t + tick)
            while t >= self._next_audit:
                for aud in self.auditors:
                    aud(self, t)
                self._next_audit += self.audit_interval
            self.clock = self._next_tick(t, tick, end, day)
        return self._finalize(end)

    def _next_tick(self, t: float, tick: float, end: float, day: int) -> float:
        nxt = t + tick
        if self.moving or self._move_idx < len(self.scripted_moves):
            return nxt
        # idle fast-forward: jump to the earliest pending event
        horizon = end
        if self.auditors:
            horizon = min(horizon, self._next_audit)
        for heap in (self.radio_events, self.mobility_events, self.ttl_events,
                     self.refresh_events):
            if heap:
                horizon = min(horizon, heap[0][0])
        if self.transfer_events:
            horizon = min(horizon, self.transfer_events[0][0])
        if self.next_create is not None:
            horizon = min(horizon, self.next_create)
        horizon = min(horizon, day * DAY)
        if horizon <= nxt:
            return nxt
        # land on the tick grid at or before the horizon
        steps = math.floor((horizon - t) / tick)
        return t + max(1, steps) * tick

    # -- traffic -----------------------------------------------------------------

    def _create_traffic(self, t: float) -> None:
        cfg = self.config.traffic
        while self.next_create is not None and self.next_create <= t:
            created_at = self.next_create
            msg = make_message(cfg, self.next_msg_id, created_at,
                               range(self.n_nodes), self.rng_traffic)
            self.next_msg_id += 1
            self.next_create = next_creation(cfg, created_at, self.rng_traffic)
            self.collector.on_generated(msg.msg_id)
            self.messages[msg.msg_id] = msg
            self.msg_status[msg.msg_id] = "live"
            self.holders[msg.msg_id] = set()
            msg.custodians.add(msg.source)
            ok, evicted = buffer_admit(self.buffers[msg.source], msg,
                                       msg.copy_limit, t)
            heapq.heappush(self.ttl_events, (msg.expires_at, msg.msg_id))
            if ok:
                self.holders[msg.msg_id].add(msg.source)
                self.collector.on_copy_admitted(msg.source, msg.msg_id, t)
                self._handle_evictions(msg.source, evicted, t)
                self._offer_new_message(msg.source, msg, t)
            else:
                self._note_copy_gone(msg.msg_id, t)

    # -- TTL ---------------------------------------------------------------------

    def _expire_messages(self, t: float) -> None:
        while self.ttl_events and self.ttl_events[0][0] < t:
            _, mid = heapq.heappop(self.ttl_events)
            msg = self.messages.get(mid)
            if msg is None:
                continue
            status = self.msg_status[mid]
            # abort in-flight copies of a dead message
            for holder_links in (self.links[h] for h in list(self.holders[mid])):
                for link in list(holder_links.values()):
                    if link.active is not None and link.active.msg.msg_id == mid:
                        self._abort_transfer(link.active, t)
            for holder in sorted(self.holders[mid]):
                entry = self.buffers[holder].remove(mid)
                if entry is not None:
                    self.collector.on_copy_removed(holder, mid, msg.expires_at,
                                                   "expired")
            self.holders[mid].clear()
            if status == "live":
                self.msg_status[mid] = "ttl"
                self.collector.on_message_expired()

    # -- mobility ------------------------------------------------------------------

    def _mobility_step(self, t: float) -> None:
        model = self.model
        events = self.mobility_events
        while events and events[0][0] <= t:
            _, nid = heapq.heappop(events)
            nxt, extras = model.wake(nid, t)
            if nxt is not None:
                heapq.heappush(events, (nxt, nid))
            for e in extras:
                heapq.heappush(events, e)
            st = model.nodes[nid]
            if st.moving:
                self.moving.add(nid)
            else:
                self.moving.discard(nid)
            self._apply_move(nid, model.position(nid, t), t)
        for nid in list(self.moving):
            self._apply_move(nid, model.position(nid, t), t)

    def _apply_move(self, nid: int, newpos: Tuple[float, float],
                    t: float) -> None:
        if newpos == self.pos[nid]:
            return
        self.pos[nid] = newpos
        old_cell = self.node_cell[nid]
        new_cell = (int(newpos[0] // self.cell_size),
                    int(newpos[1] // self.cell_size))
        state = self.radio[nid]
        if new_cell != old_cell:
            self.grid[old_cell].pop(nid, None)
            self.grid.setdefault(new_cell, {})[nid] = None
            self.node_cell[nid] = new_cell
            if state.phase is Phase.AP:
                self._ap_grid_remove(nid, old_cell)
                self.ap_grid.setdefault(new_cell, {})[nid] = None
        self._bump_cell(old_cell)
        if new_cell != old_cell:
            self._bump_cell(new_cell)
        self._check_links_of(nid, t)
        if state.phase is Phase.AP:
            # a moving AP drags co-channel interference along with it
            if self.ap_active.get(nid):
                self._settle_ap(nid, t)
            self._resettle_neighborhood(nid, t)

    def _check_links_of(self, nid: int, t: float) -> None:
        """Immediate link teardown on range exit, both roles."""
        r2 = self.link_model.range ** 2
        state = self.radio[nid]
        if state.phase is Phase.CLIENT and state.attached_ap is not None:
            ap = state.attached_ap
            ax, ay = self.pos[ap]
            x, y = self.pos[nid]
            if (ax - x) ** 2 + (ay - y) ** 2 > r2:
                self._detach_client(nid, t, rescan=True)
        elif state.phase is Phase.AP:
            x, y = self.pos[nid]
            for client in sorted(state.clients):
                cx, cy = self.pos[client]
                if (cx - x) ** 2 + (cy - y) ** 2 > r2:
                    self._detach_client(client, t, rescan=True)

    # -- radio ---------------------------------------------------------------------

    def _radio_step(self, t: float) -> None:
        events = self.radio_events
        while events and events[0][0] <= t:
            _, nid, _, kind, epoch = heapq.heappop(events)
            if epoch != self.epoch[nid]:
                continue
            if kind == "phase":
                self._phase_event(nid, t)
            elif kind == "apcheck":
                self._apcheck_event(nid, t)
            elif kind == "rescan":
                self._client_rescan(nid, t)
            elif kind == "rescan_result":
                self._client_rescan_result(nid, t)

    def _phase_event(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        if state.phase in (Phase.AP, Phase.CLIENT):
            return
        if state.phase is Phase.CONNECTING:
            self._finish_connect(nid, t)
            return
        if state.phase in (Phase.SCANNING, Phase.BECOMING_AP):
            visible = self._visible_aps(nid)
            permits = False
            if not visible and state.phase is Phase.SCANNING:
                permits = self._policy_for(nid).may_become_ap(
                    self.model.at_home(nid), self.rng_policy)
            step_radio(state, permits, visible, t, self.timing)
            if state.phase is Phase.AP:
                self._ap_created(nid, t)
            else:
                self._push_radio(state.timer_expiry, nid, "phase")
            return
        # IDLE / RESTING
        step_radio(state, False, [], t, self.timing)
        self._push_radio(state.timer_expiry, nid, "phase")

    def _ap_created(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        nearby = [self.radio[o].channel
                  for o in self._neighbors(nid, self.ap_grid)]
        state.channel = assign_channel(nearby, self.link_model.num_channels)
        state.clients = {}
        self.ap_active[nid] = {}
        cell = self.node_cell[nid]
        self.ap_grid.setdefault(cell, {})[nid] = None
        self._bump_cell(cell)
        self._push_radio(t + self.config.radio.ap_max_duration, nid, "apcheck")
        self._push_radio(t + self.config.radio.ap_idle_timeout, nid, "apcheck")
        self._resettle_neighborhood(nid, t)

    def _resettle_neighborhood(self, nid: int, t: float) -> None:
        """Re-derive rates of APs near a changed AP (channel landscape).

        Settle order assigns the `_seq` tie-breaks of transfer completions.
        The order is the full grid's: cell by cell, and within a cell the
        order in which nodes entered it. `ap_grid` does not keep that
        order, so it only finds the busy APs; two or more are put back in
        full-grid order."""
        ap_active = self.ap_active
        busy = [o for o in self._neighbors(nid, self.ap_grid)
                if ap_active.get(o)]
        if len(busy) > 1:
            busy = [o for o in self._neighbors(nid, self.grid) if o in busy]
        for other in busy:
            self._settle_ap(other, t)

    def _apcheck_event(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        if state.phase is not Phase.AP:
            return
        if ap_due_retirement(state, t, self.config.radio.ap_idle_timeout,
                             self.config.radio.ap_max_duration):
            self._retire_ap(nid, t)
        elif not state.clients:
            nxt = state.last_client_change + self.config.radio.ap_idle_timeout
            self._push_radio(max(nxt, t + 1e-9), nid, "apcheck")

    def _retire_ap(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        for client in sorted(state.clients):
            self._detach_client(client, t, rescan=True, ap_alive=False)
        self.ap_active.pop(nid, None)
        self.epoch[nid] += 1
        state.reset_to_scan(t, self.timing)
        self._push_radio(state.timer_expiry, nid, "phase")
        cell = self.node_cell[nid]
        self._ap_grid_remove(nid, cell)
        self._bump_cell(cell)
        self._resettle_neighborhood(nid, t)

    def _ap_grid_remove(self, nid: int, cell: Tuple[int, int]) -> None:
        bucket = self.ap_grid[cell]
        del bucket[nid]
        if not bucket:
            del self.ap_grid[cell]

    def _finish_connect(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        target = state.connect_target
        state.connect_target = None
        tstate = self.radio[target] if target is not None else None
        r2 = self.link_model.range ** 2
        ok = (tstate is not None and tstate.phase is Phase.AP)
        if ok:
            tx, ty = self.pos[target]
            x, y = self.pos[nid]
            ok = (tx - x) ** 2 + (ty - y) ** 2 <= r2
        if not ok:
            state.reset_to_scan(t, self.timing)
            self._push_radio(state.timer_expiry, nid, "phase")
            return
        state.phase = Phase.CLIENT
        state.attached_ap = target
        tstate.clients[nid] = None
        tstate.last_client_change = t
        self._bump_cell(self.node_cell[target])
        state.next_client_scan = t + self.config.radio.client_rescan
        self.client_scan_key.pop(nid, None)
        self._push_radio(state.next_client_scan, nid, "rescan")
        self._establish_link(target, nid, t)

    def _detach_client(self, nid: int, t: float, rescan: bool,
                       ap_alive: bool = True) -> None:
        state = self.radio[nid]
        ap = state.attached_ap
        if ap is None:
            return
        state.attached_ap = None
        link = self.links[nid].get(ap)
        if link is not None:
            self._close_link(link, t)
        if ap_alive:
            apstate = self.radio[ap]
            apstate.clients.pop(nid, None)
            apstate.last_client_change = t
            self._bump_cell(self.node_cell[ap])
            if not apstate.clients:
                self._push_radio(t + self.config.radio.ap_idle_timeout,
                                 ap, "apcheck")
        self.epoch[nid] += 1
        if rescan:
            state.reset_to_scan(t, self.timing)
            self._push_radio(state.timer_expiry, nid, "phase")

    def _client_rescan(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        if state.phase is not Phase.CLIENT:
            return
        # Skip the scan when the RF neighborhood looks unchanged; moving
        # nodes bump their cells every tick so nothing stale hides here.
        key = (*map(self.cellver.get, _ring(*self.node_cell[nid])),
               state.attached_ap)
        if self.client_scan_key.get(nid) == key:
            self._push_radio(t + self.config.radio.client_rescan, nid, "rescan")
            return
        self.client_scan_key[nid] = key
        self._push_radio(t + self.timing.t_scan, nid, "rescan_result")

    def _client_rescan_result(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        if state.phase is not Phase.CLIENT:
            return
        ap = state.attached_ap
        current = member_bandwidth_estimate(
            self.link_model, self._co_channel_count(ap),
            len(self.radio[ap].clients))
        best = None
        for cand in self._visible_aps(nid):
            if cand.node_id != ap:
                best = cand
                break
        if best is not None and should_switch_ap(
                current, best.estimated_bandwidth,
                self.config.radio.switch_ratio):
            self._detach_client(nid, t, rescan=False)
            state.phase = Phase.CONNECTING
            state.connect_target = best.node_id
            state.timer_expiry = t + self.timing.t_connect
            self._push_radio(state.timer_expiry, nid, "phase")
        else:
            self._push_radio(t + self.config.radio.client_rescan, nid, "rescan")

    # -- links and transfers -----------------------------------------------------

    def _summary_of(self, nid: int) -> PeerSummary:
        # Lazy membership view: semantically the peer's buffered + delivered
        # id set, without materializing it on every offer check.
        return PeerSummary(nid, _HasView(self.buffers[nid],
                                         self.delivered[nid]))

    def _establish_link(self, ap: int, client: int, t: float) -> None:
        link = Link(ap, client)
        self.links[ap][client] = link
        self.links[client][ap] = link
        self._select_into(link, t)
        refresh = self.config.routing.summary_refresh
        if refresh > 0:
            self._seq += 1
            heapq.heappush(self.refresh_events, (t + refresh, self._seq, link))
        self._start_next(link, t)

    def _summary_key(self, link: Link) -> Tuple[int, int, int, int]:
        ap, client = link.ap, link.client
        return (self.buffers[ap].version, self.buffers[client].version,
                self.refused[ap], self.refused[client])

    def _select_into(self, link: Link, t: float) -> None:
        """Summary exchange on a link: queue everything each side offers."""
        link.summary_key = self._summary_key(link)
        for src, dst in ((link.ap, link.client), (link.client, link.ap)):
            peer = self._summary_of(dst)
            for plan in self._policy_for(src).select_transfers(
                    self.buffers[src], peer):
                key = (plan.sort_key(), src, plan.msg_id)
                if (src, plan.msg_id) not in link.queued:
                    heapq.heappush(link.queue, key)
                    link.queued.add((src, plan.msg_id))

    def _refresh_step(self, t: float) -> None:
        """Long-lived links repeat the anti-entropy exchange periodically,
        re-offering anything the peer dropped since the last pass.

        A pass rescans only when `Link.summary_key` moved: a buffer's id
        set changed, or an end refused an admission. Otherwise a rescan
        would queue nothing new, because everything else select_transfers
        reads either only grows or is re-offered at once:

        - custodians and delivered ids only grow, and growth only removes
          offers;
        - a token return after a refused hand-off calls _offer_new_message;
        - a transfer that held the sender's copy in flight re-offers it
          when it ends, unless the copy left the buffer;
        - an offer dropped while another holder pushed the same copy to
          dst comes back through dst's version (admitted), its refusal
          count (refused) or _offer_inbound (aborted).

        The queue is served on every pass."""
        events = self.refresh_events
        interval = self.config.routing.summary_refresh
        while events and events[0][0] <= t:
            _, _, link = heapq.heappop(events)
            if not link.open:
                continue
            if link.summary_key != self._summary_key(link):
                self._select_into(link, t)
            self._start_next(link, t)
            self._seq += 1
            heapq.heappush(events, (t + interval, self._seq, link))

    def _close_link(self, link: Link, t: float) -> None:
        if not link.open:
            return
        link.open = False
        if link.active is not None:
            self._abort_transfer(link.active, t)
        self.links[link.ap].pop(link.client, None)
        self.links[link.client].pop(link.ap, None)

    def _offer_new_message(self, nid: int, msg: Message, t: float) -> None:
        """A copy held at nid becomes offerable on all its open links."""
        if self._closing:
            return
        for link in list(self.links[nid].values()):
            peer_id = link.other(nid)
            entry = self.buffers[nid].get(msg.msg_id)
            if entry is None:
                return
            peer = self._summary_of(peer_id)
            if not self._policy_for(nid).eligible(entry, peer):
                continue
            direct = msg.destination == peer_id
            key = ((0 if direct else 1, msg.created_at, msg.msg_id),
                   nid, msg.msg_id)
            if (nid, msg.msg_id) not in link.queued:
                heapq.heappush(link.queue, key)
                link.queued.add((nid, msg.msg_id))
            if link.active is None:
                self._start_next(link, t)

    def _offer_inbound(self, dst: int, msg: Message, t: float) -> None:
        """Re-surface a message toward dst from any linked holder (offers
        were dropped while an in-flight duplicate pinned the pair)."""
        mid = msg.msg_id
        for link in list(self.links[dst].values()):
            src = link.other(dst)
            entry = self.buffers[src].get(mid)
            if entry is None:
                continue
            peer = self._summary_of(dst)
            if not self._policy_for(src).eligible(entry, peer):
                continue
            direct = msg.destination == dst
            key = ((0 if direct else 1, msg.created_at, mid), src, mid)
            if (src, mid) not in link.queued:
                heapq.heappush(link.queue, key)
                link.queued.add((src, mid))
            if link.active is None:
                self._start_next(link, t)

    def _start_next(self, link: Link, t: float) -> None:
        if not link.open or link.active is not None:
            return
        while link.queue:
            _, src, mid = heapq.heappop(link.queue)
            link.queued.discard((src, mid))
            entry = self.buffers[src].get(mid)
            if entry is None or (src, mid) in self.in_flight:
                continue
            if entry.message.expired(t):
                continue
            dst = link.other(src)
            if (dst, mid) in self.in_flight_to:
                continue    # another sender is already pushing this copy
            peer = self._summary_of(dst)
            if not self._policy_for(src).eligible(entry, peer):
                continue
            tr = Transfer(entry.message, src, dst, t, link)
            link.active = tr
            entry.pinned = True
            self.in_flight.add((src, mid))
            self.in_flight_to.add((dst, mid))
            ap = link.ap
            self.ap_active.setdefault(ap, {})[tr] = None
            self._settle_ap(ap, t)
            return

    def _settle_ap(self, ap: int, now: float) -> None:
        """Move an AP's active transfers to `now` and re-derive their shared
        rate. Completion events are re-pushed only when a transfer's rate
        actually changed; an unchanged rate leaves the old projection exact."""
        active = self.ap_active.get(ap)
        if not active:
            return
        rate = radio_mod.effective_bandwidth(
            self.link_model, self._co_channel_count(ap), len(active))
        for tr in active:
            if now > tr.last_settle:
                tr.remaining -= tr.rate * (now - tr.last_settle)
                tr.last_settle = now
            if tr.rate != rate:
                tr.rate = rate
                tr.epoch += 1
                finish = now + max(0.0, tr.remaining) / rate
                self._seq += 1
                heapq.heappush(self.transfer_events,
                               (finish, self._seq, tr, tr.epoch))

    def _transfer_step(self, t: float, window_end: float) -> None:
        events = self.transfer_events
        while events and events[0][0] <= window_end:
            finish, _, tr, epoch = heapq.heappop(events)
            if epoch != tr.epoch or tr.link.active is not tr:
                continue
            self._complete_transfer(tr, finish)

    def _complete_transfer(self, tr: Transfer, now: float) -> None:
        link = tr.link
        ap = link.ap
        msg = tr.msg
        src, dst = tr.src, tr.dst
        # settle and release bandwidth
        active = self.ap_active.get(ap, {})
        active.pop(tr, None)
        tr.epoch += 1
        link.active = None
        self.in_flight.discard((src, msg.msg_id))
        self.in_flight_to.discard((dst, msg.msg_id))
        entry = self.buffers[src].get(msg.msg_id)
        if entry is not None:
            entry.pinned = False
        self.collector.on_transfer_completed()

        if msg.destination == dst:
            first = self.collector.on_delivered(msg.msg_id, msg.created_at, now)
            self.delivered[dst].add(msg.msg_id)
            if first and self.msg_status.get(msg.msg_id) == "live":
                self.msg_status[msg.msg_id] = "delivered"
            # sender's job is done; free its copy
            if entry is not None:
                self.buffers[src].remove(msg.msg_id)
                self.holders[msg.msg_id].discard(src)
                self.collector.on_copy_removed(src, msg.msg_id, now, "delivered")
        else:
            tokens = msg.copy_limit
            if self._policy_for(src).uses_tokens and entry is not None:
                give, keep = spray_split(entry.tokens)
                entry.tokens = keep
                tokens = give
            ok, evicted = buffer_admit(self.buffers[dst], msg, tokens, now)
            if ok:
                msg.custodians.add(dst)
                self.holders[msg.msg_id].add(dst)
                self.collector.on_copy_admitted(dst, msg.msg_id, now)
                self._handle_evictions(dst, evicted, now)
                self._offer_new_message(dst, msg, now)
            else:
                self.refused[dst] += 1
                if self._policy_for(src).uses_tokens and entry is not None:
                    entry.tokens += tokens    # failed hand-off returns tokens
                self._note_copy_gone(msg.msg_id, now)
            if entry is not None:
                self._offer_new_message(src, msg, now)
        # refill the freed link, then square up the AP's rates; when the
        # next transfer starts immediately the shared rate is unchanged and
        # nothing needs re-pushing (zero sim time passed in between)
        self._start_next(link, now)
        self._settle_ap(ap, now)

    def _abort_transfer(self, tr: Transfer, now: float) -> None:
        link = tr.link
        active = self.ap_active.get(link.ap, {})
        if tr in active:
            del active[tr]
        tr.epoch += 1
        if link.active is tr:
            link.active = None
        self.in_flight.discard((tr.src, tr.msg.msg_id))
        self.in_flight_to.discard((tr.dst, tr.msg.msg_id))
        entry = self.buffers[tr.src].get(tr.msg.msg_id)
        if entry is not None:
            entry.pinned = False
        self.collector.on_transfer_aborted()
        self._settle_ap(link.ap, now)
        if not tr.msg.expired(now):
            if entry is not None:
                self._offer_new_message(tr.src, tr.msg, now)
            self._offer_inbound(tr.dst, tr.msg, now)

    def _handle_evictions(self, nid: int, evicted, now: float) -> None:
        for entry in evicted:
            mid = entry.message.msg_id
            self.holders[mid].discard(nid)
            self.collector.on_copy_removed(nid, mid, now, "evicted")
            self._note_copy_gone(mid, now)

    def _note_copy_gone(self, mid: int, now: float) -> None:
        if not self.holders[mid] and self.msg_status.get(mid) == "live":
            self.msg_status[mid] = "extinct"
            self.collector.on_message_extinct()

    # -- audits ---------------------------------------------------------------

    def _audit_tokens(self, t: float) -> None:
        """Spray custody invariant: per message, buffered tokens sum to the
        initial budget until delivery or expiry; custodians never exceed it."""
        if not self.policy.uses_tokens:
            return
        for mid, status in self.msg_status.items():
            if status != "live":
                continue
            msg = self.messages[mid]
            total = 0
            for holder in self.holders[mid]:
                entry = self.buffers[holder].get(mid)
                if entry is not None:
                    total += entry.tokens
            if total != msg.copy_limit:
                raise AuditError(
                    f"t={t}: message {mid} token sum {total} != "
                    f"{msg.copy_limit}")
            if len(msg.custodians) > msg.copy_limit:
                raise AuditError(
                    f"t={t}: message {mid} has {len(msg.custodians)} "
                    f"custodians > {msg.copy_limit}")

    # -- finalize -------------------------------------------------------------

    def _finalize(self, end: float) -> MetricsReport:
        # realize creations that fell inside the final partial tick
        self._closing = True
        self._create_traffic(math.nextafter(end, 0.0))
        still = sum(1 for s in self.msg_status.values() if s == "live")
        self.collector.close_open_copies(end)
        report = self.collector.report(still)
        report.check_conservation()
        return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config: ScenarioConfig, seed: int, **kwargs) -> MetricsReport:
    """One seeded simulation; a pure function of (config, seed)."""
    return Simulation(config, seed, **kwargs).run()


def _run_star(args) -> MetricsReport:
    config, seed, token_audit = args
    return run(config, seed, token_audit=token_audit)


def run_batch(config: ScenarioConfig, seeds: Sequence[int],
              workers: Optional[int] = None,
              token_audit: bool = False) -> List[MetricsReport]:
    """Independent runs for every seed; parallelism never changes results."""
    if not seeds:
        raise ConfigError("need at least one seed")
    config.validate()
    seeds = [int(s) for s in seeds]
    if workers is None:
        workers = min(len(seeds), os.cpu_count() or 1)
    if workers <= 1 or len(seeds) == 1:
        return [run(config, s, token_audit=token_audit) for s in seeds]
    import multiprocessing as mp
    ctx = mp.get_context("spawn" if os.name == "nt" else "fork")
    with ctx.Pool(workers) as pool:
        reports = pool.map(_run_star, [(config, s, token_audit) for s in seeds])
    return reports


SWEEP_PARAMETERS = ("traffic_interval", "ttl", "copies", "homes")


def apply_sweep_value(config: ScenarioConfig, parameter: str,
                      value) -> ScenarioConfig:
    if parameter == "copies":
        traffic = dataclasses.replace(config.traffic, copy_limit=int(value))
        return dataclasses.replace(config, traffic=traffic)
    if parameter == "ttl":
        traffic = dataclasses.replace(config.traffic, ttl=float(value))
        return dataclasses.replace(config, traffic=traffic)
    if parameter == "traffic_interval":
        lo, hi = value
        traffic = dataclasses.replace(config.traffic,
                                      interval_range=(float(lo), float(hi)))
        return dataclasses.replace(config, traffic=traffic)
    if parameter == "homes":
        offices, evening = value
        pois = dataclasses.replace(config.pois, offices=int(offices),
                                   evening_spots=int(evening))
        return dataclasses.replace(config, pois=pois)
    raise ConfigError(f"unknown sweep parameter {parameter!r}; "
                      f"choose from {', '.join(SWEEP_PARAMETERS)}")


def sweep(config: ScenarioConfig, parameter: str, values: Sequence,
          seeds: Sequence[int], workers: Optional[int] = None,
          token_audit: bool = False,
          ) -> List[Tuple[object, List[MetricsReport]]]:
    """One batch per swept value, all other parameters fixed."""
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for value in values:
        derived = apply_sweep_value(config, parameter, value)
        rows.append((value, run_batch(derived, seeds, workers, token_audit)))
    return rows
