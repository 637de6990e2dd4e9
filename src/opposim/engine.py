"""Simulation engine: one world, the routing planes on it, and the clock.

The world (`Simulation`) is what every router sees alike: the map,
mobility, the WiFi role machine with its spatial grids, the world's random
streams and event heaps, the clock and the auditors. It also decides who
may become an access point: the AP gate. A routing plane (`Plane`) is what
a router decides: buffers, the links the world's associations open, the
transfers on them, messages, metrics, the traffic stream and the
forwarding policy. Configs that differ only in traffic run as planes of
one world, and each plane's report equals a run of its config alone.

Time advances on a fixed tick (1 s by default). Mobility and radio state
change at tick boundaries; transfer bytes are accounted continuously
inside a tick, so a transfer finishing mid-tick immediately frees
bandwidth for the next queued one. Everything is driven by per-node wake
times kept in heaps, which lets quiet stretches (a parked night, an empty
map) skip ahead instead of burning ticks.

A phone alone at home under hrson would loop all night through scan, AP
role, an idle minute and retirement. An AP that retires alone in the
cells around it, standing still, under a gate that draws nothing goes
dormant: it keeps its radio events on a heap of its own and sleeps on
those cells, as an idle client does. When a node enters them, its own
mobility wake comes due, the auditors run or the run ends, its events
are handled at the ticks the live loop would have handled them, with the
live handlers' steps; once its state repeats, the whole cycles left are
jumped in one step (`Simulation._catch_up`).

Reproducibility: a run is a pure function of (config, seed). The master
seed expands into independent named streams (world, mobility, traffic,
radio, policy) so reconfiguring one layer never perturbs another. Each is
an `rng.Stream`: numpy's PCG64 stream, reproduced without numpy.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

from . import radio as radio_mod
from .map_graph import SegmentLayout, parse_map, place_pois, synth_map
from .metrics import MetricsCollector, MetricsReport
from .mobility import DAY, MobilityError, MobilityModel, Mode, build_profiles
from .radio import (AP, CLIENT, CONNECTING, RESTING, SCANNING, RadioState,
                    VisibleAp, ap_due_retirement, assign_channel,
                    joiner_bandwidth_estimate, member_bandwidth_estimate,
                    should_switch_ap, step_radio)
from .rng import Stream
from .routing import (Buffer, BufferEntry, HasView, PeerSummary, RouterPolicy,
                      SendKey, buffer_admit, make_policy, router_name,
                      send_key, spray_split)
from .scenario import ConfigError, ScenarioConfig
# perfbench/workloads.py imports apply_sweep_value from here
from .scenario import apply_sweep_value  # noqa: F401
from .traffic import Message, make_message, next_creation

RNG_STREAMS = {"world": 1, "mobility": 2, "traffic": 3, "radio": 4,
               "policy": 5}
_LINKED = (AP, CLIENT)   # the phases that hold links
_MOVING = Mode.MOVING
_EAGER = -math.inf       # the check time of a node stepped every tick


class AuditError(RuntimeError):
    """An in-run invariant check failed."""


def stream_rng(seed: int, name: str) -> Stream:
    """Independent generator for one named stream of a run."""
    return Stream([int(seed), RNG_STREAMS[name]])


def shares_world(config: ScenarioConfig, other: ScenarioConfig) -> bool:
    """Whether two configs can run as routing planes of one world: they
    differ in `traffic` only."""
    return dataclasses.replace(config, traffic=other.traffic) == other


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


# ---------------------------------------------------------------------------
# Links and transfers
# ---------------------------------------------------------------------------

class Transfer:
    __slots__ = ("msg", "src", "dst", "remaining", "rate", "last_settle",
                 "link", "epoch")

    def __init__(self, msg: Message, src: int, dst: int, now: float, link):
        self.msg = msg
        self.src = src
        self.dst = dst
        self.remaining = float(msg.size)
        self.rate = 0.0
        self.last_settle = now
        self.link = link
        self.epoch = 0


class Link:
    """Established AP-client association carrying transfers both ways.

    `summary_key` is the sum of both ends' `Buffer.version` and refusal
    counts at the last summary exchange. Each of the four counts only
    grows, so the sum moves exactly when one of them moves: one int tells
    a refresh what the four counts would."""

    __slots__ = ("ap", "client", "queue", "queued", "active", "open",
                 "summary_key")

    def __init__(self, ap: int, client: int):
        self.ap = ap
        self.client = client
        self.queue: List[Tuple[SendKey, int, int]] = []   # (key, src, msg_id)
        self.queued: Set[Tuple[int, int]] = set()
        self.active: Optional[Transfer] = None
        self.open = True
        self.summary_key = -1     # no exchange yet; a key is never negative

    def other(self, nid: int) -> int:
        return self.client if nid == self.ap else self.ap


# ---------------------------------------------------------------------------
# The world
# ---------------------------------------------------------------------------

# Grid cell (cx, cy) has the key cx * _STRIDE + cy, one int. Keys differ
# while |cy| <= _STRIDE // 2 (see `_check_cell_range`). A cell's ring, the
# cell and its eight neighbours column by column, is its key plus `_RING`.
_STRIDE = 2 ** 20 + 1
_RING = tuple(dx * _STRIDE + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _tick_index(time: float, tick: float) -> int:
    """The last tick at or before `time`: the largest n with
    n * tick <= time, in the float arithmetic the clock uses."""
    n = math.floor(time / tick)
    while n * tick > time:
        n -= 1
    while (n + 1) * tick <= time:
        n += 1
    return n


def _tick_at_or_after(time: float, tick: float) -> int:
    """The first tick at or after `time`: the tick whose radio step
    handles an event due then, whichever ticks the loop visits."""
    n = _tick_index(time, tick)
    return n if n * tick >= time else n + 1


def _grid_remove(grid: Dict[int, Dict[int, None]], nid: int,
                 cell: int) -> None:
    """Take nid out of its bucket in a spatial grid; an emptied bucket
    goes, so a grid holds only the cells that hold a node."""
    bucket = grid[cell]
    del bucket[nid]
    if not bucket:
        del grid[cell]


def _co_channel_count(ap_near: Sequence[Set[int]], nid: int) -> int:
    """APs within range of AP nid, itself included: all APs share one
    channel."""
    return 1 + len(ap_near[nid])


class Simulation:
    """The world of a run (see the module docstring) and its routing
    planes, `planes`.

    Who may take the AP role is the world's rule: `ap_gate` fixes it for
    the nodes it names; under the home gate, `home_gate`, which router
    hrson sets, any other node must be at home, else it wins a `p_ap` coin
    from the policy stream, after a scan that found no AP.

    The world builds `planes[0]` from its own config; `add_plane` adds
    one whose config differs in `traffic` only. run() drives every plane
    and returns the first one's report, leaving each plane's on its
    `report`. Auditors are called as `aud(sim, t)` every `audit_interval`
    simulated seconds, after the tick's transfers."""

    def __init__(self, config: ScenarioConfig, seed: int,
                 static_positions: Optional[Sequence[Tuple[float, float]]] = None,
                 ap_gate: Optional[Dict[int, bool]] = None,
                 scripted_moves: Optional[Sequence[Tuple[float, int, Tuple[float, float]]]] = None,
                 auditors: Optional[Sequence[Callable]] = None,
                 audit_interval: float = 100.0,
                 token_audit: bool = False):
        config.validate()
        self.config = config
        self.seed = int(seed)
        self.auditors = list(auditors or [])
        if token_audit:
            self.auditors.append(_audit_tokens)
        self.audit_interval = audit_interval
        self.timing = config.radio.timing
        self.link_model = config.radio.link
        self.ap_gate = dict(ap_gate or {})
        self.home_gate = router_name(config.routing.router) == "hrson"
        self.rng_world = stream_rng(seed, "world")
        self.rng_mobility = stream_rng(seed, "mobility")
        self.rng_radio = stream_rng(seed, "radio")
        self.rng_policy = stream_rng(seed, "policy")
        self._build_model(static_positions)
        self.scripted_moves = sorted(scripted_moves or [])

        n = self.n_nodes
        self.radio: List[RadioState] = [RadioState() for _ in range(n)]
        self.epoch = [0] * n            # bumps invalidate stale radio events
        self.clock = 0.0
        self._radio_seq = 0
        self.radio_events: List[Tuple[float, int, int, str, int]] = []
        self.mobility_events: List[Tuple[float, int]] = []

        # spatial hash: every node in `grid`, AP-role nodes also in `ap_grid`.
        # A node at (x, y) is in cell (cx, cy) = (int(x // cell_size),
        # int(y // cell_size)), keyed cx * _STRIDE + cy here and in
        # `cellver`, `node_cell`, `lazy_count` and `watchers`; its ring,
        # column by column, is that key plus each offset of `_RING`.
        self.cell_size = self.link_model.range
        self._check_cell_range(static_positions)
        self.grid: Dict[int, Dict[int, None]] = {}
        self.ap_grid: Dict[int, Dict[int, None]] = {}
        # AP -> the other APs within range; empty for every other node
        self.ap_near: List[Set[int]] = [set() for _ in range(n)]
        self.cellver: Dict[int, int] = {}
        self.node_cell: List[int] = [0] * n
        self.pos: List[Tuple[float, float]] = [(0.0, 0.0)] * n
        self.moving: Set[int] = set()
        # a free mover is stepped only from its check time on (see
        # _mobility_step): check_at[nid] is that time, _EAGER for the nodes
        # stepped every tick, and lazy_count[cell] the movers skipped in a
        # cell
        self.check_at: List[float] = [_EAGER] * n
        self.lazy_count: Dict[int, int] = {}
        self.client_scan_key: Dict[int, Tuple] = {}
        # nodes sleep on their ring's cells until `_bump_cell` wakes them:
        # watchers[cell] maps each node asleep on it to its token, its
        # sleep record: asleep[nid], a 1-tuple of an idle CLIENT's poll
        # time, or dormant[nid], a dormant AP's radio events (see _catch_up)
        self.asleep: List[Optional[Tuple[float]]] = [None] * n
        self.watchers: Dict[int, Dict[int, object]] = {}
        self._radio_mark: Tuple = (-math.inf,)  # largest live event handled
        self.dormant: Dict[int, List[Tuple[float, int, int, str, int]]] = {}
        # the replay jumps repeated cycles only when every time it computes
        # is a whole number of seconds, which float arithmetic keeps exact
        lonely_cycle = (config.tick, self.timing.t_scan, self.timing.t_rest,
                        self.timing.t_ap, config.radio.ap_idle_timeout,
                        config.radio.ap_max_duration)
        self._replay_jumps = (
            all(float(v).is_integer() for v in lonely_cycle)
            and config.duration + sum(lonely_cycle) < 2 ** 53)

        self._init_positions()
        self._init_radio()
        self.planes: List[Plane] = []
        self.add_plane(config)

    # -- construction ---------------------------------------------------------

    def add_plane(self, config: ScenarioConfig) -> Plane:
        """A routing plane for `config` on this world, which has not started
        running; the config may differ from the world's in `traffic` only."""
        config.validate()
        if self.clock > 0.0:
            raise ConfigError("a routing plane joins a world that has not "
                              "started running")
        if not shares_world(config, self.config):
            raise ConfigError("a routing plane shares its world's every "
                              "setting but traffic")
        plane = Plane(config, self.seed, self.n_nodes, self.ap_near)
        self.planes.append(plane)
        return plane

    def _build_model(self, static_positions) -> None:
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

    def _check_cell_range(self, static_positions) -> None:
        """Refuse a run that can reach a cell whose ring shares a key with
        another cell: nodes stay within the map's bounds or at their static
        and scripted positions, whose cells need |cy| < _STRIDE // 2. cx
        needs no bound, as Python ints do not overflow."""
        ys = ([0.0, self.graph.bounds[1]] if static_positions is None
              else [p[1] for p in static_positions])
        for y in ys + [p[1] for _, _, p in self.scripted_moves]:
            if not abs(y // self.cell_size) < _STRIDE // 2:
                raise ConfigError(f"position y = {y} lies beyond the cells "
                                  f"the grid keys at range {self.cell_size}")

    def _init_positions(self) -> None:
        size = self.cell_size
        for nid in range(self.n_nodes):
            p = self.model.position(nid, 0.0)
            self.pos[nid] = p
            cell = int(p[0] // size) * _STRIDE + int(p[1] // size)
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

    # -- small helpers ----------------------------------------------------------

    def _push_radio(self, time: float, nid: int, kind: str) -> None:
        """A radio event of nid, on the world's heap or, while nid is
        dormant, on its own."""
        self._radio_seq += 1
        heapq.heappush(self.dormant.get(nid, self.radio_events),
                       (time, nid, self._radio_seq, kind, self.epoch[nid]))

    def _bump_cell(self, cell: int) -> None:
        """Something in the cell changed: bump its version and wake the
        nodes asleep on it, the one place where a cell's change wakes one.

        Every registration is current: its token is the node's sleep
        record, `asleep[nid]` or `dormant[nid]`, and a sleeper that wakes
        drops its registrations (`_unwatch`). A node that acts bumps its
        own cell and a dormant ring holds only its owner, so a dormant node
        wakes only when a node enters its ring, before `_apply_move` moves
        the grids."""
        self.cellver[cell] = self.cellver.get(cell, 0) + 1
        sleepers = self.watchers.pop(cell, None)
        if sleepers:
            asleep = self.asleep
            for nid, token in sleepers.items():
                if token is asleep[nid]:
                    asleep[nid] = None
                    self._unwatch(nid, token)
                    self._push_radio(self._next_poll(nid, token[0]), nid,
                                     "rescan")
                elif token is self.dormant.get(nid):
                    self._wake(nid,
                               _tick_index(self.clock, self.config.tick) - 1)

    def _unwatch(self, nid: int, token) -> None:
        """Drop sleeper nid's registrations, those with its sleep record
        `token`, from the ring it slept on: its cell's, as a sleeper that
        moves bumps its old cell, and so wakes, before the grids move."""
        watchers = self.watchers
        own = self.node_cell[nid]
        for d in _RING:
            bucket = watchers.get(own + d)
            if bucket is not None and bucket.get(nid) is token:
                del bucket[nid]
                if not bucket:
                    del watchers[own + d]

    def _next_poll(self, nid: int, last: float) -> float:
        """Event time of the first poll that has not run yet in the chain
        a client polling every `client_rescan` would have run after its
        poll at tick `last`. Each poll is handled at the first tick at or
        after its event time and pushes the next one from that tick.

        A poll due at the current tick has run if its event sorts below
        the largest live event handled so far. The poll would have been in
        the heap since an earlier tick, so it went before any larger
        event; an event that goes after a larger one was pushed by a
        handler after that one ran. A poll pushes nothing for the tick it
        runs in, so the largest event handled is never a poll, and the
        polling loop handled it too."""
        rescan = self.config.radio.client_rescan
        tick = self.config.tick
        now = self.clock
        while True:
            due = last + rescan
            last = _tick_at_or_after(due, tick) * tick
            if last > now or (last == now and (due, nid) > self._radio_mark):
                return due

    def _neighbors(self, nid: int,
                   grid: Dict[int, Dict[int, None]]) -> List[int]:
        """Nodes of `grid` within radio range of nid, nid excluded, in the
        order of nid's ring, its cell key plus `_RING`: cell by cell,
        column by column, and within a cell in the bucket's insertion
        order."""
        pos = self.pos
        px, py = pos[nid]
        r2 = self.cell_size * self.cell_size
        cell = self.node_cell[nid]
        out = []
        for d in _RING:
            bucket = grid.get(cell + d)
            if bucket:
                for other in bucket:
                    if other != nid:
                        ox, oy = pos[other]
                        if (ox - px) ** 2 + (oy - py) ** 2 <= r2:
                            out.append(other)
        return out

    def _ap_allowed(self, nid: int) -> bool:
        """The AP gate, asked after a scan that found no AP."""
        fixed = self.ap_gate.get(nid)
        if fixed is not None:
            return fixed
        if self.home_gate:
            return self.model.at_home(nid)
        return self.rng_policy.random() < self.config.radio.p_ap

    def _set_ap_near(self, nid: int, near) -> Set[int]:
        """Record `near` as the APs in range of AP nid, on both sides;
        returns the APs that left its range."""
        ap_near = self.ap_near
        old = ap_near[nid]
        new = set(near)
        left = old - new
        for other in left:
            ap_near[other].discard(nid)
        for other in new - old:
            ap_near[other].add(nid)
        ap_near[nid] = new
        return left

    def _visible_aps(self, nid: int) -> List[VisibleAp]:
        out = []
        for other in self._neighbors(nid, self.ap_grid):
            est = joiner_bandwidth_estimate(
                self.link_model,
                _co_channel_count(self.ap_near, other),
                len(self.radio[other].clients))
            out.append(VisibleAp(other, est))
        if len(out) > 1:
            out.sort(key=lambda v: (-v.estimated_bandwidth, v.node_id))
        return out

    # -- run loop ----------------------------------------------------------------

    def run(self) -> MetricsReport:
        """Run the world and all its planes; returns the first plane's
        report.

        Tick n is visited at time n * tick, however the loop got there,
        so a time on the tick grid is the same float whichever ticks were
        visited before it."""
        cfg = self.config
        tick = cfg.tick
        end = cfg.duration
        planes = self.planes
        self._next_audit = self.audit_interval if self.auditors else math.inf
        self._move_idx = 0
        day = 1
        n = 0
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
            # a plane step runs only when the head of its queue is due; the
            # step's own loop asks the same of every later entry
            for plane in planes:
                ttl = plane.ttl_events
                if ttl and ttl[0][0] < t:
                    plane._expire_messages(t)
                due = plane.next_create
                if due is not None and due <= t:
                    plane._create_traffic(t)
            self._mobility_step(t)
            self._radio_step(t)
            window_end = (n + 1) * tick
            for plane in planes:
                refresh = plane.refresh_events
                if refresh and refresh[0][0] <= t:
                    plane._refresh_step(t)
                sends = plane.transfer_events
                if sends and sends[0][0] <= window_end:
                    plane._transfer_step(t, window_end)
            if t >= self._next_audit:
                # the auditors see dormant nodes and skipped movers as the
                # live loop has them
                for nid in self.dormant:
                    self._catch_up(nid, n)
                self._bring_lazy_up(t)
            while t >= self._next_audit:
                for aud in self.auditors:
                    aud(self, t)
                self._next_audit += self.audit_interval
            n = self._next_tick(n, tick, end, day)
            self.clock = n * tick
        for nid in list(self.dormant):
            self._wake(nid, n - 1)
        self._bring_lazy_up(t)
        for plane in planes:
            plane.report = plane._finalize(end)
        return planes[0].report

    def _next_tick(self, n: int, tick: float, end: float, day: int) -> int:
        """Index of the next tick to visit after tick n.

        A world event due before tick n + 2 forces tick n + 1 whatever the
        rest of the horizon holds: the last tick at or before its time is
        at most n + 1, so the planes are asked only when a skip is
        possible."""
        if self.moving or self._move_idx < len(self.scripted_moves):
            return n + 1
        # idle fast-forward: the last tick at or before the earliest
        # pending event
        soon = (n + 2) * tick
        horizon = min(end, day * DAY, self._next_audit)
        for heap in (self.radio_events, self.mobility_events):
            if heap:
                if heap[0][0] < soon:
                    return n + 1
                horizon = min(horizon, heap[0][0])
        for plane in self.planes:
            due = plane._horizon(tick)
            if due < horizon:
                horizon = due
        return max(n + 1, _tick_index(horizon, tick))

    # -- mobility ------------------------------------------------------------------

    def _mobility_step(self, t: float) -> None:
        """Mobility wakes due by tick t, then a step of every mover.

        A free mover, one with no link (neither AP nor CLIENT) that moves
        inside its cell, only moves and bumps its cell: `_apply_move` has
        no link of it to check and no AP neighbours to settle. A free node on
        foot or in a car (mode MOVING) whose step bumped its cell is skipped
        until its check time, `Leg.exit_time`, the earliest time its leg
        segment can leave the cell or end; at the first tick from then on
        it is stepped as every tick, so `Polyline.at` still decides its
        cell. Bus riders and linked movers are stepped every tick. The
        reports are those of stepping every mover every tick:

        - A skipped mover's cell stays exact. Its position is stale, and
          is brought up to the tick where it is read: at its own scan ends
          (`_phase_event`), in `_finish_connect`, before the auditors run
          and at the end of the run. No other node reads it: scans and
          link checks read APs and clients, and `_resettle_neighborhood`
          keeps only busy APs of the neighbours it lists.
        - Its cell is not bumped while it is skipped, where every tick
          bumped it. `cellver` is read only through a client's scan key,
          and `_rescan_finds_change` counts a cell that holds a skipped
          mover as changed: it was bumped at this very tick, by the step
          that armed the mover or by a skipped one. A mover leaves the
          skipped set with a bump of its cell: the step at its check
          time, `_apply_move` at its mobility wake (its stale position
          lies before its leg's end) or a move, `_ap_created`, and
          `_finish_connect`. So each interval between two scans sees a
          change of the cell, or the skipped mover at its end, exactly
          when the per-tick bumps changed the cell in it.
        - The bumps left out wake no one. No client sleeps on a cell that
          holds a skipped mover: the bump that arms a mover wakes the
          cell's sleepers, and no client goes to sleep on a changed cell.
          No dormant ring holds it: it stays in its cell, and no node goes
          dormant with another in its ring."""
        model = self.model
        events = self.mobility_events
        while events and events[0][0] <= t:
            _, nid = heapq.heappop(events)
            if nid in self.dormant:
                self._wake(nid, _tick_index(t, self.config.tick) - 1)
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
        if not self.moving:
            return
        pos = self.pos
        node_cell = self.node_cell
        radio = self.radio
        size = self.cell_size
        check_at = self.check_at
        for nid in list(self.moving):
            if check_at[nid] > t:
                continue
            newpos = model.position(nid, t)
            cell = node_cell[nid]
            free = radio[nid].phase not in _LINKED
            if free and (int(newpos[0] // size) * _STRIDE
                         + int(newpos[1] // size)) == cell:
                if newpos != pos[nid]:
                    pos[nid] = newpos
                    self._bump_cell(cell)
                    self._arm(nid, t)
            else:
                self._apply_move(nid, newpos, t)
                if free:            # it changed cell
                    self._arm(nid, t)

    def _arm(self, nid: int, t: float) -> None:
        """Free mover nid was stepped at tick t with a bump of its cell: on
        foot or in a car, it is skipped until its check time, if that lies
        past the next tick (see `_mobility_step`)."""
        state = self.model.nodes[nid]
        if state.mode is not _MOVING:
            return
        cell = self.node_cell[nid]
        cx, cy = divmod(cell + _STRIDE // 2, _STRIDE)
        until = state.leg.exit_time(t, (cx, cy - _STRIDE // 2),
                                    self.cell_size)
        if until > t + self.config.tick:
            if self.check_at[nid] == _EAGER:
                self.lazy_count[cell] = self.lazy_count.get(cell, 0) + 1
            self.check_at[nid] = until
        elif self.check_at[nid] != _EAGER:
            self._unarm(nid)

    def _unarm(self, nid: int) -> None:
        """Skipped mover nid is stepped every tick again."""
        self.check_at[nid] = _EAGER
        cell = self.node_cell[nid]
        left = self.lazy_count[cell] - 1
        if left:
            self.lazy_count[cell] = left
        else:
            del self.lazy_count[cell]

    def _bring_up(self, nid: int, t: float) -> None:
        """Skipped mover nid's position at tick t, where it is read."""
        self.pos[nid] = self.model.position(nid, t)

    def _bring_lazy_up(self, t: float) -> None:
        """Every skipped mover's position at tick t."""
        check_at = self.check_at
        for nid in self.moving:
            if check_at[nid] != _EAGER:
                self._bring_up(nid, t)

    def _apply_move(self, nid: int, newpos: Tuple[float, float],
                    t: float) -> None:
        if self.check_at[nid] != _EAGER:
            self._unarm(nid)
        if newpos == self.pos[nid]:
            return
        old_cell = self.node_cell[nid]
        new_cell = (int(newpos[0] // self.cell_size) * _STRIDE
                    + int(newpos[1] // self.cell_size))
        if nid in self.dormant:
            # in its old cell, as the live loop has it before the radio step
            self._wake(nid, _tick_index(t, self.config.tick) - 1)
        self._bump_cell(old_cell)
        self.pos[nid] = newpos
        is_ap = self.radio[nid].phase is AP
        if new_cell != old_cell:
            self._bump_cell(new_cell)       # before the grids move
            _grid_remove(self.grid, nid, old_cell)
            self.grid.setdefault(new_cell, {})[nid] = None
            self.node_cell[nid] = new_cell
            if is_ap:
                _grid_remove(self.ap_grid, nid, old_cell)
                self.ap_grid.setdefault(new_cell, {})[nid] = None
        if is_ap:
            near = self._neighbors(nid, self.ap_grid)
            if (not near and not self.ap_near[nid]
                    and not self.radio[nid].clients):
                # a lonely AP: no link to check, and no AP whose rate or
                # neighbour set it changes; with no client no plane has a
                # send of it to settle
                return
            left = self._set_ap_near(nid, near)
        self._check_links_of(nid, t)
        if is_ap:
            # a moving AP drags co-channel interference along with it: to
            # the APs now in range, and away from those it left
            for plane in self.planes:
                plane._settle_ap(nid, t)
            self._resettle_neighborhood(nid, self.ap_near[nid], t)
            for plane in self.planes:
                for other in sorted(left):
                    plane._settle_ap(other, t)

    def _check_links_of(self, nid: int, t: float) -> None:
        """Immediate link teardown on range exit, both roles."""
        r2 = self.link_model.range ** 2
        state = self.radio[nid]
        if state.phase is CLIENT:
            ap = state.attached_ap
            ax, ay = self.pos[ap]
            x, y = self.pos[nid]
            if (ax - x) ** 2 + (ay - y) ** 2 > r2:
                self._detach_client(nid, t, rescan=True)
        elif state.phase is AP:
            x, y = self.pos[nid]
            for client in sorted(state.clients):
                cx, cy = self.pos[client]
                if (cx - x) ** 2 + (cy - y) ** 2 > r2:
                    self._detach_client(client, t, rescan=True)

    # -- radio ---------------------------------------------------------------------

    def _radio_step(self, t: float) -> None:
        events = self.radio_events
        while events and events[0][0] <= t:
            event = heapq.heappop(events)
            _, nid, _, kind, epoch = event
            if epoch != self.epoch[nid]:
                continue
            if event > self._radio_mark:
                self._radio_mark = event
            if kind == "phase":
                self._phase_event(nid, t)
            elif kind == "apcheck":
                self._apcheck_event(nid, t)
            elif kind == "rescan":
                self._client_rescan(nid, t)
            elif kind == "rescan_result":
                self._client_rescan_result(nid, t)

    def _phase_event(self, nid: int, t: float) -> None:
        """nid's phase timer ran out. nid is neither AP nor CLIENT: a node
        has at most one live phase event, and takes either role only while
        handling it (`_timer_step`, `_finish_connect`), without pushing
        another; it leaves either role only through `_leave_ap_role` or
        `_detach_client`, which bump its epoch before a new phase event is
        pushed."""
        state = self.radio[nid]
        phase = state.phase
        if phase is CONNECTING:
            self._finish_connect(nid, t)
            return
        if phase is RESTING:
            visible = []
        else:
            if self.check_at[nid] != _EAGER:
                self._bring_up(nid, t)
            visible = self._visible_aps(nid)
        if self._timer_step(nid, state, visible, t):
            self._ap_created(nid, t)

    def _ap_created(self, nid: int, t: float) -> None:
        """nid takes the AP role and joins the world's APs; a skipped
        mover is stepped every tick from now on. No AP is in range of it:
        `step_radio` makes a node an AP only when the `_visible_aps` that
        `_phase_event` has just called found none, so its `ap_near` stays
        empty and no other AP's rate changes."""
        self._take_ap_role(nid, self.radio[nid], t)
        if self.check_at[nid] != _EAGER:
            self._unarm(nid)
        cell = self.node_cell[nid]
        self.ap_grid.setdefault(cell, {})[nid] = None
        self._bump_cell(cell)

    def _resettle_neighborhood(self, nid: int, near, t: float) -> None:
        """Re-derive rates of the APs in `near`, those in range of AP nid
        when it appeared, moved or retired, on every plane.

        Settle order assigns the `_seq` tie-breaks of transfer completions.
        The order is the full grid's: cell by cell, and within a cell the
        order in which nodes entered it. `near` does not keep that order,
        so it only finds the busy APs, those with a plane's `ap_active`
        entry; two or more are put back in full-grid order."""
        order = None
        for plane in self.planes:
            ap_active = plane.ap_active
            busy = [o for o in near if o in ap_active]
            if len(busy) > 1:
                if order is None:
                    order = self._neighbors(nid, self.grid)
                busy = [o for o in order if o in busy]
            for other in busy:
                plane._settle_ap(other, t)

    def _apcheck_event(self, nid: int, t: float) -> None:
        if self._apcheck_step(nid, self.radio[nid], t):
            self._retire_ap(nid, t)

    def _retire_ap(self, nid: int, t: float) -> None:
        state = self.radio[nid]
        # closing its links ends its sends, so no plane keeps an
        # `ap_active` entry for it
        for client in sorted(state.clients):
            self._detach_client(client, t, rescan=True, ap_alive=False)
        cell = self.node_cell[nid]
        _grid_remove(self.ap_grid, nid, cell)
        if self._may_go_dormant(nid):
            self.dormant[nid] = []
        self._leave_ap_role(nid, state, t)
        near = self._set_ap_near(nid, ())
        self._bump_cell(cell)
        heap = self.dormant.get(nid)
        if heap is not None:        # registered after its own bump
            for d in _RING:
                self.watchers.setdefault(cell + d, {})[nid] = heap
        self._resettle_neighborhood(nid, near, t)

    # -- the AP cycle ---------------------------------------------------------
    # A node's own steps through scan, AP role and retirement. Their events
    # go through `_push_radio`, so a dormant node's stay on its own heap.
    # The live handlers update the world around each step; a dormant node's
    # replay updates it once, when it is done.

    def _timer_step(self, nid: int, state: RadioState, visible,
                    t: float) -> bool:
        """A scanning, resting or becoming-AP node whose timer ran out takes
        its next phase, asking the AP gate after a scan that found no AP.
        True if it took the AP role; else its next phase event is pushed."""
        permits = (not visible and state.phase is SCANNING
                   and self._ap_allowed(nid))
        step_radio(state, permits, visible, t, self.timing)
        if state.phase is AP:
            return True
        self._push_radio(state.timer_expiry, nid, "phase")
        return False

    def _take_ap_role(self, nid: int, state: RadioState, t: float) -> None:
        """A new AP checks for retirement at its longest term and its first
        idle deadline.

        Its `assign_channel` call, whose answer nothing reads, is kept so
        that the traced `radio.assign_channel.calls` counts the AP roles
        stepped, live or replayed; the roles a dormant replay jumps over
        are not stepped."""
        assign_channel(())
        self._push_radio(t + self.config.radio.ap_max_duration, nid, "apcheck")
        self._push_radio(t + self.config.radio.ap_idle_timeout, nid, "apcheck")

    def _apcheck_step(self, nid: int, state: RadioState, t: float) -> bool:
        """True if the AP is due to retire; else an AP without clients
        checks again at its idle deadline.

        nid is an AP: apchecks are pushed only for an AP, and a node
        leaves the AP role only by retiring, whose `_leave_ap_role` bumps
        its epoch and so voids them all."""
        radio = self.config.radio
        if ap_due_retirement(state, t, radio.ap_idle_timeout,
                             radio.ap_max_duration):
            return True
        if not state.clients:
            # not due, so the deadline lies after t
            self._push_radio(state.last_client_change + radio.ap_idle_timeout,
                             nid, "apcheck")
        return False

    def _leave_ap_role(self, nid: int, state: RadioState, t: float) -> None:
        """A retiring AP voids its pending events and scans again."""
        self.epoch[nid] += 1
        self._scan_again(nid, state, t)

    def _scan_again(self, nid: int, state: RadioState, t: float) -> None:
        """nid starts a new scan now."""
        state.reset_to_scan(t, self.timing)
        self._push_radio(state.timer_expiry, nid, "phase")

    # -- dormant nodes -----------------------------------------------------------

    def _may_go_dormant(self, nid: int) -> bool:
        """A retiring AP goes dormant when no other node is in its ring, it
        is not moving (its next move would wake it), and the AP gate
        answers it without a draw: a fixed `ap_gate` entry, or the home
        gate, which answers yes at home and no elsewhere."""
        if nid in self.moving or not (self.home_gate or nid in self.ap_gate):
            return False
        grid = self.grid
        own = self.node_cell[nid]
        if len(grid[own]) > 1:
            return False
        for d in _RING:
            if d and own + d in grid:
                return False
        return True

    def _catch_up(self, nid: int, last: int) -> None:
        """Handle dormant nid's events due up to tick `last`, each at the
        tick the live loop handles it, with the steps the live handlers
        take, then update the world around nid once.

        Left alone, such a node loops through scan, AP role and retirement
        until a node enters its ring, its own mobility wake comes due or
        the run ends, and the reports are those of the live loop:

        - An event is handled at the first tick at or after its time,
          whichever ticks the loop visits, and tick n is visited at
          n * tick. A tick with no event does nothing, so the idle
          fast-forward may skip the ticks a dormant node's events forced.
        - Nothing nid reads changes while it sleeps. Its scans find no AP:
          the bump of a cell a node enters wakes it (`_bump_cell`). The home
          gate reads nid's activity, which only nid's own mobility wake
          changes, and that wake wakes it first; `begin_day` plans the
          next day and moves no one. A fixed `ap_gate` entry is fixed.
        - Nothing nid changes is read while it sleeps. Range is one cell,
          so no node outside its ring sees it; it has no clients and no
          links; a new AP has no AP in range, so its `ap_near` stays
          empty. A node connecting to it from afar fails on range
          whatever its phase, and the auditors see it caught up to their
          tick.
        - Its cell bumps skip `_bump_cell`, which would wake nid itself: a
          client watching its cell would lie in its ring.
        - `_radio_mark` cannot tell a skipped event apart. nid's steps
          push nid's events only, so an event of another node handled
          after one of nid's descends from an event that was in the heap
          when nid's was popped, and sorts above it. Whenever another
          node's handler reads the mark, it already lies above every
          event nid would have handled.
        - `_radio_seq` breaks ties only between events of one node at one
          time. nid's events draw it from the world's counter, as live
          events do, and `_wake` returns them to the world's heap as they
          are, so they keep the order in which nid pushed them.
        - The gate draws nothing, so `rng_policy` is drawn as before.

        Once nid's state repeats, the replay jumps the whole periods left
        before tick `last` in one step. After each handled event it keys
        the state relative to the tick t: the event's kind, the phase,
        `timer_expiry`, `ap_since` and `last_client_change` less t, and
        the offset from t and kind of each live event on nid's heap, in
        heap order. The jump is exact:

        - A repeated key repeats until the wake. nid's steps read its
          state, its live events, the tick and the gate's answer; the
          rest of its state is empty (no clients, no AP, no target), and
          the gate's answer cannot change while nid sleeps. So the steps
          from two handled events with the same key, at ticks n0 < n, are
          the same steps P = (n - n0) * tick apart, and so is every
          period after them. m whole periods fit before tick `last`; the
          jump shifts nid's times and live events by m * P and adds m
          periods' worth of epochs and cell bumps.
        - The arithmetic does not see the shift. The replay jumps only
          when the tick and the scan, rest, AP, idle and longest-term
          times are whole seconds (`_replay_jumps`). Every time the cycle
          computes is then a visited tick, or one plus such settings, a
          whole number below 2 ** 53: sums, differences and comparisons
          are exact, `_tick_at_or_after` corrects its quotient with exact
          products, and P is a whole number of ticks. A 0.3 s tick or a
          37.7 s idle timeout rounds differently at different times, and
          the replay then stays event by event.
        - Nothing can tell the jump apart. The stale events it drops are
          skipped when popped and never leave nid's heap, and the live
          ones go back in their old order. The numbers of `_radio_seq`
          that the skipped pushes would have drawn only broke ties
          between nid's own events, which the replay's numbers order
          alike."""
        events = self.dormant[nid]
        state = self.radio[nid]
        epochs = self.epoch
        tick = self.config.tick
        upto = last * tick
        was_ap = state.phase is AP
        bumps = 0
        seen = {} if self._replay_jumps else None
        while events and events[0][0] <= upto:
            time, _, _, kind, epoch = heapq.heappop(events)
            if epoch != epochs[nid]:
                continue
            n = _tick_at_or_after(time, tick)
            t = n * tick
            if kind == "phase":
                if self._timer_step(nid, state, (), t):
                    self._take_ap_role(nid, state, t)
                    bumps += 1
            elif self._apcheck_step(nid, state, t):
                self._leave_ap_role(nid, state, t)
                bumps += 1
            if seen is None:
                continue
            epoch = epochs[nid]
            live = sorted(e for e in events if e[4] == epoch)
            key = (kind, state.phase, state.timer_expiry - t,
                   state.ap_since - t, state.last_client_change - t,
                   tuple((e[0] - t, e[3]) for e in live))
            n0, epoch0, bumps0 = seen.setdefault(key, (n, epoch, bumps))
            if n0 == n:
                continue
            seen = None
            periods = (last - n) // (n - n0)
            shift = periods * (n - n0) * tick
            state.timer_expiry += shift
            state.ap_since += shift
            state.last_client_change += shift
            epochs[nid] += periods * (epoch - epoch0)
            bumps += periods * (bumps - bumps0)
            events.clear()
            for time, _, _, kind, _ in live:
                self._push_radio(time + shift, nid, kind)
        if not bumps:
            return
        cell = self.node_cell[nid]
        self.cellver[cell] = self.cellver.get(cell, 0) + bumps
        is_ap = state.phase is AP
        if is_ap and not was_ap:
            self.ap_grid.setdefault(cell, {})[nid] = None
        elif was_ap and not is_ap:
            _grid_remove(self.ap_grid, nid, cell)

    def _wake(self, nid: int, last: int) -> None:
        """nid stops being dormant after tick `last`: its events up to that
        tick are handled, the rest go to the world's heap, and the ring it
        registered on, before any move, drops its registrations."""
        self._catch_up(nid, last)
        heap = self.dormant.pop(nid)
        self._unwatch(nid, heap)
        epoch = self.epoch[nid]
        for event in heap:
            if event[4] == epoch:
                heapq.heappush(self.radio_events, event)

    def _finish_connect(self, nid: int, t: float) -> None:
        """CONNECTING nid attaches to its target if that is still an AP in
        range, else scans again. Every entry into CONNECTING sets the
        target (`step_radio`, `_client_rescan_result`). A skipped mover
        that attaches is stepped every tick from now on, and bumps its
        cell as it leaves the skipped set (see `_mobility_step`)."""
        state = self.radio[nid]
        target = state.connect_target
        state.connect_target = None
        tstate = self.radio[target]
        r2 = self.link_model.range ** 2
        ok = tstate.phase is AP
        if ok:
            if self.check_at[nid] != _EAGER:
                self._bring_up(nid, t)
            tx, ty = self.pos[target]
            x, y = self.pos[nid]
            ok = (tx - x) ** 2 + (ty - y) ** 2 <= r2
        if not ok:
            self._scan_again(nid, state, t)
            return
        state.phase = CLIENT
        state.attached_ap = target
        tstate.clients[nid] = None
        tstate.last_client_change = t
        self._bump_cell(self.node_cell[target])
        if self.check_at[nid] != _EAGER:
            self._unarm(nid)
            self._bump_cell(self.node_cell[nid])
        self.client_scan_key.pop(nid, None)
        self._push_radio(t + self.config.radio.client_rescan, nid, "rescan")
        for plane in self.planes:
            plane._establish_link(target, nid, t)

    def _detach_client(self, nid: int, t: float, rescan: bool,
                       ap_alive: bool = True) -> None:
        """End CLIENT nid's association. Every caller passes an attached
        client: a node is CLIENT exactly while it has an `attached_ap`, as
        `_finish_connect` sets both and a CLIENT leaves that phase only
        through this method, whose callers then scan or connect again; and
        each of an AP's `clients` is attached to it."""
        state = self.radio[nid]
        ap = state.attached_ap
        state.attached_ap = None
        # every plane opened a link on the association (`_finish_connect`)
        for plane in self.planes:
            plane._close_link(plane.links[nid][ap], t)
        if ap_alive:
            apstate = self.radio[ap]
            apstate.clients.pop(nid, None)
            apstate.last_client_change = t
            self._bump_cell(self.node_cell[ap])
            if not apstate.clients:
                self._push_radio(t + self.config.radio.ap_idle_timeout,
                                 ap, "apcheck")
        self.epoch[nid] += 1
        token = self.asleep[nid]
        if token is not None:
            self.asleep[nid] = None
            self._unwatch(nid, token)
        if rescan:
            self._scan_again(nid, state, t)

    def _client_rescan(self, nid: int, t: float) -> None:
        """A CLIENT's background look for a faster AP, `client_rescan`
        after it connected or last scanned.

        When the versions of the nine cells around it and its AP are those
        of its last scan, it does not scan: it sleeps, registered on those
        cells, until `_bump_cell` wakes it with the poll that a client
        polling every `client_rescan` would have handled next. That poll
        is the first to find a changed key, so the reports are those of
        the polling loop:

        - `cellver` only grows: until a cell of the ring is bumped every
          poll finds the same key and only pushes the next one, and after
          it every poll finds a changed one.
        - A client that changes cell bumps its old cell, which is in the
          ring it slept on.
        - A change of AP goes through detach, which voids the token, and
          connect, which starts a new chain.
        - `_radio_seq` breaks ties only between events of one node at one
          time, and a CLIENT has at most one live event, so the polls
          left out reorder nothing.
        - A tick with no event does nothing, and tick n is visited at
          n * tick, so the idle fast-forward may skip the ticks the polls
          used to force.

        nid is a CLIENT: rescan events are pushed only for a CLIENT, and a
        CLIENT leaves that phase only through `_detach_client`, which bumps
        its epoch and so voids them."""
        own = self.node_cell[nid]
        ring = [own + d for d in _RING]
        if not self._rescan_finds_change(nid, ring):
            token = self.asleep[nid] = (t,)   # a new object each time
            for cell in ring:
                self.watchers.setdefault(cell, {})[nid] = token
            return
        self._push_radio(t + self.timing.t_scan, nid, "rescan_result")

    def _rescan_finds_change(self, nid: int, ring) -> bool:
        """Whether CLIENT nid's ring changed since its last background
        scan, which then records the ring's new scan key: the versions of
        its nine cells and nid's AP. A cell that holds a skipped mover
        counts as changed, as stepping that mover every tick bumped it
        (see `_mobility_step`)."""
        key = (*map(self.cellver.get, ring), self.radio[nid].attached_ap)
        lazy = self.lazy_count
        if (self.client_scan_key.get(nid) == key
                and (not lazy or lazy.keys().isdisjoint(ring))):
            return False
        self.client_scan_key[nid] = key
        return True

    def _client_rescan_result(self, nid: int, t: float) -> None:
        """A CLIENT's background scan ends: it moves to a visible AP that
        `should_switch_ap` prefers, or polls again `client_rescan` later.
        nid is a CLIENT, as in `_client_rescan`: its rescan events are
        pushed only while it is one, and `_detach_client` voids them."""
        state = self.radio[nid]
        ap = state.attached_ap
        current = member_bandwidth_estimate(
            self.link_model, _co_channel_count(self.ap_near, ap),
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
            state.phase = CONNECTING
            state.connect_target = best.node_id
            state.timer_expiry = t + self.timing.t_connect
            self._push_radio(state.timer_expiry, nid, "phase")
        else:
            self._push_radio(t + self.config.radio.client_rescan, nid, "rescan")


def _audit_tokens(sim: Simulation, t: float) -> None:
    """The auditor `token_audit` adds: the spray custody check on every
    plane."""
    for plane in sim.planes:
        plane._check_tokens(t)


# ---------------------------------------------------------------------------
# Routing planes
# ---------------------------------------------------------------------------

class Plane:
    """One router's state on a world: buffers, the links the world's
    associations open, the transfers on them, messages and their metrics,
    the traffic stream and the forwarding policy.

    A plane holds no reference to its world, so neither is in a
    reference cycle. The world calls it when a link opens or closes and
    when an AP's co-channel count changes; to share an AP's bandwidth the
    plane reads only the AP neighbour table the world hands it. A plane
    without a world, as in a contact trace, is driven by its caller and
    overrides `_settle_ap` to set its own rates; it may bring its own
    policy instead of the config's router.

    A send lives from `_start_next`, which pins the sender's copy and
    enters the send in `in_flight_to` and `ap_active`, to `_release`,
    which undoes all of that; `ap_active` holds an entry only for an AP
    with a send in flight. While a send lives its sender holds the copy:
    eviction skips pinned copies, a pinned copy starts no second send, and
    `_expire_messages` aborts a message's sends before it drops the
    message's copies.

    Each node's peer view (`summaries`) is built once, with the plane.
    That is exact because the plane never rebinds a node's buffer or
    delivered set, and the view's `HasView` reads both live at each
    lookup. The view's `addressed` is the node's list in `addressed`:
    `_inject` appends the id of each message addressed to the node, and
    its first delivery or its expiry takes the id out again, so the list
    grows with the messages in play, not with the run."""

    def __init__(self, config: ScenarioConfig, seed: int, n_nodes: int,
                 ap_near: Optional[List[Set[int]]] = None,
                 policy: Optional[RouterPolicy] = None):
        self.config = config
        self.seed = int(seed)
        self.n_nodes = n_nodes
        self.link_model = config.radio.link
        self.ap_near = ap_near
        self.policy = policy or make_policy(config.routing.router)
        self.collector = MetricsCollector(self.seed)
        self.report: Optional[MetricsReport] = None
        self.rng_traffic = stream_rng(seed, "traffic")

        n = n_nodes
        self.buffers: List[Buffer] = [
            Buffer(config.routing.buffer_capacity) for _ in range(n)]
        self.refused = [0] * n          # admissions each node turned down
        self.delivered: List[Set[int]] = [set() for _ in range(n)]
        # destination -> ids of its messages that are neither delivered
        # nor expired, in creation order; a contact trace may address a
        # node outside the plane, whose list no view reads. Lists, not
        # dicts: each holds a few ids, and a list takes a third of the
        # memory; a delivery or expiry walks one.
        self.addressed: Dict[int, List[int]] = {nid: [] for nid in range(n)}
        self.summaries: List[PeerSummary] = [
            PeerSummary(nid, HasView(self.buffers[nid], self.delivered[nid]),
                        self.addressed[nid])
            for nid in range(n)]
        self.links: List[Dict[int, Link]] = [dict() for _ in range(n)]
        self.in_flight_to: Set[Tuple[int, int]] = set()  # (receiver, msg_id)
        # AP -> its sends in flight, in start order; no entry for an idle AP
        self.ap_active: Dict[int, Dict[Transfer, None]] = {}

        # the plane's event queues; _seq breaks the ties of transfer
        # events, and refreshes are FIFO (see `_refresh_step`)
        self._seq = 0
        self.transfer_events: List[Tuple[float, int, Transfer, int]] = []
        self.ttl_events: List[Tuple[float, int]] = []
        self.refresh_events: Deque[Tuple[float, Link]] = deque()

        # message bookkeeping
        self.messages: Dict[int, Message] = {}
        self.msg_status: Dict[int, str] = {}    # live | delivered | ttl | extinct
        self.holders: Dict[int, Set[int]] = {}  # until the message expires
        self.tokens_evicted: Dict[int, int] = {}  # spray tokens lost per msg
        self.next_msg_id = 0
        self.next_create: Optional[float] = next_creation(
            config.traffic, config.traffic.window[0], self.rng_traffic)
        self._closing = False

    def _horizon(self, tick: float) -> float:
        """The earliest tick this plane needs visited. A send counts at
        `finish - tick`: the tick whose window (t, t + tick] first holds its
        finish, so it completes before that tick's radio step whichever
        ticks other events make the loop visit."""
        horizon = self.next_create
        if horizon is None:
            horizon = math.inf
        ttl = self.ttl_events
        if ttl and ttl[0][0] < horizon:
            horizon = ttl[0][0]
        refresh = self.refresh_events
        if refresh and refresh[0][0] < horizon:
            horizon = refresh[0][0]
        sends = self.transfer_events
        if sends and sends[0][0] - tick < horizon:
            horizon = sends[0][0] - tick
        return horizon

    # -- traffic -----------------------------------------------------------------

    def _create_traffic(self, t: float) -> None:
        cfg = self.config.traffic
        while self.next_create is not None and self.next_create <= t:
            created_at = self.next_create
            msg = make_message(cfg, self.next_msg_id, created_at,
                               range(self.n_nodes), self.rng_traffic)
            self.next_msg_id += 1
            self.next_create = next_creation(cfg, created_at, self.rng_traffic)
            self._inject(msg, t)

    def _inject(self, msg: Message, t: float) -> None:
        """A new message enters its source's buffer and is offered on the
        source's open links. Under a spray router the source copy holds
        the whole budget and a custodian set; epidemic copies hold neither."""
        self.collector.on_generated(msg.msg_id)
        self.messages[msg.msg_id] = msg
        self.msg_status[msg.msg_id] = "live"
        self.holders[msg.msg_id] = set()
        self.addressed.setdefault(msg.destination, []).append(msg.msg_id)
        spray = self.policy.uses_tokens
        ok, evicted = buffer_admit(
            self.buffers[msg.source], msg, msg.copy_limit if spray else 0,
            {msg.source} if spray else None)
        heapq.heappush(self.ttl_events, (msg.expires_at, msg.msg_id))
        if ok:
            self.holders[msg.msg_id].add(msg.source)
            self.collector.on_copy_admitted(
                self.buffers[msg.source].get(msg.msg_id), t)
            self._handle_evictions(msg.source, evicted, t)
            self._offer_new_message(msg.source, msg, t)
        else:
            self._note_copy_gone(msg.msg_id)

    # -- TTL ---------------------------------------------------------------------

    def _expire_messages(self, t: float) -> None:
        """Messages past their TTL end: their sends are aborted and every
        copy is dropped, with the custodian set the copies share. Nothing
        reads a message's holders after that, as no copy can come back."""
        while self.ttl_events and self.ttl_events[0][0] < t:
            _, mid = heapq.heappop(self.ttl_events)
            msg = self.messages[mid]       # messages are never deleted
            status = self.msg_status[mid]
            # abort in-flight copies of a dead message; nothing re-offers
            # it, so the freed link serves its queue now
            for holder_links in (self.links[h] for h in list(self.holders[mid])):
                for link in list(holder_links.values()):
                    if link.active is not None and link.active.msg.msg_id == mid:
                        self._abort_transfer(link.active, t)
                        self._start_next(link, t)
            for holder in sorted(self.holders[mid]):
                entry = self.buffers[holder].remove(mid)
                if entry is not None:
                    self.collector.on_copy_removed(entry, msg.expires_at,
                                                   "expired")
            del self.holders[mid]
            if status != "delivered":
                self.addressed[msg.destination].remove(mid)
            if status == "live":
                self.msg_status[mid] = "ttl"
                self.collector.on_message_expired()

    # -- links and transfers -----------------------------------------------------

    def _establish_link(self, ap: int, client: int, t: float) -> None:
        link = Link(ap, client)
        self.links[ap][client] = link
        self.links[client][ap] = link
        self._select_into(link, t)
        refresh = self.config.routing.summary_refresh
        if refresh > 0:
            self.refresh_events.append((t + refresh, link))
        self._start_next(link, t)

    def _summary_key(self, link: Link) -> int:
        """The link's `summary_key` as of now (see `Link`)."""
        ap, client = link.ap, link.client
        buffers, refused = self.buffers, self.refused
        return (buffers[ap].version + buffers[client].version
                + refused[ap] + refused[client])

    def _select_into(self, link: Link, t: float) -> None:
        """Summary exchange on a link: queue everything each side offers."""
        link.summary_key = self._summary_key(link)
        for src, dst in ((link.ap, link.client), (link.client, link.ap)):
            for key in self.policy.select_transfers(self.buffers[src],
                                                    self.summaries[dst]):
                self._enqueue(link, src, key)

    @staticmethod
    def _enqueue(link: Link, src: int, key: SendKey) -> None:
        """Queue src's copy of message key[2] unless it is queued."""
        item = (src, key[2])
        if item not in link.queued:
            heapq.heappush(link.queue, (key, src, key[2]))
            link.queued.add(item)

    def _refresh_step(self, t: float) -> None:
        """Long-lived links repeat the anti-entropy exchange periodically,
        re-offering anything the peer dropped since the last pass.

        A pass rescans only when `Link.summary_key` moved: a buffer's id
        set changed, or an end refused an admission. The key is one int,
        the sum of four counts that only grow, so it moves exactly when
        one of them does. Otherwise a rescan would queue nothing new,
        because everything else select_transfers reads either only grows
        or is re-offered at once:

        - a copy's custodian set and delivered ids only grow, and growth
          only removes offers;
        - a refused hand-off bumps the receiver's refusal count, which
          moves the key, and re-offers the copy on the sender's other links;
        - a transfer that held the sender's copy in flight re-offers it
          when it ends, unless the copy left the buffer;
        - an offer dropped while another holder pushed the same copy to
          dst comes back through dst's version (admitted), its refusal
          count (refused) or _offer_inbound (aborted).

        The queue is served on every pass that finds it non-empty; serving
        an empty queue starts nothing.

        `refresh_events` is a FIFO of (time, link). Every refresh is
        queued at `summary_refresh` after the tick that queues it, and
        ticks never go back, so its times never decrease and it pops in
        the order of a heap keyed by time and then push order."""
        events = self.refresh_events
        interval = self.config.routing.summary_refresh
        summary_key = self._summary_key
        while events and events[0][0] <= t:
            _, link = events.popleft()
            if not link.open:
                continue
            if link.summary_key != summary_key(link):
                self._select_into(link, t)
            if link.queue:
                self._start_next(link, t)
            events.append((t + interval, link))

    def _close_link(self, link: Link, t: float) -> None:
        """Close an open link: one of `links`, which holds no other."""
        link.open = False
        if link.active is not None:
            self._abort_transfer(link.active, t)
        self.links[link.ap].pop(link.client, None)
        self.links[link.client].pop(link.ap, None)

    def _offer(self, link: Link, src: int, msg: Message, t: float) -> None:
        """Queue src's copy of msg on link if the policy lets it go to the
        other end, and start the link if it is idle."""
        entry = self.buffers[src].get(msg.msg_id)
        if entry is None:
            return
        dst = link.other(src)
        if not self.policy.eligible(entry, self.summaries[dst]):
            return
        self._enqueue(link, src, send_key(msg, dst))
        if link.active is None:
            self._start_next(link, t)

    def _offer_new_message(self, nid: int, msg: Message, t: float,
                           skip: Optional[Link] = None) -> None:
        """A copy held at nid becomes offerable on all its open links but
        `skip`."""
        if self._closing:
            return
        for link in list(self.links[nid].values()):
            if link is not skip:
                self._offer(link, nid, msg, t)

    def _offer_inbound(self, dst: int, msg: Message, t: float) -> None:
        """Re-surface a message toward dst from any linked holder (offers
        were dropped while an in-flight duplicate pinned the pair)."""
        for link in list(self.links[dst].values()):
            self._offer(link, link.other(dst), msg, t)

    def _start_next(self, link: Link, t: float) -> None:
        if not link.open or link.active is not None:
            return
        while link.queue:
            _, src, mid = heapq.heappop(link.queue)
            link.queued.discard((src, mid))
            entry = self.buffers[src].get(mid)
            if entry is None or entry.pinned:
                continue
            if entry.message.expired(t):
                continue
            dst = link.other(src)
            if (dst, mid) in self.in_flight_to:
                continue    # another sender is already pushing this copy
            if not self.policy.eligible(entry, self.summaries[dst]):
                continue
            tr = Transfer(entry.message, src, dst, t, link)
            link.active = tr
            entry.pinned = True
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
            self.link_model, _co_channel_count(self.ap_near, ap),
            len(active))
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
            if epoch != tr.epoch:
                continue    # re-projected, or released: `_release` bumps it
            if tr.msg.expired(finish):
                # the message died in flight: nothing is handed over
                self._abort_transfer(tr, finish)
                self._start_next(tr.link, finish)
            else:
                self._complete_transfer(tr, finish)

    def _release(self, tr: Transfer) -> BufferEntry:
        """End a live send, undoing `_start_next`: drop it from its AP's
        `ap_active` entry and an emptied entry with it, void its pending
        completion, free its link and `in_flight_to`, and unpin the
        sender's copy, which it returns."""
        link = tr.link
        active = self.ap_active[link.ap]
        del active[tr]
        if not active:
            del self.ap_active[link.ap]
        tr.epoch += 1
        link.active = None
        self.in_flight_to.discard((tr.dst, tr.msg.msg_id))
        entry = self.buffers[tr.src].get(tr.msg.msg_id)
        entry.pinned = False
        return entry

    def _complete_transfer(self, tr: Transfer, now: float) -> None:
        link = tr.link
        msg = tr.msg
        src, dst = tr.src, tr.dst
        entry = self._release(tr)
        self.collector.on_transfer_completed()

        if msg.destination == dst:
            first = self.collector.on_delivered(msg.msg_id, msg.created_at, now)
            self.delivered[dst].add(msg.msg_id)
            if first and self.msg_status.get(msg.msg_id) == "live":
                self.msg_status[msg.msg_id] = "delivered"
                self.addressed[dst].remove(msg.msg_id)
            # sender's job is done; free its copy
            self.buffers[src].remove(msg.msg_id)
            self.holders[msg.msg_id].discard(src)
            self.collector.on_copy_removed(entry, now, "delivered")
        else:
            # an epidemic copy holds no tokens: spray_split(0) == (0, 0)
            give, keep = spray_split(entry.tokens)
            self.buffers[src].set_tokens(entry, keep)
            custodians = entry.custodians
            ok, evicted = buffer_admit(self.buffers[dst], msg, give, custodians)
            if ok:
                if custodians is not None:
                    custodians.add(dst)
                self.holders[msg.msg_id].add(dst)
                self.collector.on_copy_admitted(
                    self.buffers[dst].get(msg.msg_id), now)
                self._handle_evictions(dst, evicted, now)
                self._offer_new_message(dst, msg, now)
            else:
                self.refused[dst] += 1
                # a failed hand-off returns its tokens
                self.buffers[src].set_tokens(entry, entry.tokens + give)
                self._note_copy_gone(msg.msg_id)
            # a refusal bumps refused[dst], so the link's next summary
            # refresh offers the copy to dst again; a re-send at once
            # would only be refused again
            self._offer_new_message(src, msg, now, None if ok else link)
        # refill the freed link, then square up the AP's rates; when the
        # next transfer starts immediately the shared rate is unchanged and
        # nothing needs re-pushing (zero sim time passed in between)
        self._start_next(link, now)
        self._settle_ap(link.ap, now)

    def _abort_transfer(self, tr: Transfer, now: float) -> None:
        """End a link's active send with nothing handed over."""
        self._release(tr)
        self.collector.on_transfer_aborted()
        self._settle_ap(tr.link.ap, now)
        if not tr.msg.expired(now):
            self._offer_new_message(tr.src, tr.msg, now)
            self._offer_inbound(tr.dst, tr.msg, now)

    def _handle_evictions(self, nid: int, evicted, now: float) -> None:
        for entry in evicted:
            mid = entry.message.msg_id
            if self.policy.uses_tokens:
                self.tokens_evicted[mid] = (self.tokens_evicted.get(mid, 0)
                                            + entry.tokens)
            self.holders[mid].discard(nid)
            self.collector.on_copy_removed(entry, now, "evicted")
            self._note_copy_gone(mid)

    def _note_copy_gone(self, mid: int) -> None:
        if not self.holders[mid] and self.msg_status.get(mid) == "live":
            self.msg_status[mid] = "extinct"
            self.collector.on_message_extinct()

    # -- audits ---------------------------------------------------------------

    def _check_tokens(self, t: float) -> None:
        """Spray custody invariant: per message, buffered tokens plus the
        tokens evicted copies took with them sum to the initial budget until
        delivery or expiry; its custodian set never outgrows it."""
        if not self.policy.uses_tokens:
            return
        for mid, status in self.msg_status.items():
            if status != "live":
                continue
            msg = self.messages[mid]
            # a live message has holders, each holding a copy
            copies = [self.buffers[h].entries[mid] for h in self.holders[mid]]
            total = (self.tokens_evicted.get(mid, 0)
                     + sum(entry.tokens for entry in copies))
            if total != msg.copy_limit:
                raise AuditError(
                    f"t={t}: message {mid} token sum {total} != "
                    f"{msg.copy_limit}")
            custodians = len(copies[0].custodians)     # shared by the copies
            if custodians > msg.copy_limit:
                raise AuditError(
                    f"t={t}: message {mid} has {custodians} "
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
# Entry point
# ---------------------------------------------------------------------------

def run(config: ScenarioConfig, seed: int, **kwargs) -> MetricsReport:
    """One seeded simulation; a pure function of (config, seed)."""
    return Simulation(config, seed, **kwargs).run()
