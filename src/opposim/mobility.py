"""Working-day mobility: house -> office -> (evening spot) -> house.

Every node owns a house, an office and an evening spot inside its map
segment. Days repeat: leave the house at 08:00, commute by car, bus or on
foot, spend exactly the working hours at the office (with micro-movement
inside the office square), then with probability 0.5 gather with a small
group at the evening spot before heading home for the night.

The model is event-driven: a node is either parked (fixed position until a
known wake time) or traversing a leg whose position is a closed-form
function of time. Buses run periodic timetables, so boarding and alighting
times are computed analytically instead of simulating empty vehicles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .map_graph import (PoiKind, PointOfInterest, RoadGraph,
                        SegmentLayout, shortest_path)

DAY = 86400.0
WORK_DEPARTURE = 8 * 3600.0   # nodes leave their houses at 08:00
# metres kept clear of a grid cell's edges by `Leg.exit_time`: far above
# the rounding of positions and times on maps of some kilometres
CELL_MARGIN = 1e-6


class MobilityError(ValueError):
    pass


@dataclass(frozen=True)
class MobilitySettings:
    group_sizes: Tuple[int, ...] = (325, 275, 300, 50, 50)  # groups A..E
    own_car_prob: float = 0.5
    walk_speed: Tuple[float, float] = (0.8, 1.4)       # m/s, drawn per trip
    drive_speed: Tuple[float, float] = (7.0, 10.0)     # m/s, cars and buses
    work_seconds: float = 28800.0
    office_pause: Tuple[float, float] = (10.0, 100000.0)  # log-uniform draw
    evening_prob: float = 0.5
    evening_stay: Tuple[float, float] = (3600.0, 7200.0)
    evening_group_size: Tuple[int, int] = (1, 3)
    bus_wait: Tuple[float, float] = (10.0, 30.0)       # dwell, drawn per line
    bus_lines: int = 2
    buses_per_line: int = 2
    bus_catch_radius: float = 200.0                    # max walk to a stop

    def validate(self) -> None:
        if any(g < 0 for g in self.group_sizes) or sum(self.group_sizes) < 1:
            raise MobilityError("bad group sizes")
        for lo, hi in (self.walk_speed, self.drive_speed, self.office_pause,
                       self.evening_stay, self.bus_wait):
            if not (0 < lo <= hi):
                raise MobilityError("bad range in mobility settings")
        if not (0 <= self.own_car_prob <= 1 and 0 <= self.evening_prob <= 1):
            raise MobilityError("probabilities must be in [0, 1]")


GROUP_NAMES = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class NodeProfile:
    node_id: int
    group: str
    house: PointOfInterest
    office: PointOfInterest
    evening_spot: PointOfInterest
    owns_car: bool


class Activity(Enum):
    AT_HOUSE = "at_house"
    COMMUTE_TO_OFFICE = "commute_to_office"
    AT_OFFICE = "at_office"
    COMMUTE_TO_EVENING = "commute_to_evening"
    AT_EVENING_SPOT = "at_evening_spot"
    COMMUTE_TO_HOUSE = "commute_to_house"


HOME_ACTIVITIES = frozenset((Activity.AT_HOUSE, Activity.AT_OFFICE,
                             Activity.AT_EVENING_SPOT))


def is_at_home(activity: Activity) -> bool:
    """True at any of the node's frequented locations (its Homes)."""
    return activity in HOME_ACTIVITIES


# ---------------------------------------------------------------------------
# Geometry legs
# ---------------------------------------------------------------------------

class Polyline:
    __slots__ = ("points", "cum", "length")

    def __init__(self, points: Sequence[Tuple[float, float]]):
        self.points = list(points)
        self.cum = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            self.cum.append(self.cum[-1] + math.dist(a, b))
        self.length = self.cum[-1]

    def at(self, s: float) -> Tuple[float, float]:
        if s <= 0:
            return self.points[0]
        if s >= self.length:
            return self.points[-1]
        i = bisect_right(self.cum, s) - 1
        seg = self.cum[i + 1] - self.cum[i]
        f = (s - self.cum[i]) / seg
        ax, ay = self.points[i]
        bx, by = self.points[i + 1]
        return (ax + f * (bx - ax), ay + f * (by - ay))


def graph_polyline(graph: RoadGraph, src: int, dst: int) -> Polyline:
    path = shortest_path(graph, src, dst)
    if path is None:
        raise MobilityError(f"no route between vertices {src} and {dst}")
    return Polyline([graph.coords[v] for v in path.vertices])


# ---------------------------------------------------------------------------
# Bus lines
# ---------------------------------------------------------------------------

class BusLine:
    """Cyclic bus route with a fixed dwell per stop and evenly phased
    vehicles; positions and stop events are pure functions of time."""

    def __init__(self, line_id: int, stops: List[PointOfInterest],
                 legs: List[Polyline], speed: float, stop_wait: float,
                 vehicles: int):
        self.line_id = line_id
        self.stops = stops
        self.legs = legs
        self.speed = speed
        self.vehicles = vehicles
        self.arr = []
        self.dep = []
        t = 0.0
        for leg in legs:
            self.arr.append(t)
            t += stop_wait
            self.dep.append(t)
            t += leg.length / speed
        self.cycle = t
        self.offsets = [v * self.cycle / vehicles for v in range(vehicles)]

    def _local(self, vehicle: int, t: float) -> float:
        return (t - self.offsets[vehicle]) % self.cycle

    def vehicle_position(self, vehicle: int, t: float) -> Tuple[float, float]:
        tau = self._local(vehicle, t)
        i = bisect_right(self.arr, tau) - 1
        if tau <= self.dep[i]:
            return self.stops[i].position
        return self.legs[i].at((tau - self.dep[i]) * self.speed)

    def next_boarding(self, stop_index: int, t: float) -> Tuple[float, int, float]:
        """Earliest chance to board at a stop from time t.

        Returns (board_time, vehicle, departure_time); boarding happens any
        time within the dwell window."""
        best = None
        for v in range(self.vehicles):
            base_arr = self.offsets[v] + self.arr[stop_index]
            base_dep = self.offsets[v] + self.dep[stop_index]
            n = math.ceil((t - base_dep) / self.cycle)
            arr = base_arr + n * self.cycle
            dep = base_dep + n * self.cycle
            board = max(t, arr)
            if best is None or board < best[0]:
                best = (board, v, dep)
        return best

    def ride(self, vehicle: int, departure_time: float,
             from_stop: int, to_stop: int) -> float:
        """Alight time at to_stop for a rider aboard at from_stop's
        departure."""
        gap = (self.arr[to_stop] - self.dep[from_stop]) % self.cycle
        return departure_time + gap


def build_bus_lines(graph: RoadGraph, stops: List[PointOfInterest],
                    settings: MobilitySettings, rng) -> List[BusLine]:
    """Group bus-stop POIs into cyclic lines, routed along shortest paths."""
    lines: List[BusLine] = []
    if settings.bus_lines < 1 or len(stops) < 2:
        return lines
    n_lines = min(settings.bus_lines, len(stops) // 2)
    for li in range(n_lines):
        members = [s for i, s in enumerate(stops) if i % n_lines == li]
        if len(members) < 2:
            continue
        # Nearest-neighbor chain gives a sane loop ordering.
        ordered = [members[0]]
        rest = members[1:]
        while rest:
            last = ordered[-1].position
            rest.sort(key=lambda p: (math.dist(last, p.position), p.poi_id))
            ordered.append(rest.pop(0))
        legs = []
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            legs.append(graph_polyline(graph, a.anchor, b.anchor))
        speed = rng.uniform(*settings.drive_speed)
        dwell = rng.uniform(*settings.bus_wait)
        lines.append(BusLine(li, ordered, legs, speed, dwell,
                             settings.buses_per_line))
    return lines


# ---------------------------------------------------------------------------
# Profiles and daily plans
# ---------------------------------------------------------------------------

def build_profiles(n: int, group_sizes: Sequence[int],
                   pois: Sequence[PointOfInterest], layout: SegmentLayout,
                   seed_rng, own_car_prob: float = 0.5) -> List[NodeProfile]:
    """Assign houses, offices and evening spots, deterministic per rng.

    Group counts are honored exactly; every location of a node lies in its
    group's segment (for the overlap groups D/E: in the union of the two
    overlapped segments)."""
    if sum(group_sizes) != n:
        raise MobilityError(f"group sizes {tuple(group_sizes)} do not sum to {n}")
    by_kind_segment: Dict[Tuple[PoiKind, str], List[PointOfInterest]] = {}
    for p in pois:
        by_kind_segment.setdefault((p.kind, p.segment), []).append(p)

    def candidates(kind: PoiKind, group: str) -> List[PointOfInterest]:
        segs = layout.group_segments(group)
        out: List[PointOfInterest] = []
        for s in segs:
            out.extend(by_kind_segment.get((kind, s), ()))
        if not out:
            raise MobilityError(
                f"no {kind.value} available in segment(s) {'/'.join(segs)}")
        return out

    profiles: List[NodeProfile] = []
    node_id = 0
    for group, count in zip(GROUP_NAMES, group_sizes):
        for _ in range(count):
            house = candidates(PoiKind.HOUSE, group)
            office = candidates(PoiKind.OFFICE, group)
            evening = candidates(PoiKind.EVENING_SPOT, group)
            profiles.append(NodeProfile(
                node_id, group,
                house[int(seed_rng.integers(len(house)))],
                office[int(seed_rng.integers(len(office)))],
                evening[int(seed_rng.integers(len(evening)))],
                bool(seed_rng.random() < own_car_prob)))
            node_id += 1
    return profiles


@dataclass
class DailyPlan:
    evening: bool
    evening_stay: float
    evening_group: Optional["EveningGroup"] = None


def schedule_day(rng, settings: MobilitySettings) -> DailyPlan:
    """One node's stochastic plan for one day; groups are attached later.
    Every node's day is drawn alike, and every node leaves its house at
    WORK_DEPARTURE each day (see `MobilityModel.initial_wakes` and
    `_arrive`)."""
    evening = bool(rng.random() < settings.evening_prob)
    stay = float(rng.uniform(*settings.evening_stay))
    return DailyPlan(evening, stay)


@dataclass
class EveningGroup:
    members: Tuple[int, ...]
    arrived: set = field(default_factory=set)


def plan_day(profiles: Sequence[NodeProfile], rng,
             settings: MobilitySettings,
             ) -> Tuple[Dict[int, DailyPlan], Dict[int, EveningGroup]]:
    """Plans for every node plus evening groups of size 1-3 formed among
    nodes that share an evening spot and chose to go out today."""
    plans = {p.node_id: schedule_day(rng, settings)
             for p in sorted(profiles, key=lambda p: p.node_id)}
    by_spot: Dict[int, List[int]] = {}
    for p in sorted(profiles, key=lambda p: p.node_id):
        if plans[p.node_id].evening:
            by_spot.setdefault(p.evening_spot.poi_id, []).append(p.node_id)
    groups: Dict[int, EveningGroup] = {}
    gid = 0
    lo, hi = settings.evening_group_size
    for spot_id in sorted(by_spot):
        queue = by_spot[spot_id]
        while queue:
            size = int(rng.integers(lo, hi + 1))
            members = tuple(queue[:size])
            queue = queue[size:]
            group = EveningGroup(members)
            groups[gid] = group
            for m in members:
                plans[m].evening_group = group
            gid += 1
    return plans, groups


# ---------------------------------------------------------------------------
# Runtime state machine
# ---------------------------------------------------------------------------

class Mode(Enum):
    PARKED = 0       # fixed position until `wake`
    MOVING = 1       # traversing a leg
    WAIT_BUS = 2     # parked at a stop, board time known
    RIDING = 3       # aboard a bus, alight time known
    WAIT_GROUP = 4   # at the evening spot until the group is complete


@dataclass
class Leg:
    line: Polyline
    speed: float
    start: float

    @property
    def end(self) -> float:
        return self.start + (self.line.length / self.speed if self.speed > 0 else 0.0)

    def at(self, t: float) -> Tuple[float, float]:
        return self.line.at((t - self.start) * self.speed)

    def exit_time(self, now: float, cell: Tuple[int, int],
                  size: float) -> float:
        """A time before which `at` stays in `cell` of the square grid of
        side `size`, from `now` on; `at(now)` lies in the cell.

        It is the moment the current segment of the line ends or comes
        within `CELL_MARGIN` metres of an edge of the cell it runs toward,
        less that margin again. The margins cover the rounding of `at`
        and of this arithmetic: at every time before the answer, `at`
        stays on that segment and `int(x // size)` names the cell."""
        line = self.line
        cum = line.cum
        i = bisect_right(cum, (now - self.start) * self.speed) - 1
        if not 0 <= i < len(cum) - 1:
            return now
        (ax, ay), (bx, by) = line.points[i], line.points[i + 1]
        f = 1.0
        for a, b, c in ((ax, bx, cell[0]), (ay, by, cell[1])):
            if b > a:
                f = min(f, ((c + 1) * size - CELL_MARGIN - a) / (b - a))
            elif b < a:
                f = min(f, (c * size + CELL_MARGIN - a) / (b - a))
        s = cum[i] + f * (cum[i + 1] - cum[i]) - CELL_MARGIN
        return self.start + s / self.speed


class NodeMobility:
    __slots__ = ("profile", "activity", "mode", "pos", "leg", "pending",
                 "bus", "office_departs", "office_rect", "walk_speed",
                 "trip_dest", "plan")

    def __init__(self, profile: NodeProfile):
        self.profile = profile
        self.activity = Activity.AT_HOUSE
        self.mode = Mode.PARKED
        self.pos = profile.house.position
        self.leg: Optional[Leg] = None
        self.pending: List = []           # remaining trip items
        self.bus = None                   # (line, vehicle, exit_index, alight)
        self.office_departs = 0.0
        self.office_rect = None
        self.walk_speed = 1.0
        self.trip_dest: Optional[Activity] = None
        self.plan: Optional[DailyPlan] = None   # snapshot taken at 08:00

    def position(self, now: float) -> Tuple[float, float]:
        if self.mode is Mode.MOVING:
            return self.leg.at(now)
        if self.mode is Mode.RIDING:
            line, vehicle, _, _ = self.bus
            return line.vehicle_position(vehicle, now)
        return self.pos

    @property
    def moving(self) -> bool:
        return self.mode in (Mode.MOVING, Mode.RIDING)


class MobilityModel:
    """Owns every node's movement state; the engine drives it through
    begin_day(), wake() and position()."""

    def __init__(self, graph: RoadGraph, pois: Sequence[PointOfInterest],
                 profiles: Sequence[NodeProfile],
                 settings: MobilitySettings, rng):
        self.graph = graph
        self.settings = settings
        self.rng = rng
        self.lines = build_bus_lines(
            graph, [p for p in pois if p.kind is PoiKind.BUS_STOP],
            settings, rng)
        self.nodes: Dict[int, NodeMobility] = {
            p.node_id: NodeMobility(p) for p in profiles}
        self.profiles = list(profiles)
        self.plans: Dict[int, DailyPlan] = {}
        w, h = graph.bounds
        self.bounds = (w, h)
        self.log: Optional[List] = None   # (time, node, activity) probe

    # -- day planning -------------------------------------------------------

    def begin_day(self, day_index: int) -> None:
        """Draw the plans of day `day_index`. Every day is drawn alike, so
        the index is not read; the engine's clock passes it, and the
        engine's static stand-in offers the same method."""
        self.plans = plan_day(self.profiles, self.rng, self.settings)[0]

    def initial_wakes(self) -> List[Tuple[float, int]]:
        """All nodes start the first day parked at their houses."""
        self.begin_day(0)
        return [(WORK_DEPARTURE, n.profile.node_id)
                for n in self.nodes.values()]

    # -- trips --------------------------------------------------------------

    def _office_rect(self, office: PointOfInterest):
        half = office.extent / 2.0
        ax, ay = office.position
        w, h = self.bounds
        return (max(0.0, ax - half), max(0.0, ay - half),
                min(w, ax + half), min(h, ay + half))

    def _bus_option(self, origin_pos, dest_pos):
        """Cheapest line serving both trip ends within the catch radius."""
        best = None
        radius = self.settings.bus_catch_radius
        for line in self.lines:
            def nearest(pos):
                cands = [(math.dist(pos, s.position), i)
                         for i, s in enumerate(line.stops)]
                cands.sort()
                return cands[0]
            d_on, s_on = nearest(origin_pos)
            d_off, s_off = nearest(dest_pos)
            if s_on == s_off or d_on > radius or d_off > radius:
                continue
            key = (d_on + d_off, line.line_id)
            if best is None or key < best[0]:
                best = (key, line, s_on, s_off)
        return best

    def _build_trip(self, state: NodeMobility, origin_vertex: int,
                    dest: PointOfInterest, activity: Activity,
                    now: float, from_pos=None) -> None:
        """Queue trip items: optional off-road hop to the origin vertex,
        then drive / bus ride / walk along the road network."""
        profile = state.profile
        state.activity = activity
        state.trip_dest = {
            Activity.COMMUTE_TO_OFFICE: Activity.AT_OFFICE,
            Activity.COMMUTE_TO_EVENING: Activity.AT_EVENING_SPOT,
            Activity.COMMUTE_TO_HOUSE: Activity.AT_HOUSE,
        }[activity]
        state.walk_speed = float(self.rng.uniform(*self.settings.walk_speed))
        items: List = []
        origin_pos = self.graph.coords[origin_vertex]
        if from_pos is not None and from_pos != origin_pos:
            items.append(("leg", Polyline([from_pos, origin_pos]),
                          state.walk_speed))
        if profile.owns_car:
            drive = float(self.rng.uniform(*self.settings.drive_speed))
            items.append(("leg", graph_polyline(self.graph, origin_vertex,
                                                dest.anchor), drive))
        else:
            option = self._bus_option(origin_pos, dest.position)
            if option is not None:
                _, line, s_on, s_off = option
                items.append(("leg", graph_polyline(
                    self.graph, origin_vertex, line.stops[s_on].anchor),
                    state.walk_speed))
                items.append(("bus", line, s_on, s_off))
                items.append(("leg", graph_polyline(
                    self.graph, line.stops[s_off].anchor, dest.anchor),
                    state.walk_speed))
            else:
                items.append(("leg", graph_polyline(self.graph, origin_vertex,
                                                    dest.anchor),
                              state.walk_speed))
        state.pending = items

    def _advance_trip(self, state: NodeMobility, now: float,
                      extras: List[Tuple[float, int]]) -> Optional[float]:
        """Start the next queued trip item; returns the next wake time."""
        nid = state.profile.node_id
        while state.pending:
            item = state.pending.pop(0)
            if item[0] == "leg":
                _, line, speed = item
                if line.length <= 1e-9:
                    state.pos = line.points[-1]
                    continue
                state.mode = Mode.MOVING
                state.leg = Leg(line, speed, now)
                return state.leg.end
            _, line, s_on, s_off = item
            board, vehicle, departure = line.next_boarding(s_on, now)
            alight = line.ride(vehicle, departure, s_on, s_off)
            state.bus = (line, vehicle, s_off, alight)
            state.pos = line.stops[s_on].position
            if board > now:
                state.mode = Mode.WAIT_BUS
                return board
            state.mode = Mode.RIDING
            return alight
        return self._arrive(state, now, extras)

    def _arrive(self, state: NodeMobility, now: float,
                extras: List[Tuple[float, int]]) -> Optional[float]:
        profile = state.profile
        plan = state.plan
        dest = state.trip_dest
        state.leg = None
        state.bus = None
        if dest is Activity.AT_OFFICE:
            state.activity = Activity.AT_OFFICE
            state.mode = Mode.PARKED
            state.pos = profile.office.position
            state.office_departs = now + self.settings.work_seconds
            state.office_rect = self._office_rect(profile.office)
            return self._office_pause(state, now)
        if dest is Activity.AT_EVENING_SPOT:
            state.activity = Activity.AT_EVENING_SPOT
            state.mode = Mode.WAIT_GROUP
            state.pos = profile.evening_spot.position
            group = plan.evening_group
            group.arrived.add(profile.node_id)
            if len(group.arrived) == len(group.members):
                for member in group.members:
                    stay = self.plans[member].evening_stay
                    extras.append((now + stay, member))
            return None  # no own wake until the group timer fires
        # home for the night
        state.activity = Activity.AT_HOUSE
        state.mode = Mode.PARKED
        state.pos = profile.house.position
        next_day = math.floor(now / DAY) + 1
        return next_day * DAY + WORK_DEPARTURE

    def _office_pause(self, state: NodeMobility, now: float) -> float:
        lo, hi = self.settings.office_pause
        pause = math.exp(self.rng.uniform(math.log(lo), math.log(hi)))
        state.mode = Mode.PARKED
        return min(now + pause, state.office_departs)

    def _office_move(self, state: NodeMobility, now: float) -> float:
        x0, y0, x1, y1 = state.office_rect
        target = (float(self.rng.uniform(x0, x1)), float(self.rng.uniform(y0, y1)))
        speed = float(self.rng.uniform(*self.settings.walk_speed))
        line = Polyline([state.position(now), target])
        if line.length <= 1e-9:
            return self._office_pause(state, now)
        state.mode = Mode.MOVING
        state.leg = Leg(line, speed, now)
        return min(state.leg.end, state.office_departs)

    def _depart_office(self, state: NodeMobility, now: float) -> None:
        profile = state.profile
        plan = state.plan
        here = state.position(now)
        state.mode = Mode.PARKED
        state.leg = None
        state.pos = here
        if plan.evening:
            self._build_trip(state, profile.office.anchor,
                             profile.evening_spot,
                             Activity.COMMUTE_TO_EVENING, now, from_pos=here)
        else:
            self._build_trip(state, profile.office.anchor, profile.house,
                             Activity.COMMUTE_TO_HOUSE, now, from_pos=here)

    # -- the engine-facing step ----------------------------------------------

    def wake(self, node_id: int, now: float,
             ) -> Tuple[Optional[float], List[Tuple[float, int]]]:
        """Process a node's due mobility event.

        Returns (next_wake_time_or_None, extra (time, node) wakes caused at
        other nodes, e.g. a completed evening group)."""
        state = self.nodes[node_id]
        extras: List[Tuple[float, int]] = []
        before = state.activity
        result = self._dispatch(state, node_id, now, extras)
        if self.log is not None and state.activity is not before:
            self.log.append((now, node_id, state.activity))
        return result, extras

    def _dispatch(self, state: NodeMobility, node_id: int, now: float,
                  extras: List[Tuple[float, int]]) -> Optional[float]:
        if state.activity is Activity.AT_HOUSE:
            state.plan = self.plans[node_id]
            self._build_trip(state, state.profile.house.anchor,
                             state.profile.office,
                             Activity.COMMUTE_TO_OFFICE, now)
            return self._advance_trip(state, now, extras)

        if state.activity is Activity.AT_OFFICE:
            if now >= state.office_departs - 1e-9:
                self._depart_office(state, now)
                return self._advance_trip(state, now, extras)
            if state.mode is Mode.MOVING:   # micro-move finished
                state.pos = state.leg.at(min(now, state.leg.end))
                state.leg = None
                return self._office_pause(state, now)
            return self._office_move(state, now)

        if state.activity is Activity.AT_EVENING_SPOT:
            # group timer fired: head home
            self._build_trip(state, state.profile.evening_spot.anchor,
                             state.profile.house, Activity.COMMUTE_TO_HOUSE,
                             now, from_pos=state.pos)
            return self._advance_trip(state, now, extras)

        # somewhere along a trip
        if state.mode is Mode.WAIT_BUS:
            state.mode = Mode.RIDING
            _, _, _, alight = state.bus
            return alight
        if state.mode is Mode.RIDING:
            line, vehicle, s_off, _ = state.bus
            state.pos = line.stops[s_off].position
            state.mode = Mode.PARKED
            state.bus = None
            return self._advance_trip(state, now, extras)
        if state.mode is Mode.MOVING:
            state.pos = state.leg.at(state.leg.end)
            state.leg = None
            state.mode = Mode.PARKED
            return self._advance_trip(state, now, extras)
        raise MobilityError(f"unexpected wake for node {node_id}")

    def position(self, node_id: int, now: float) -> Tuple[float, float]:
        return self.nodes[node_id].position(now)

    def activity(self, node_id: int) -> Activity:
        return self.nodes[node_id].activity

    def at_home(self, node_id: int) -> bool:
        return is_at_home(self.nodes[node_id].activity)
