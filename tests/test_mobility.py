import heapq
import math

import numpy as np
import pytest

from opposim.map_graph import (PoiKind, PointOfInterest, RoadGraph,
                               SegmentLayout, place_pois, synth_map)
from opposim.mobility import (
    DAY, WORK_DEPARTURE, Activity, BusLine, Leg, MobilityError,
    MobilityModel, MobilitySettings, NodeProfile, Polyline, build_bus_lines,
    build_profiles, is_at_home, plan_day, schedule_day,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def line_graph(n=8, step=100.0):
    coords = [(i * step, 0.0) for i in range(n)]
    return RoadGraph(coords, [(i, i + 1) for i in range(n - 1)])


def poi(pid, kind, anchor, graph, segment="A", extent=0.0):
    return PointOfInterest(pid, kind, anchor, extent, segment,
                           graph.coords[anchor])


def simple_world(settings=None, seed=1):
    """One walker: house at vertex 0, office at vertex 7 (700 m away)."""
    g = line_graph()
    house = poi(0, PoiKind.HOUSE, 0, g)
    office = poi(1, PoiKind.OFFICE, 7, g, extent=100.0)
    spot = poi(2, PoiKind.EVENING_SPOT, 4, g)
    prof = NodeProfile(0, "A", house, office, spot, owns_car=False)
    settings = settings or MobilitySettings(group_sizes=(1, 0, 0, 0, 0),
                                            bus_lines=0)
    model = MobilityModel(g, [house, office, spot], [prof], settings, rng(seed))
    return g, model


def run_mobility(model, until, log=None):
    """Drive the wake heap the way the engine does."""
    model.log = log if log is not None else []
    heap = [(t, nid) for t, nid in model.initial_wakes()]
    heapq.heapify(heap)
    next_day = 1
    while heap:
        t, nid = heapq.heappop(heap)
        if t > until:
            break
        while t >= next_day * DAY:
            model.begin_day(next_day)
            next_day += 1
        nxt, extras = model.wake(nid, t)
        if nxt is not None:
            heapq.heappush(heap, (nxt, nid))
        for e in extras:
            heapq.heappush(heap, e)
    return model.log


class TestBuildProfiles:
    def world(self):
        g = synth_map(1750, 2125, 125, seed=7)
        layout = SegmentLayout.default(g.bounds)
        pois = place_pois(g, layout, {PoiKind.HOUSE: 30, PoiKind.OFFICE: 9,
                                      PoiKind.EVENING_SPOT: 6}, seed=3)
        return g, layout, pois

    def test_paper_group_sizes(self):
        _, layout, pois = self.world()
        profiles = build_profiles(1000, (325, 275, 300, 50, 50), pois,
                                  layout, rng(5))
        assert len(profiles) == 1000
        from collections import Counter
        counts = Counter(p.group for p in profiles)
        assert (counts["A"], counts["B"], counts["C"], counts["D"],
                counts["E"]) == (325, 275, 300, 50, 50)

    def test_minimal_single_profile(self):
        _, layout, pois = self.world()
        profiles = build_profiles(1, (1, 0, 0, 0, 0), pois, layout, rng(5))
        assert len(profiles) == 1 and profiles[0].group == "A"

    def test_locations_stay_in_group_region(self):
        _, layout, pois = self.world()
        profiles = build_profiles(100, (20, 20, 20, 20, 20), pois,
                                  layout, rng(5))
        for p in profiles:
            segs = layout.group_segments(p.group)
            for loc in (p.house, p.office, p.evening_spot):
                assert loc.segment in segs

    def test_car_ownership_near_half(self):
        _, layout, pois = self.world()
        profiles = build_profiles(10000, (2000, 2000, 2000, 2000, 2000),
                                  pois, layout, rng(11))
        frac = sum(p.owns_car for p in profiles) / len(profiles)
        assert 0.47 <= frac <= 0.53   # 3-sigma binomial band is tighter

    def test_mismatched_sizes_rejected(self):
        _, layout, pois = self.world()
        with pytest.raises(MobilityError):
            build_profiles(10, (5, 0, 0, 0, 0), pois, layout, rng(5))

    def test_missing_kind_in_segment_rejected(self):
        g, layout, _ = self.world()
        houses_only = place_pois(g, layout, {PoiKind.HOUSE: 30}, seed=3)
        with pytest.raises(MobilityError, match="office"):
            build_profiles(1, (1, 0, 0, 0, 0), houses_only, layout, rng(5))


class TestDailyPlan:
    def settings(self, **kw):
        return MobilitySettings(group_sizes=(4, 0, 0, 0, 0), **kw)

    def test_departure_and_work_block(self):
        _, model = simple_world()
        wakes = model.initial_wakes()
        assert sorted(nid for _, nid in wakes) == sorted(model.nodes)
        assert all(t == 8 * 3600.0 for t, _ in wakes)

    def test_evening_stay_range(self):
        _, model = simple_world()
        g = rng(2)
        for _ in range(200):
            plan = schedule_day(g, model.settings)
            assert 3600.0 <= plan.evening_stay <= 7200.0

    def test_groups_share_spot_and_sizes(self):
        g = line_graph()
        spot_a = poi(0, PoiKind.EVENING_SPOT, 2, g)
        spot_b = poi(1, PoiKind.EVENING_SPOT, 5, g)
        house = poi(2, PoiKind.HOUSE, 0, g)
        office = poi(3, PoiKind.OFFICE, 7, g, extent=100.0)
        profiles = [NodeProfile(i, "A", house, office,
                                spot_a if i < 6 else spot_b, False)
                    for i in range(10)]
        settings = MobilitySettings(group_sizes=(10, 0, 0, 0, 0),
                                    evening_prob=1.0)
        plans, groups = plan_day(profiles, rng(3), settings)
        assert all(plans[i].evening_group is not None for i in range(10))
        for group in groups.values():
            assert 1 <= len(group.members) <= 3
            spots = {profiles[m].evening_spot.poi_id for m in group.members}
            assert len(spots) == 1

    def test_evening_frequency_binomial_band(self):
        # >= 1000 node-days of evening decisions around probability 0.5.
        _, model = simple_world()
        g = rng(4)
        n = 2000
        hits = sum(schedule_day(g, model.settings).evening
                   for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(hits - n * 0.5) <= 3 * sigma


class TestKinematics:
    def test_walk_displacement_identity(self):
        # 1.0 m/s for 10 s along a straight segment moves 10 m.
        line = Polyline([(0.0, 0.0), (700.0, 0.0)])
        from opposim.mobility import Leg
        leg = Leg(line, 1.0, start=100.0)
        x0, _ = leg.at(100.0)
        x1, _ = leg.at(110.0)
        assert (x1 - x0) == pytest.approx(10.0)

    def test_car_trip_700m_at_7mps(self):
        settings = MobilitySettings(group_sizes=(1, 0, 0, 0, 0),
                                    drive_speed=(7.0, 7.0), bus_lines=0)
        g = line_graph()
        house = poi(0, PoiKind.HOUSE, 0, g)
        office = poi(1, PoiKind.OFFICE, 7, g, extent=100.0)
        spot = poi(2, PoiKind.EVENING_SPOT, 4, g)
        prof = NodeProfile(0, "A", house, office, spot, owns_car=True)
        model = MobilityModel(g, [house, office, spot], [prof], settings,
                              rng(1))
        model.begin_day(0)
        model.nodes[0].plan = model.plans[0]
        nxt, _ = model.wake(0, WORK_DEPARTURE)
        # Path length 700 m at 7 m/s: at the office 100 s after departure.
        assert nxt == pytest.approx(WORK_DEPARTURE + 100.0)
        mid = model.position(0, WORK_DEPARTURE + 50.0)
        assert mid[0] == pytest.approx(350.0)

    def test_continuous_positions_over_a_day(self):
        _, model = simple_world()
        log = []
        max_speed = 10.0
        heap = [(t, nid) for t, nid in model.initial_wakes()]
        heapq.heapify(heap)
        last_pos = model.position(0, 0.0)
        t = 0.0
        while heap and t < DAY:
            t_next, nid = heapq.heappop(heap)
            # sample positions every second up to the event
            while t + 1.0 <= min(t_next, DAY):
                t += 1.0
                pos = model.position(0, t)
                assert math.dist(last_pos, pos) <= max_speed + 1e-6
                last_pos = pos
            if t_next >= DAY:
                break
            nxt, extras = model.wake(nid, t_next)
            if nxt is not None:
                heapq.heappush(heap, (nxt, nid))
            for e in extras:
                heapq.heappush(heap, e)


class TestWorkingDayCycle:
    def test_at_house_at_0759_and_office_hours(self):
        settings = MobilitySettings(group_sizes=(1, 0, 0, 0, 0), bus_lines=0)
        _, model = simple_world(settings)
        log = run_mobility(model, until=2 * DAY)
        # position checks at 07:59 each day
        for day in range(2):
            t = day * DAY + WORK_DEPARTURE - 60.0
            assert model.position(0, t) == model.profiles[0].house.position
        # office presence: exactly the working block per day
        arrivals = [(t, a) for t, _, a in log if a is Activity.AT_OFFICE]
        leaves = [(t, a) for t, _, a in log
                  if a in (Activity.COMMUTE_TO_EVENING, Activity.COMMUTE_TO_HOUSE)]
        assert len(arrivals) == 2
        for (ta, _), (tl, _) in zip(arrivals, leaves):
            assert tl - ta == pytest.approx(28800.0, abs=1e-6)

    def test_office_positions_inside_square(self):
        settings = MobilitySettings(group_sizes=(1, 0, 0, 0, 0), bus_lines=0,
                                    office_pause=(10.0, 120.0))
        _, model = simple_world(settings)
        model.log = []
        heap = [(t, nid) for t, nid in model.initial_wakes()]
        heapq.heapify(heap)
        office = model.profiles[0].office
        half = office.extent / 2
        while heap:
            t, nid = heapq.heappop(heap)
            if t > DAY:
                break
            nxt, extras = model.wake(nid, t)
            if model.activity(0) is Activity.AT_OFFICE:
                for dt in (0.0, 5.0):
                    x, y = model.position(0, t + dt)
                    assert abs(x - office.position[0]) <= half + 1e-9
                    assert abs(y - office.position[1]) <= half + 1e-9
            if nxt is not None:
                heapq.heappush(heap, (nxt, nid))
            for e in extras:
                heapq.heappush(heap, e)

    def test_evening_group_gathers_before_timer(self):
        g = line_graph()
        house_a = poi(0, PoiKind.HOUSE, 0, g)
        house_b = poi(1, PoiKind.HOUSE, 1, g)
        office_a = poi(2, PoiKind.OFFICE, 6, g, extent=100.0)
        office_b = poi(3, PoiKind.OFFICE, 7, g, extent=100.0)
        spot = poi(4, PoiKind.EVENING_SPOT, 3, g)
        profiles = [NodeProfile(0, "A", house_a, office_a, spot, False),
                    NodeProfile(1, "A", house_b, office_b, spot, False)]
        settings = MobilitySettings(group_sizes=(2, 0, 0, 0, 0),
                                    evening_prob=1.0, bus_lines=0,
                                    evening_group_size=(2, 2))
        model = MobilityModel(g, [house_a, house_b, office_a, office_b, spot],
                              profiles, settings, rng(9))
        log = run_mobility(model, until=DAY)
        at_spot = sorted((t, n) for t, n, a in log
                         if a is Activity.AT_EVENING_SPOT)
        gone_home = sorted((t, n) for t, n, a in log
                           if a is Activity.COMMUTE_TO_HOUSE)
        assert len(at_spot) == 2 and len(gone_home) == 2
        group_start = at_spot[-1][0]
        for t, n in gone_home:
            stay = model.plans[n].evening_stay
            assert t == pytest.approx(group_start + stay)
            assert 3600.0 <= t - group_start <= 7200.0


class TestBusTravel:
    def bus_world(self):
        g = line_graph(10)
        stops = [poi(0, PoiKind.BUS_STOP, 1, g), poi(1, PoiKind.BUS_STOP, 8, g)]
        house = poi(2, PoiKind.HOUSE, 0, g)
        office = poi(3, PoiKind.OFFICE, 9, g, extent=100.0)
        spot = poi(4, PoiKind.EVENING_SPOT, 5, g)
        settings = MobilitySettings(group_sizes=(1, 0, 0, 0, 0),
                                    bus_lines=1, buses_per_line=1,
                                    drive_speed=(7.0, 7.0),
                                    bus_wait=(10.0, 10.0),
                                    walk_speed=(1.0, 1.0),
                                    evening_prob=0.0)
        prof = NodeProfile(0, "A", house, office, spot, owns_car=False)
        model = MobilityModel(g, stops + [house, office, spot], [prof],
                              settings, rng(2))
        return g, model

    def test_timetable_is_periodic(self):
        g, model = self.bus_world()
        line = model.lines[0]
        assert len(line.stops) == 2
        # legs: 700 m each way at 7 m/s, 10 s dwell per stop
        assert line.cycle == pytest.approx(2 * (10.0 + 100.0))
        p0 = line.vehicle_position(0, 3.0)
        p1 = line.vehicle_position(0, 3.0 + line.cycle)
        assert p0 == p1

    def test_boarding_and_ride(self):
        g, model = self.bus_world()
        line = model.lines[0]
        board, vehicle, dep = line.next_boarding(0, 42.0)
        assert board >= 42.0
        alight = line.ride(vehicle, dep, 0, 1)
        assert alight > dep

    def test_passenger_tracks_bus(self):
        g, model = self.bus_world()
        heap = [(t, nid) for t, nid in model.initial_wakes()]
        heapq.heapify(heap)
        from opposim.mobility import Mode
        state = model.nodes[0]
        rode = False
        while heap:
            t, nid = heapq.heappop(heap)
            if t > DAY:
                break
            nxt, extras = model.wake(nid, t)
            if state.mode is Mode.RIDING:
                rode = True
                line, vehicle, _, _ = state.bus
                for dt in (0.0, 7.0, 31.0):
                    if nxt is not None and t + dt < nxt:
                        assert (model.position(0, t + dt)
                                == line.vehicle_position(vehicle, t + dt))
            if nxt is not None:
                heapq.heappush(heap, (nxt, nid))
            for e in extras:
                heapq.heappush(heap, e)
        assert rode, "commute should use the bus"


class TestIsAtHome:
    def test_home_set(self):
        assert is_at_home(Activity.AT_OFFICE)
        assert is_at_home(Activity.AT_HOUSE)
        assert is_at_home(Activity.AT_EVENING_SPOT)

    def test_transit_never_home(self):
        assert not is_at_home(Activity.COMMUTE_TO_OFFICE)
        assert not is_at_home(Activity.COMMUTE_TO_EVENING)
        assert not is_at_home(Activity.COMMUTE_TO_HOUSE)


class TestCellExit:
    """`Leg.exit_time` gives the engine a time to look at a walker again."""

    @staticmethod
    def random_leg(gen, size):
        """A leg of two to five points: anywhere, on a cell edge, or a hair
        off one, so that some segments run along an edge."""
        def coord():
            kind = gen.integers(3)
            edge = float(gen.integers(10)) * size
            if kind == 0:
                return float(gen.uniform(0.0, 10 * size))
            if kind == 1:
                return edge
            return edge + float(gen.choice([-1e-9, 1e-9, -1e-3, 1e-3]))
        points = [(coord(), coord())]
        for _ in range(int(gen.integers(1, 5))):
            x, y = points[-1]
            axis = gen.integers(3)
            if axis == 0:
                points.append((coord(), y))
            elif axis == 1:
                points.append((x, coord()))
            else:
                points.append((coord(), coord()))
        return Polyline(points)

    @pytest.mark.parametrize("tick", [1.0, 0.3])
    def test_check_time_never_passes_a_cell_change(self, tick):
        # on every tick of random legs, the check time is at or before the
        # first later tick whose position lies in another cell
        gen = rng(15)
        checks = skipped = 0
        for _ in range(400):
            size = float(gen.choice([20.0, 7.3, 100.0]))
            line = self.random_leg(gen, size)
            if line.length <= 1e-9:
                continue
            speed = float(gen.uniform(0.5, 12.0))
            first = int(gen.integers(0, 500_000))
            leg = Leg(line, speed, first * tick)
            times = []
            k = first
            while k * tick < leg.end:
                times.append(k * tick)
                k += 1
            cells = [(int(x // size), int(y // size))
                     for x, y in map(leg.at, times)]
            change = math.inf          # first later tick in another cell
            for j in range(len(times) - 1, -1, -1):
                check = leg.exit_time(times[j], cells[j], size)
                assert check <= change, (line.points, speed, times[j])
                checks += 1
                skipped += sum(1 for t in times[j + 1:j + 50] if t < check)
                if j and cells[j - 1] != cells[j]:
                    change = times[j]
        # the bound is useful: most checks let the walker skip ticks
        assert checks > 10_000
        assert skipped > 2 * checks
