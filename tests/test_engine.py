import dataclasses
import gc

import numpy as np
import pytest

from opposim.engine import (
    AuditError, ConfigError, MapConfig, Plane, PoiConfig, RadioConfig, RoutingConfig,
    ScenarioConfig, Simulation, _co_channel_count, _ring, apply_sweep_value,
    run, run_batch, stream_rng, sweep,
)
from opposim.metrics import render_runs_csv
from opposim.mobility import MobilitySettings
from opposim.radio import Phase, TimingParams, effective_bandwidth
from opposim.routing import EpidemicPolicy, buffer_admit
from opposim.scenario import load_scenario
from opposim.traffic import Message, TrafficConfig

MB = 1_000_000


def scripted_config(duration=60.0, window=(0.0, 10.0), interval=(10.0, 10.0)):
    return ScenarioConfig(
        traffic=TrafficConfig(interval_range=interval,
                              size_range=(MB, MB), ttl=86400.0,
                              window=window, copy_limit=10),
        radio=RadioConfig(stagger=False),
        duration=duration,
    )


def desk_config(router="epidemic", nodes=(6, 5, 5, 2, 2), duration=7200.0,
                interval=(60.0, 120.0), window=None, size=(200_000, 400_000),
                buffer_capacity=100 * MB, ttl=86400.0, seed_map=0):
    window = window or (0.0, duration)
    return ScenarioConfig(
        map=MapConfig(width=500.0, height=500.0, grid_step=50.0,
                      map_seed=seed_map),
        pois=PoiConfig(houses=6, offices=3, evening_spots=3, bus_stops=6),
        mobility=MobilitySettings(group_sizes=nodes, bus_lines=1,
                                  buses_per_line=1),
        traffic=TrafficConfig(interval_range=interval, size_range=size,
                              ttl=ttl, window=window, copy_limit=10),
        routing=RoutingConfig(router=router, buffer_capacity=buffer_capacity),
        duration=duration,
    )


class TestConfigValidation:
    def test_default_desk_config_valid(self):
        desk_config().validate()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(desk_config(), duration=0).validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(desk_config(), tick=0).validate()
        with pytest.raises(ConfigError):
            desk_config(router="prophet").validate()
        with pytest.raises(ConfigError):
            dataclasses.replace(
                desk_config(),
                mobility=MobilitySettings(group_sizes=(1, 0, 0, 0, 0))).validate()

    def test_zero_scan_and_rest_rejected(self):
        # a node refused the AP role would scan and rest forever at one
        # instant; the run is never started
        with pytest.raises(ConfigError, match="scan_time and rest_time"):
            load_scenario("desk", overrides=["radio.scan_time=0",
                                             "radio.rest_time=0"])
        load_scenario("desk", overrides=["radio.scan_time=0"])
        load_scenario("desk", overrides=["radio.rest_time=0"])

    def test_rng_streams_independent_and_stable(self):
        a = stream_rng(7, "traffic").random(4)
        b = stream_rng(7, "traffic").random(4)
        c = stream_rng(7, "mobility").random(4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)


def recount_planes(sim, t):
    """Auditor: each plane's in_flight_to, ap_active, holders, pins and
    Buffer.used recomputed from its links and buffers, its links from the
    world's associations, and every send's rate from its AP's co-channel
    count and sends. Every send's sender holds its copy, pinned, and
    ap_active has a non-empty entry for exactly the APs with a send. A
    link whose summary_key is current lacks no offer: a fresh summary
    exchange plans nothing that is not queued on it, pinned at its
    sender, in flight to its receiver or expired."""
    clients = {(st.attached_ap, n) for n, st in enumerate(sim.radio)
               if st.phase is Phase.CLIENT}
    aps = {n for n, st in enumerate(sim.radio) if st.phase is Phase.AP}
    for plane in sim.planes:
        links = {id(link): link for ends in plane.links
                 for link in ends.values()}.values()
        assert {(link.ap, link.client) for link in links} == clients
        for link in links:
            assert link.open
            assert plane.links[link.ap][link.client] is link
            assert plane.links[link.client][link.ap] is link
        sends = [link.active for link in links if link.active is not None]
        assert plane.in_flight_to == {(tr.dst, tr.msg.msg_id) for tr in sends}
        for link in links:
            if link.summary_key != plane._summary_key(link):
                continue
            for src, dst in ((link.ap, link.client), (link.client, link.ap)):
                for plan in plane.policy.select_transfers(
                        plane.buffers[src], plane._summary_of(dst)):
                    mid = plan.msg_id
                    entry = plane.buffers[src].get(mid)
                    assert ((src, mid) in link.queued or entry.pinned
                            or (dst, mid) in plane.in_flight_to
                            or entry.message.expired(t)), (t, src, dst, mid)
        busy = {tr.link.ap for tr in sends}
        assert set(plane.ap_active) == busy, t
        assert busy <= aps
        for ap, active in plane.ap_active.items():
            assert active, (t, ap)
            assert set(active) == {tr for tr in sends if tr.link.ap == ap}
            rate = effective_bandwidth(
                sim.link_model, _co_channel_count(sim.ap_near, ap),
                len(active))
            assert all(tr.rate == rate for tr in active), (t, ap)
        pinned = {(tr.src, tr.msg.msg_id) for tr in sends}
        for src, mid in pinned:
            entry = plane.buffers[src].get(mid)
            assert entry is not None and entry.pinned, (t, src, mid)
        held = {}
        for nid, buf in enumerate(plane.buffers):
            assert buf.used == sum(e.message.size for e in buf.entries.values())
            for mid, entry in buf.entries.items():
                assert entry.pinned == ((nid, mid) in pinned)
                held.setdefault(mid, set()).add(nid)
        assert {mid: h for mid, h in plane.holders.items() if h} == held


def recount_world(sim, t):
    """Auditor: node_cell, grid and ap_grid recomputed from positions and
    radio phases; every CLIENT either has one live event, a rescan or its
    result, or sleeps with a current token on all nine cells of its ring
    and the scan key of its ring's cell versions and AP now; no other
    node has a rescan event or a current token. A dormant node has no
    other node in its ring, no live radio event and no link on any plane,
    and is registered on exactly the nine cells of its ring; every other
    node that does not sleep has a live radio event."""
    size = sim.cell_size
    cells = [(int(x // size), int(y // size)) for x, y in sim.pos]
    assert sim.node_cell == cells
    grid, ap_grid = {}, {}
    for nid, cell in enumerate(cells):
        grid.setdefault(cell, set()).add(nid)
        if sim.radio[nid].phase is Phase.AP:
            ap_grid.setdefault(cell, set()).add(nid)
    assert {c: set(b) for c, b in sim.grid.items()} == grid
    assert {c: set(b) for c, b in sim.ap_grid.items()} == ap_grid
    live = {}
    for _, nid, _, kind, epoch in sim.radio_events:
        if epoch == sim.epoch[nid]:
            live.setdefault(nid, []).append(kind)
    for nid, state in enumerate(sim.radio):
        token = sim.asleep[nid]
        asleep = token is not None and token[1] == sim.epoch[nid]
        if state.phase is Phase.CLIENT and asleep:
            assert nid not in live
            ring = _ring(*cells[nid])
            for cell in ring:
                assert sim.watchers[cell][nid] == token
            assert sim.client_scan_key[nid] == (
                *map(sim.cellver.get, ring), state.attached_ap), (t, nid)
        elif state.phase is Phase.CLIENT:
            assert live.get(nid) in (["rescan"], ["rescan_result"])
        else:
            assert not asleep
            assert not {"rescan", "rescan_result"} & set(live.get(nid, ()))
            assert (nid in live) != (nid in sim.dormant)
    for nid in sim.dormant:
        ring = _ring(*cells[nid])
        assert all(grid.get(cell, {nid}) == {nid} for cell in ring)
        assert not any(plane.links[nid] for plane in sim.planes)
        assert {c for c, b in sim.dormant_on.items() if nid in b} == set(ring)
    assert all(b and set(b) <= set(sim.dormant)
               for b in sim.dormant_on.values())


class TestScriptedTwoNode:
    """Two idle co-located nodes: network build takes scan+ap+scan+connect."""

    def run_sim(self):
        sim = Simulation(scripted_config(), seed=1,
                         static_positions=[(0.0, 0.0), (5.0, 0.0)],
                         ap_gate={0: True, 1: False})
        timeline = []
        sim.auditors = [lambda s, t: timeline.append(
            (t, s.radio[0].phase, s.radio[1].phase))]
        sim.audit_interval = 1.0
        report = sim.run()
        return sim, report, timeline

    def test_first_data_flow_at_16s(self):
        sim, report, timeline = self.run_sim()
        # node 0 claims the AP role at 6 s; node 1 attaches at 16 s
        ap_times = [t for t, p0, _ in timeline if p0 is Phase.AP]
        client_times = [t for t, _, p1 in timeline if p1 is Phase.CLIENT]
        assert min(ap_times) == pytest.approx(6.0, abs=1.0)
        assert min(client_times) == pytest.approx(16.0, abs=1.0)

    def test_delivery_time_matches_hand_computed_timeline(self):
        sim, report, _ = self.run_sim()
        # one 1 MB message, link up at 16 s, 5 MB/s: delivered at 16.2 s
        assert report.generated == 1
        assert report.delivered == 1
        (delivered_at,) = sim.planes[0].collector.delivered_at.values()
        assert delivered_at == pytest.approx(16.2, abs=1e-6)
        assert report.avg_latency == pytest.approx(16.2 - 10.0, abs=1e-6)

    def test_same_seed_identical_reports(self):
        _, r1, _ = self.run_sim()
        _, r2, _ = self.run_sim()
        assert r1 == r2


class TestDisruptionScripts:
    """An AP departs; rebuilding takes 10 s with an alternate AP, 16 s without."""

    def gap_with_alternate(self):
        # node0: AP serving node1; node2: alternate AP 17 m from node1 but
        # out of node0's range, so it claims its own AP role at startup.
        cfg = scripted_config(duration=120.0, window=(0.0, 1.0),
                              interval=(100.0, 100.0))
        sim = Simulation(
            cfg, seed=3,
            static_positions=[(0.0, 0.0), (5.0, 0.0), (22.0, 0.0)],
            ap_gate={0: True, 1: False, 2: True},
            scripted_moves=[(40.0, 0, (5000.0, 5000.0))])
        connected = []
        sim.auditors = [lambda s, t: connected.append(
            (t, s.radio[1].phase is Phase.CLIENT))]
        sim.audit_interval = 1.0
        sim.run()
        return connected

    def test_reinitiate_with_alternate_ap_is_10s(self):
        connected = self.gap_with_alternate()
        drop = min(t for t, ok in connected if t > 20 and not ok)
        up_again = min(t for t, ok in connected if t > drop and ok)
        assert up_again - drop == pytest.approx(10.0, abs=1.0)

    def test_reinitiate_without_alternate_ap_is_16s(self):
        cfg = scripted_config(duration=120.0, window=(0.0, 1.0),
                              interval=(100.0, 100.0))
        sim = Simulation(
            cfg, seed=3,
            static_positions=[(0.0, 0.0), (5.0, 0.0), (8.0, 0.0)],
            ap_gate={0: True, 1: True, 2: False},
            scripted_moves=[(40.0, 0, (5000.0, 5000.0))])
        connected = []
        sim.auditors = [lambda s, t: connected.append(
            (t, s.radio[2].phase is Phase.CLIENT))]
        sim.audit_interval = 1.0
        sim.run()
        drop = min(t for t, ok in connected if t > 20 and not ok)
        up_again = min(t for t, ok in connected if t > drop and ok)
        assert up_again - drop == pytest.approx(16.0, abs=1.0)

    def test_ap_moving_away_restores_its_neighbours_rate(self):
        # AP 2 passes by AP 0, which sends 50 MB to its client 1 from
        # 16 s: 20 MB go by 20 s at 5 MB/s, 5 MB by 22 s at the shared
        # 2.5 MB/s, and once AP 2 has left the other 25 MB at 5 MB/s again
        cfg = scripted_config(duration=120.0)
        cfg = dataclasses.replace(cfg, traffic=dataclasses.replace(
            cfg.traffic, size_range=(50 * MB, 50 * MB)))
        sim = Simulation(
            cfg, seed=3,
            static_positions=[(0.0, 0.0), (5.0, 0.0), (200.0, 0.0)],
            ap_gate={0: True, 1: False, 2: True},
            scripted_moves=[(20.0, 2, (0.0, 15.0)), (22.0, 2, (200.0, 0.0))],
            auditors=[recount_planes], audit_interval=1.0)
        sim.run()
        (msg,) = sim.planes[0].messages.values()
        assert (msg.source, msg.destination) == (0, 1)
        assert sim.planes[0].collector.delivered_at == {
            msg.msg_id: pytest.approx(27.0, abs=1e-9)}


class TestDeskRuns:
    def test_conservation_and_counters(self):
        report = run(desk_config(), seed=5)
        report.check_conservation()   # also enforced in run()
        assert report.generated > 0
        assert report.relayed >= report.delivered

    def test_determinism_same_seed(self):
        cfg = desk_config(router="snw")
        r1 = run(cfg, seed=11)
        r2 = run(cfg, seed=11)
        assert r1 == r2

    def test_different_seeds_differ(self):
        cfg = desk_config()
        assert run(cfg, seed=1) != run(cfg, seed=2)

    def test_eviction_pressure_accounted(self):
        cfg = desk_config(interval=(8.0, 16.0), buffer_capacity=2 * MB,
                          duration=5400.0)
        report = run(cfg, seed=7)
        assert report.evicted_copies > 0
        report.check_conservation()

    def test_ttl_expiry_accounted(self):
        cfg = desk_config(duration=5400.0, ttl=900.0, interval=(30.0, 60.0))
        report = run(cfg, seed=9)
        assert report.ttl_dropped > 0
        report.check_conservation()

    def test_traffic_stream_does_not_touch_mobility(self):
        # identical mobility trace under different traffic loads
        positions = {}
        def probe(tag):
            def aud(sim, t):
                positions.setdefault(tag, []).append(
                    (t, tuple(sim.pos)))
            return aud
        for tag, interval in (("a", (60.0, 120.0)), ("b", (15.0, 30.0))):
            cfg = desk_config(interval=interval, duration=3600.0)
            sim = Simulation(cfg, seed=13, auditors=[probe(tag)],
                             audit_interval=300.0)
            sim.run()
        assert positions["a"] == positions["b"]

    def test_observer_leaves_a_fine_tick_report_unchanged(self):
        # a no-op auditor makes the loop visit ticks the idle fast-forward
        # would skip; with a 0.3 s tick every visited time must still be
        # the same float, whichever ticks were visited before it
        cfg = load_scenario("desk", router="hrson", duration=21600.0,
                            overrides=["engine.tick=0.3",
                                       "radio.client_rescan=10"])
        plain = run(cfg, seed=7)
        observed = run(cfg, seed=7, auditors=[lambda s, t: None],
                       audit_interval=7.0)
        assert observed == plain

    def test_hrson_gates_ap_to_home(self):
        cfg = desk_config(router="hrson", duration=7200.0)
        seen_ap_states = []
        def aud(sim, t):
            for nid in range(sim.n_nodes):
                if sim.radio[nid].phase is Phase.AP:
                    seen_ap_states.append(sim.model.at_home(nid))
        sim = Simulation(cfg, seed=3, auditors=[aud], audit_interval=200.0)
        sim.run()
        assert seen_ap_states, "some node should take the AP role"


class TestEngineInvariants:
    def test_links_bandwidth_and_ttl_invariants_hold_every_tick(self):
        # one auditor sweeping three spec invariants over a lively run that
        # covers the parked night, the 08:00 commute wave and office hours
        cfg = desk_config(interval=(20.0, 40.0), duration=36000.0,
                          buffer_capacity=4 * MB, ttl=3000.0)
        violations = []

        def auditor(sim, t):
            r2 = sim.link_model.range ** 2
            for nid in range(sim.n_nodes):
                st = sim.radio[nid]
                if st.phase is Phase.CLIENT:
                    ap = st.attached_ap
                    ax, ay = sim.pos[ap]
                    x, y = sim.pos[nid]
                    if sim.radio[ap].phase is not Phase.AP:
                        violations.append((t, nid, "ap role"))
                    if (ax - x) ** 2 + (ay - y) ** 2 > r2 + 1e-6:
                        violations.append((t, nid, "range"))
            for ap, active in sim.planes[0].ap_active.items():
                if not active:
                    continue
                cap = sim.link_model.base_speed / _co_channel_count(
                    sim.ap_near, ap)
                total = sum(tr.rate for tr in active)
                if total > cap + 1e-6:
                    violations.append((t, ap, "bandwidth"))
            for nid in range(sim.n_nodes):
                for entry in sim.planes[0].buffers[nid].entries.values():
                    if t - entry.message.created_at > entry.message.ttl + cfg.tick:
                        violations.append((t, nid, "ttl"))

        sim = Simulation(cfg, seed=21, auditors=[auditor], audit_interval=1.0)
        sim.run()
        assert violations == []

    def test_co_channel_count_matches_a_full_scan(self):
        # the AP neighbour table against a scan of every AP pair, through
        # a lively run in which APs come, go and ride along on the commute
        cfg = desk_config(interval=(20.0, 40.0), duration=36000.0)
        mismatches = []
        crowded = []

        def auditor(sim, t):
            r2 = sim.link_model.range ** 2
            aps = [n for n in range(sim.n_nodes)
                   if sim.radio[n].phase is Phase.AP]
            for ap in aps:
                ax, ay = sim.pos[ap]
                near = {o for o in aps if o != ap
                        and (sim.pos[o][0] - ax) ** 2
                        + (sim.pos[o][1] - ay) ** 2 <= r2}
                if near:
                    crowded.append(t)
                if (_co_channel_count(sim.ap_near, ap) != 1 + len(near)
                        or sim.ap_near[ap] != near):
                    mismatches.append((t, ap))
            for n in range(sim.n_nodes):
                if n not in aps and sim.ap_near[n]:
                    mismatches.append((t, n))

        sim = Simulation(cfg, seed=21, auditors=[auditor], audit_interval=2.0)
        sim.run()
        assert crowded, "no two APs were ever in range of each other"
        assert mismatches == []

    @pytest.mark.parametrize("preset,router", [("desk", "snw"),
                                               ("desk", "epidemic"),
                                               ("scenario4", "hrson")])
    def test_a_new_ap_has_no_ap_in_range(self, preset, router):
        # step_radio takes the AP role only after a scan that found no AP;
        # replaying a dormant node's AP cycle relies on it
        seen = []

        class Watched(Simulation):
            def _ap_created(self, nid, t):
                seen.append(self._neighbors(nid, self.ap_grid))
                super()._ap_created(nid, t)

        kw = {"nodes": 80} if preset == "scenario4" else {}
        cfg = load_scenario(preset, router=router, duration=36000.0, **kw)
        Watched(cfg, 3).run()
        assert len(seen) > 100
        assert not any(seen)

    @pytest.mark.parametrize("buffer_capacity,token_audit", [
        (100 * MB, True), (4 * MB, False)])
    def test_plane_structures_match_a_recount(self, buffer_capacity,
                                              token_audit):
        # every plane's hand-kept structures against a recount from its
        # links and buffers, every 2 s on three planes of one world; small
        # buffers add evictions (the token audit under evictions has a
        # test of its own)
        cfg = desk_config(router="snw", interval=(20.0, 40.0),
                          duration=36000.0, buffer_capacity=buffer_capacity,
                          ttl=3000.0)
        audits = []
        sim = Simulation(apply_sweep_value(cfg, "copies", 2), seed=21,
                         auditors=[recount_planes,
                                   lambda s, t: audits.append(t)],
                         audit_interval=2.0, token_audit=token_audit)
        for copies in (8, 4):
            sim.add_plane(apply_sweep_value(cfg, "copies", copies))
        sim.run()
        assert len(audits) == 17999       # 2 s to 35998 s
        for plane in sim.planes:
            rep = plane.report
            assert min(rep.ttl_dropped, rep.aborted) > 0
            assert (rep.evicted_copies > 0) == (buffer_capacity < 100 * MB)

    def test_a_refused_offer_comes_back(self):
        # 0.7 MB buffers hold one or two copies, so copies pinned by their
        # sends make some admissions fail; a link whose summary key has
        # not moved since a refusal would never offer the copy again
        cfg = desk_config(interval=(20.0, 40.0), duration=36000.0,
                          buffer_capacity=700_000, ttl=3000.0)
        sim = Simulation(cfg, seed=21, auditors=[recount_planes],
                         audit_interval=2.0)
        sim.run()
        assert sum(sim.planes[0].refused) > 0

    def test_token_audit_counts_tokens_lost_to_eviction(self):
        # 4 MB buffers evict live spray copies, and an evicted copy takes
        # its tokens with it; copies 2, 4 and 8 run as planes of one world
        cfg = desk_config(router="snw", interval=(20.0, 40.0),
                          duration=36000.0, buffer_capacity=4 * MB,
                          ttl=3000.0)
        sim = Simulation(apply_sweep_value(cfg, "copies", 2), seed=21,
                         token_audit=True)
        for copies in (4, 8):
            sim.add_plane(apply_sweep_value(cfg, "copies", copies))
        sim.run()
        for plane in sim.planes:
            assert plane.report.evicted_copies > 0

    def test_world_structures_match_a_recount(self):
        # grids, cells, rescan sleepers and dormant nodes against a recount
        # every 2 s through the night and the 08:00 commute on the city map
        cfg = load_scenario("scenario4", router="hrson", nodes=80,
                            duration=36000.0)
        seen = []

        def count(sim, t):
            clients = [n for n, st in enumerate(sim.radio)
                       if st.phase is Phase.CLIENT]
            asleep = sum(1 for n in clients if sim.asleep[n] is not None
                         and sim.asleep[n][1] == sim.epoch[n])
            dormant_aps = sum(1 for n in sim.dormant
                              if sim.radio[n].phase is Phase.AP)
            seen.append((asleep, len(clients) - asleep, len(sim.moving),
                         len(sim.dormant), dormant_aps))

        sim = Simulation(cfg, seed=3, auditors=[recount_world, count],
                         audit_interval=2.0)
        sim.run()
        assert len(seen) == 17999
        # clients slept and woke, and nodes moved while others slept
        assert max(a for a, _, _, _, _ in seen) > 0
        assert max(w for _, w, _, _, _ in seen) > 0
        assert any(a and m for a, _, m, _, _ in seen)
        # nodes went dormant, and the auditors saw some of them in the AP
        # role, while others moved
        assert any(d and m for _, _, m, d, _ in seen)
        assert max(aps for _, _, _, _, aps in seen) > 0
        assert not sim.dormant            # the end of the run wakes them

    def test_desk_day_completes_quickly(self):
        import time
        cfg = desk_config(duration=86400.0, interval=(120.0, 180.0))
        t0 = time.time()
        run(cfg, seed=2)
        assert time.time() - t0 < 60.0

    def test_single_tick_run_edge(self):
        # shortest legal horizon: traffic may appear, nothing can deliver
        cfg = desk_config(duration=1.0, interval=(0.5, 0.5),
                          window=(0.0, 1.0))
        rep = run(cfg, seed=1)
        assert rep.delivered == 0
        assert rep.generated >= 1
        rep.check_conservation()

    def test_relayed_never_below_delivered(self):
        for seed in (1, 2, 3):
            rep = run(desk_config(duration=3600.0), seed=seed)
            assert rep.relayed >= rep.delivered
            if rep.overhead_ratio is not None:
                assert rep.overhead_ratio >= 0.0


class PollingSimulation(Simulation):
    """The world with the client rescan loop that sleeping clients
    replaced: a CLIENT whose rescan finds nothing changed polls again
    `client_rescan` later. It never sleeps, so nothing wakes it."""

    def _client_rescan(self, nid, t):
        state = self.radio[nid]
        if state.phase is not Phase.CLIENT:
            return
        key = (*map(self.cellver.get, _ring(*self.node_cell[nid])),
               state.attached_ap)
        if self.client_scan_key.get(nid) == key:
            self._push_radio(t + self.config.radio.client_rescan, nid,
                             "rescan")
            return
        self.client_scan_key[nid] = key
        self._push_radio(t + self.timing.t_scan, nid, "rescan_result")


class TestClientRescan:
    """Sleeping clients give the reports of clients that poll."""

    @pytest.mark.parametrize("preset,router,seed,duration,overrides", [
        # 13.3 s is off the 1 s grid, and zero connect and AP times push
        # events for the current tick, which go out of heap order
        ("desk", "hrson", 48, 50000.0, ["radio.client_rescan=13.3",
                                        "radio.connect_time=0",
                                        "radio.ap_time=0"]),
        ("desk", "hrson", 53, 36000.0, ["engine.tick=0.25",
                                        "radio.client_rescan=29"]),
        ("desk", "snw", 34, 50000.0, ["radio.client_rescan=0.9",
                                      "radio.range=30"]),
        ("scenario4", "epidemic", 3, 36000.0, ["engine.tick=0.3",
                                               "radio.client_rescan=7.5"]),
    ])
    def test_reports_equal_polling_clients(self, preset, router, seed,
                                           duration, overrides):
        kw = {"nodes": 80} if preset == "scenario4" else {}
        cfg = load_scenario(preset, router=router, duration=duration,
                            overrides=overrides, **kw)
        assert Simulation(cfg, seed).run() == PollingSimulation(cfg,
                                                                seed).run()


class CountingSimulation(Simulation):
    """The world, counting the APs that go dormant, the AP roles taken on
    the world's heap and the AP roles stepped, on either heap."""

    def __init__(self, *args, **kwargs):
        self.dormancies = 0
        self.ap_created = 0
        self.roles = 0
        super().__init__(*args, **kwargs)

    def _may_go_dormant(self, nid):
        dormant = super()._may_go_dormant(nid)
        self.dormancies += dormant
        return dormant

    def _ap_created(self, nid, t):
        self.ap_created += 1
        super()._ap_created(nid, t)

    def _take_ap_role(self, nid, state, t):
        self.roles += 1
        super()._take_ap_role(nid, state, t)


class AwakeSimulation(CountingSimulation):
    """The world in which no node goes dormant: every AP cycle runs event
    by event on the world's heap."""

    def _may_go_dormant(self, nid):
        return False


def world_state(sim):
    """The world's state, comparable across runs that push different
    numbers of radio events: the live radio events, on the world's heap
    or a dormant node's own, without their seq numbers, and only current
    sleep tokens."""
    def current(nid, token):
        return (token is not None and token[1] == sim.epoch[nid]
                and sim.asleep[nid] == token)

    events = [(time, nid, kind, epoch)
              for heap in (sim.radio_events, *sim.dormant.values())
              for time, nid, _, kind, epoch in heap]
    watchers = {cell: {n: tok for n, tok in b.items() if current(n, tok)}
                for cell, b in sim.watchers.items()}
    return {
        "radio": [(st.phase, st.timer_expiry, st.attached_ap,
                   list(st.clients), st.ap_since, st.last_client_change,
                   st.connect_target) for st in sim.radio],
        "epoch": list(sim.epoch),
        "events": sorted(e for e in events if e[3] == sim.epoch[e[1]]),
        "mobility": sorted(sim.mobility_events),
        "moving": sorted(sim.moving),
        "pos": list(sim.pos),
        "node_cell": list(sim.node_cell),
        "grid": {c: list(b) for c, b in sim.grid.items()},
        "ap_grid": {c: list(b) for c, b in sim.ap_grid.items()},
        "ap_near": [sorted(near) for near in sim.ap_near],
        "cellver": dict(sim.cellver),
        "client_scan_key": dict(sim.client_scan_key),
        "asleep": [tok if current(n, tok) else None
                   for n, tok in enumerate(sim.asleep)],
        "watchers": {c: b for c, b in watchers.items() if b},
        "planes": [(sorted(p.ap_active),
                    sorted({(link.ap, link.client) for ends in p.links
                            for link in ends.values()}))
                   for p in sim.planes],
    }


def fixed_gate_world(cls):
    """Static nodes with fixed AP gates under epidemic, the coin router,
    and scripted moves that enter dormant rings, move dormant nodes and
    leave them alone again."""
    cfg = scripted_config(duration=10800.0, window=(0.0, 10800.0),
                          interval=(30.0, 60.0))
    cfg = dataclasses.replace(cfg, radio=RadioConfig())
    positions = [(10.0, 10.0), (110.0, 10.0), (210.0, 10.0), (215.0, 10.0),
                 (310.0, 10.0), (10.0, 110.0), (50.0, 10.0), (150.0, 150.0)]
    gate = {0: True, 1: True, 2: True, 3: False, 4: False, 5: True,
            6: True, 7: False}
    moves = [
        (600.0, 7, (112.0, 12.0)),      # into node 1's cell, in range
        (1500.0, 7, (150.0, 150.0)),    # and away: node 1 is alone again
        (2000.4, 0, (12.0, 13.0)),      # a dormant node moves in its cell
        (2600.0, 7, (25.0, 5.0)),       # into the rings of nodes 0 and 6
        (2700.0, 7, (150.0, 150.0)),
        (3300.0, 5, (30.0, 150.0)),     # a dormant node changes cell
        (4000.0, 3, (210.0, 50.0)),     # out of node 2's ring
        (5000.0, 7, (70.0, 30.0)),      # out of range, in node 6's ring
        (5400.0, 7, (150.0, 150.0)),
        (7000.0, 3, (215.0, 10.0)),     # back to node 2
    ]
    return cls(cfg, 5, static_positions=positions, ap_gate=gate,
               scripted_moves=moves)


def preset_world(cls, preset, router, seed, duration, overrides):
    kw = {"nodes": 80} if preset == "scenario4" else {}
    cfg = load_scenario(preset, router=router, duration=duration,
                        overrides=overrides, **kw)
    return cls(cfg, seed)


class TestDormantAps:
    """Dormant APs give the reports and the world of APs that never sleep."""

    @pytest.mark.parametrize("world,args", [
        # the client rescan cases above
        (preset_world, ("desk", "hrson", 48, 50000.0,
                        ["radio.client_rescan=13.3", "radio.connect_time=0",
                         "radio.ap_time=0"])),
        (preset_world, ("desk", "hrson", 53, 36000.0,
                        ["engine.tick=0.25", "radio.client_rescan=29"])),
        (preset_world, ("desk", "snw", 34, 50000.0,
                        ["radio.client_rescan=0.9", "radio.range=30"])),
        (preset_world, ("scenario4", "epidemic", 3, 36000.0,
                        ["engine.tick=0.3", "radio.client_rescan=7.5"])),
        # a tick off the 1 s grid; zero AP and connect times, which push
        # events for the current tick; an idle timeout off the tick grid
        (preset_world, ("scenario4", "hrson", 3, 36000.0,
                        ["engine.tick=0.3"])),
        (preset_world, ("scenario4", "hrson", 8, 36000.0,
                        ["radio.ap_time=0", "radio.connect_time=0"])),
        (preset_world, ("desk", "hrson", 5, 50000.0,
                        ["radio.ap_idle_timeout=37.7"])),
        (fixed_gate_world, ()),
        # nodes alone at home cycle in step from their staggered start;
        # with a 55 s idle timeout some end a scan on the 08:00 tick at
        # which they leave home, and that scan must find the gate closed
        (preset_world, ("scenario4", "hrson", 1, 29000.0,
                        ["radio.ap_idle_timeout=55"])),
        # other cycle shapes: an AP retired at its term before its idle
        # deadline, and a scan that ends on the tick it starts
        (preset_world, ("desk", "hrson", 9, 50000.0,
                        ["radio.ap_max_duration=40"])),
        (preset_world, ("scenario4", "hrson", 2, 36000.0,
                        ["radio.scan_time=0", "radio.rest_time=3"])),
    ])
    def test_reports_and_world_equal_awake_aps(self, world, args):
        sim = world(CountingSimulation, *args)
        awake = world(AwakeSimulation, *args)
        assert sim.run() == awake.run()
        assert world_state(sim) == world_state(awake)
        # only a gate that answers without a draw lets a node go dormant,
        # and a dormant node's AP cycles leave the world's heap
        drawless = sim.home_gate or bool(sim.ap_gate)
        assert (sim.dormancies > 0) == drawless
        assert (sim.ap_created < awake.ap_created) == drawless
        # the replay skips repeated cycles only when the tick and the
        # cycle's times are whole seconds; else it steps every AP role the
        # live loop does
        cfg = sim.config
        whole = all(float(v).is_integer() for v in (
            cfg.tick, cfg.radio.timing.t_scan, cfg.radio.timing.t_rest,
            cfg.radio.timing.t_ap, cfg.radio.ap_idle_timeout,
            cfg.radio.ap_max_duration))
        assert sim.roles <= awake.roles
        assert (sim.roles < awake.roles) == (drawless and whole)

    def test_a_lonely_node_jumps_its_repeated_cycles(self):
        # nodes 0 and 1 sit alone for 10 h under a gate that lets them be
        # APs, and take the AP role every 66 s: a 5 s scan, 1 s to become
        # an AP and a 60 s idle wait. Node 2 is node 0's client until it
        # moves away at 40 s, so node 0's first role has a shape of its own
        def world(cls, auditors=()):
            return cls(scripted_config(duration=36000.0), 1,
                       static_positions=[(10.0, 10.0), (300.0, 300.0),
                                         (15.0, 10.0)],
                       ap_gate={0: True, 1: True, 2: False},
                       scripted_moves=[(40.0, 2, (150.0, 150.0))],
                       auditors=auditors, audit_interval=777.0)

        sim, awake = world(CountingSimulation), world(AwakeSimulation)
        assert sim.run() == awake.run()
        assert world_state(sim) == world_state(awake)
        assert awake.roles > 1000
        assert sim.roles <= 8

        # the auditors catch the dormant nodes up every 777 s, at every
        # point of their cycle, each time across several periods
        states = {}

        def record(tag):
            def aud(sim, t):
                states.setdefault(tag, []).append(world_state(sim))
            return aud

        sim = world(CountingSimulation, [record("dormant")])
        awake = world(AwakeSimulation, [record("awake")])
        assert sim.run() == awake.run()
        assert states["dormant"] == states["awake"]
        assert len(states["awake"]) == 46
        assert sim.roles < awake.roles / 5

    def test_wake_on_the_tick_of_a_due_event(self):
        # nodes 0 and 3 sit alone and go dormant; each ends a scan at
        # 71 + 66k s. AP 1 arrives by script next to node 0 at 137 s, and
        # node 3 moves by script next to AP 1 at 269 s: each scan must see
        # AP 1, so each wake catches up only to the tick before
        def world(cls, auditors):
            return cls(scripted_config(duration=600.0), 1,
                       static_positions=[(10.0, 10.0), (200.0, 10.0),
                                         (205.0, 10.0), (10.0, 300.0)],
                       ap_gate={0: True, 1: True, 2: False, 3: True},
                       scripted_moves=[(137.0, 1, (12.0, 12.0)),
                                       (269.0, 3, (15.0, 12.0))],
                       auditors=auditors, audit_interval=1.0)

        states = {}
        seen = {}

        def record(tag):
            def aud(sim, t):
                states.setdefault(tag, []).append(world_state(sim))
                if tag == "dormant" and t in (136.0, 137.0, 268.0, 269.0):
                    seen[t] = (sorted(sim.dormant),
                               [(st.phase, st.connect_target)
                                for st in sim.radio])
            return aud

        sim = world(Simulation, [record("dormant")])
        awake = world(AwakeSimulation, [record("awake")])
        assert sim.run() == awake.run()
        assert states["dormant"] == states["awake"]
        assert seen[136.0][0] == [0, 3] and seen[268.0][0] == [3]
        assert seen[137.0][1][0] == (Phase.CONNECTING, 1)
        assert seen[269.0][1][3] == (Phase.CONNECTING, 1)


class SpyPolicy(EpidemicPolicy):
    """Epidemic forwarding that records every summary scan it makes."""

    def __init__(self):
        super().__init__()
        self.scans = []

    def select_transfers(self, local, peer):
        plans = super().select_transfers(local, peer)
        self.scans.append((local, peer.node_id, [p.msg_id for p in plans]))
        return plans

    def scans_by_node(self, sim):
        """(sender, receiver, offered ids) of every scan recorded so far."""
        return [(sim.buffers.index(local), dst, ids)
                for local, dst, ids in self.scans]


class TestSummaryRefresh:
    """Periodic refreshes rescan a link only when a rescan can find more."""

    def setup_sim(self, holders, n_nodes=4):
        # static nodes in range of each other, except the far destination;
        # the run loop never starts, the test drives links by hand
        positions = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (500.0, 500.0)]
        spy = SpyPolicy()
        sim = Simulation(scripted_config(), seed=1,
                         static_positions=positions[:n_nodes]).planes[0]
        sim.policy = spy
        msg = Message(0, holders[0], n_nodes - 1, MB, 0.0, 86400.0, 10)
        sim.messages[0] = msg
        sim.msg_status[0] = "live"
        sim.holders[0] = set(holders)
        for h in holders:
            assert buffer_admit(sim.buffers[h], msg, 10)[0]
            msg.custodians.add(h)
        return sim, spy

    def test_refusal_requeues_offer_dropped_as_in_flight(self):
        sim, spy = self.setup_sim(holders=(1, 2))
        sim.buffers[0].capacity = MB // 2     # node 0 turns the copy down
        sim._establish_link(0, 1, 0.0)        # node 1 starts pushing it
        sim._establish_link(0, 2, 0.0)
        # node 2's offer was dropped: node 1 already pushes the same copy
        link2 = sim.links[2][0]
        assert link2.active is None and not link2.queue
        sim._transfer_step(0.0, 0.5)          # 1 MB at 5 MB/s ends at 0.2 s
        assert sim.refused[0] > 0
        assert sim.buffers[0].version == 0    # a refusal changes no buffer
        spy.scans.clear()
        sim._refresh_step(sim.config.routing.summary_refresh)
        # no buffer changed, yet node 2 offers its copy to node 0 again
        assert (2, 0, [0]) in spy.scans_by_node(sim)

    def test_refused_copy_is_not_sent_again_at_once(self):
        sim, _ = self.setup_sim(holders=(1,))
        sim.buffers[0].capacity = MB // 2     # node 0 turns the copy down
        sim._establish_link(0, 1, 0.0)
        sim._transfer_step(0.0, 10.0)
        # one send and one refusal; the copy waits for the next refresh
        assert sim.collector.relayed == 1
        assert sim.refused[0] == 1
        assert sim.links[0][1].active is None

    def test_unchanged_buffers_skip_the_rescan(self):
        sim, spy = self.setup_sim(holders=(0, 1), n_nodes=3)
        sim._establish_link(0, 1, 0.0)
        assert len(spy.scans) == 2            # one scan per side
        refresh = sim.config.routing.summary_refresh
        spy.scans.clear()
        sim._refresh_step(refresh)
        assert spy.scans == []
        # a buffer change makes the next pass rescan both sides
        extra = Message(1, 1, 2, MB, 0.0, 86400.0, 10)
        sim.messages[1] = extra
        sim.msg_status[1] = "live"
        sim.holders[1] = {1}
        assert buffer_admit(sim.buffers[1], extra, 10)[0]
        sim._refresh_step(2 * refresh)
        assert sorted(spy.scans_by_node(sim)) == [(0, 1, []), (1, 0, [1])]


class TestTransferTick:
    """A send that ends exactly on a tick completes in the window that
    holds its end, before that tick's radio step, whatever else happens."""

    def config(self, interval):
        return dataclasses.replace(
            scripted_config(duration=900.0, window=(0.0, 700.0),
                            interval=interval),
            traffic=TrafficConfig(interval_range=interval,
                                  size_range=(10 * MB, 10 * MB),
                                  ttl=86400.0, window=(0.0, 700.0),
                                  copy_limit=10))

    def run_sim(self, interval, far_node=False):
        positions = [(0.0, 0.0), (5.0, 0.0)]
        ap_gate = {0: True, 1: False}
        if far_node:                   # out of range, touches nothing
            positions.append((500.0, 500.0))
            ap_gate[2] = False
        return Simulation(self.config(interval), seed=3,
                          static_positions=positions, ap_gate=ap_gate)

    @pytest.mark.parametrize("far_node", [False, True])
    def test_send_ending_as_the_ap_retires_completes(self, far_node):
        # the message appears at 604 s and its 2 s send ends at 606 s, the
        # tick on which the AP (up since 6 s) reaches its 600 s limit
        report = self.run_sim((604.0, 604.0), far_node).run()
        assert (report.generated, report.delivered) == (1, 1)
        assert report.aborted == 0
        assert report.avg_latency == pytest.approx(2.0)

    def test_planes_match_solo_runs(self):
        # the second plane's creation at 604.5 s makes the loop visit 605 s,
        # which a solo run of the first plane skips
        sim = self.run_sim((604.0, 604.0))
        second = sim.add_plane(self.config((604.5, 604.5)))
        sim.run()
        assert sim.planes[0].report == self.run_sim((604.0, 604.0)).run()
        assert second.report == self.run_sim((604.5, 604.5)).run()


class TestPlanes:
    def test_follower_must_share_the_world(self):
        # a plane takes its world's seed and has no run() of its own; what
        # add_plane can still get wrong is the config and the moment
        cfg = desk_config(duration=900.0)
        sim = Simulation(cfg, seed=1)
        with pytest.raises(ConfigError):
            sim.add_plane(desk_config(duration=900.0, router="snw"))
        plane = sim.add_plane(apply_sweep_value(cfg, "copies", 4))
        assert sim.planes[1:] == [plane]
        sim.run()
        with pytest.raises(ConfigError):
            sim.add_plane(cfg)

    @pytest.mark.parametrize("parameter,values", [
        ("copies", [2, 8, 4]),
        ("ttl", [1800.0, 7200.0]),
        ("traffic_interval", [(30.0, 60.0), (60.0, 120.0)]),
        ("homes", [(3, 3), (6, 6)]),
    ])
    def test_sweep_equals_independent_runs(self, parameter, values):
        cfg = desk_config(router="snw", duration=5400.0)
        seeds = [1, 2, 3]
        expected = [(v, [run(apply_sweep_value(cfg, parameter, v), s,
                             token_audit=True) for s in seeds])
                    for v in values]
        for workers in (1, 2):
            assert sweep(cfg, parameter, values, seeds, workers=workers,
                         token_audit=True) == expected

    def test_sweep_leaves_no_simulation_for_the_collector(self):
        # neither a world nor its planes are in a reference cycle, so a
        # sweep's simulations are freed as soon as it returns, without a
        # garbage collection
        gc.collect()
        gc.disable()
        try:
            sweep(desk_config(router="snw", duration=1800.0), "copies",
                  [2, 4, 8], [1], workers=1)
            left = [o for o in gc.get_objects()
                    if isinstance(o, (Simulation, Plane))]
        finally:
            gc.enable()
        assert left == []


class TestBatchAndSweep:
    def test_batch_mean_of_singleton(self):
        cfg = desk_config(duration=1800.0)
        reports = run_batch(cfg, [4], workers=1)
        assert len(reports) == 1

    def test_batch_parallel_equals_sequential(self):
        cfg = desk_config(duration=1800.0)
        seq = run_batch(cfg, [1, 2], workers=1)
        par = run_batch(cfg, [1, 2], workers=2)
        assert render_runs_csv(seq) == render_runs_csv(par)

    def test_batch_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_batch(desk_config(), [])

    def test_sweep_rows_and_base_isolation(self):
        cfg = desk_config(duration=1800.0)
        rows = sweep(cfg, "copies", [4, 8], [1], workers=1)
        assert [v for v, _ in rows] == [4, 8]
        assert all(len(reps) == 1 for _, reps in rows)

    def test_homes_sweep_varies_only_offices_and_evening_spots(self):
        cfg = desk_config(duration=900.0)
        values = [(3, 3), (6, 6)]
        rows = sweep(cfg, "homes", values, [1], workers=1)
        assert len(rows) == 2
        for value, reps in rows:
            derived = apply_sweep_value(cfg, "homes", value)
            assert derived.pois.houses == cfg.pois.houses
            assert (derived.pois.offices, derived.pois.evening_spots) == value
            assert len(reps) == 1

    def test_apply_sweep_values(self):
        cfg = desk_config()
        assert apply_sweep_value(cfg, "copies", 12).traffic.copy_limit == 12
        assert apply_sweep_value(cfg, "ttl", 21600).traffic.ttl == 21600
        c2 = apply_sweep_value(cfg, "traffic_interval", (75, 100))
        assert c2.traffic.interval_range == (75.0, 100.0)
        c3 = apply_sweep_value(cfg, "homes", (450, 90))
        assert (c3.pois.offices, c3.pois.evening_spots) == (450, 90)
        assert c3.pois.houses == cfg.pois.houses
        with pytest.raises(ConfigError):
            apply_sweep_value(cfg, "speed", 1)

    def test_sweep_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep(desk_config(), "copies", [], [1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_task_names_its_seed_and_values(self, monkeypatch,
                                                    workers):
        finalize = Plane._finalize

        def fail_on_seed_2(plane, end):
            if plane.seed == 2:
                raise AuditError("boom")
            return finalize(plane, end)

        monkeypatch.setattr(Plane, "_finalize", fail_on_seed_2)
        cfg = desk_config(router="snw", duration=900.0)
        with pytest.raises(AuditError,
                           match=r"^seed 2, copies=\[2, 4\]: boom$"):
            sweep(cfg, "copies", [2, 4], [1, 2], workers=workers)
        with pytest.raises(AuditError, match=r"^seed 2: boom$"):
            run_batch(cfg, [1, 2], workers=workers)
