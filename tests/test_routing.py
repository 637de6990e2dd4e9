import itertools
import random

import pytest

from opposim.engine import Simulation
from opposim.routing import (
    SPRAY_MIN_TOKENS, Buffer, HasView, PeerSummary, RoutingError,
    buffer_admit, make_policy, router_name, send_key, spray_split,
)
from opposim.scenario import (RadioConfig, RoutingConfig, ScenarioConfig,
                              load_scenario)
from opposim.traffic import Message, TrafficConfig

MB = 1_000_000
EPIDEMIC = make_policy("epidemic")
SNW = make_policy("snw")


def msg(mid, src=0, dst=1, size=MB, created=0.0, ttl=86400.0, copies=10):
    return Message(mid, src, dst, size, created, ttl, copies)


class TestBufferAdmit:
    def test_trivial_fit_no_eviction(self):
        b = Buffer(100 * MB)
        ok, evicted = buffer_admit(b, msg(1), 10)
        assert ok and evicted == []
        assert b.used == MB

    def test_fifo_eviction_makes_room(self):
        b = Buffer(100 * MB)
        for i in range(100):  # exactly full: 100 x 1 MB
            ok, _ = buffer_admit(b, msg(i, size=MB), 10)
            assert ok
        assert b.used == 100 * MB
        big = msg(500, size=int(1.5 * MB))
        ok, evicted = buffer_admit(b, big, 10)
        assert ok
        # Oldest-received entries go first, just enough to fit 1.5 MB.
        assert [e.message.msg_id for e in evicted] == [0, 1]
        assert b.used == 98 * MB + int(1.5 * MB)

    def test_oversized_message_rejected(self):
        b = Buffer(100 * MB)
        ok, evicted = buffer_admit(b, msg(1, size=101 * MB), 10)
        assert not ok and evicted == []
        assert b.used == 0

    def test_pinned_entries_survive_eviction(self):
        b = Buffer(2 * MB)
        buffer_admit(b, msg(1), 10)
        buffer_admit(b, msg(2), 10)
        b.get(1).pinned = True
        ok, evicted = buffer_admit(b, msg(3), 10)
        assert ok
        assert [e.message.msg_id for e in evicted] == [2]
        assert 1 in b.entries

    def test_refused_admit_keeps_fifo_order(self):
        b = Buffer(300)
        for i in range(3):
            ok, _ = buffer_admit(b, msg(i, size=100), 10)
            assert ok
        b.get(2).pinned = True
        version = b.version
        # evicting 0 and 1 still leaves no room next to the pinned copy
        ok, evicted = buffer_admit(b, msg(10, size=250), 10)
        assert not ok and evicted == []
        assert list(b.entries) == [0, 1, 2]
        assert b.used == 300 and b.version == version
        b.get(2).pinned = False
        ok, evicted = buffer_admit(b, msg(11, size=100), 10)
        assert ok
        assert [e.message.msg_id for e in evicted] == [0]
        assert list(b.entries) == [1, 2, 11]

    def test_duplicate_id_rejected(self):
        b = Buffer(100 * MB)
        buffer_admit(b, msg(1), 10)
        with pytest.raises(RoutingError):
            buffer_admit(b, msg(1), 10)

    def test_sprayable_lists_copies_that_can_spray(self):
        b = Buffer(3 * MB)
        for mid, tokens in ((1, 4), (2, 1), (3, 2)):
            buffer_admit(b, msg(mid), tokens)
        assert [e.message.msg_id for e in b.sprayable] == [1, 3]
        b.set_tokens(b.get(3), 1)
        b.set_tokens(b.get(2), 2)
        b.set_tokens(b.get(1), 3)
        assert [e.message.msg_id for e in b.sprayable] == [1, 2]
        ok, evicted = buffer_admit(b, msg(4), 1)     # evicts copy 1
        assert ok and [e.message.msg_id for e in evicted] == [1]
        b.remove(2)
        assert b.sprayable == []



def far_apart(n, traffic=None):
    """The routing plane of n static nodes, all out of each other's range."""
    config = ScenarioConfig(traffic=traffic or TrafficConfig())
    return Simulation(config, seed=3, static_positions=[
        (100.0 * i, 0.0) for i in range(n)]).planes[0]


def holding(sim):
    return {mid for b in sim.buffers for mid in b.entries}


class TestTtlSweep:
    def test_boundary_exclusive(self):
        sim = far_apart(2, TrafficConfig(interval_range=(10.0, 10.0),
                                         size_range=(MB, MB), ttl=100.0,
                                         window=(0.0, 15.0)))
        sim._create_traffic(10.0)
        assert holding(sim) == {0}
        sim._expire_messages(110.0)                # age == ttl is retained
        assert holding(sim) == {0}
        assert sim.collector.ttl_dropped == 0
        sim._expire_messages(111.0)
        assert holding(sim) == set()
        assert sim.msg_status[0] == "ttl"
        assert sim.collector.ttl_dropped == 1

    def test_mixed_buffer_filter_oracle(self):
        sim = far_apart(4, TrafficConfig(interval_range=(1.0, 100.0),
                                         size_range=(MB, MB), ttl=1000.0,
                                         window=(0.0, 3000.0)))
        sim._create_traffic(3000.0)
        created = {mid: m.created_at for mid, m in sim.messages.items()}
        assert len(created) > 30
        now = 2500.0
        sim._expire_messages(now)
        expected = {mid for mid, c in created.items() if c + 1000.0 >= now}
        assert holding(sim) == expected
        assert sim.collector.ttl_dropped == len(created) - len(expected)
        assert all((sim.msg_status[mid] == "ttl") == (mid not in expected)
                   for mid in created)


class TestSummaryExchange:
    def test_disjoint_buffers(self):
        sim = far_apart(2)
        buffer_admit(sim.buffers[0], msg(1), 10)
        buffer_admit(sim.buffers[1], msg(2), 10)
        view_b, view_a = sim.summaries[1], sim.summaries[0]
        assert view_b.node_id == 1 and view_a.node_id == 0
        assert 2 in view_b.has and 1 not in view_b.has
        assert 1 in view_a.has and 2 not in view_a.has

    def test_identical_buffers_empty_wantlists(self):
        sim = far_apart(2)
        for b in sim.buffers:
            buffer_admit(b, msg(1), 10)
        peer = sim.summaries[1]
        assert EPIDEMIC.select_transfers(sim.buffers[0], peer) == []

    def test_delivered_ids_count_as_has(self):
        sim = far_apart(2)
        buffer_admit(sim.buffers[0], msg(3, dst=1), 10)
        peer = sim.summaries[1]
        assert len(EPIDEMIC.select_transfers(sim.buffers[0], peer)) == 1
        sim.delivered[1].add(3)
        assert EPIDEMIC.select_transfers(sim.buffers[0], peer) == []


class TestEpidemicSelect:
    def test_destination_bound_first(self):
        b = Buffer()
        m1 = msg(1, dst=99, created=0.0)
        m2 = msg(2, dst=11, created=5.0)
        buffer_admit(b, m1, 10)
        buffer_admit(b, m2, 10)
        plans = EPIDEMIC.select_transfers(b, PeerSummary(11, frozenset(), [2]))
        assert [key[2] for key in plans] == [2, 1]
        assert plans[0][0] == 0 and plans[1][0] == 1

    def test_peer_lacking_nothing(self):
        b = Buffer()
        buffer_admit(b, msg(1), 10)
        peer = PeerSummary(5, frozenset({1}), [])
        assert EPIDEMIC.select_transfers(b, peer) == []

    def test_flooding_reoffers_evicted_copies(self):
        # epidemic keeps no per-peer history: a former custodian that lost
        # its copy to eviction is offered the message again, even by a copy
        # that records it as one
        b = Buffer()
        buffer_admit(b, msg(1, dst=99), 10, {0, 5})
        plans = EPIDEMIC.select_transfers(b, PeerSummary(5, frozenset(), []))
        assert [key[2] for key in plans] == [1]

    def test_oldest_first_within_class(self):
        b = Buffer()
        for mid, created in ((1, 30.0), (2, 10.0), (3, 20.0)):
            buffer_admit(b, msg(mid, dst=99, created=created), 10)
        plans = EPIDEMIC.select_transfers(b, PeerSummary(5, frozenset(), []))
        assert [key[2] for key in plans] == [2, 3, 1]


class TestSnwSelect:
    def test_binary_split_of_ten(self):
        assert spray_split(10) == (5, 5)

    def test_binary_split_of_three_conserves(self):
        give, keep = spray_split(3)
        assert (give, keep) == (1, 2)
        assert give + keep == 3

    def test_single_token_not_offered(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=99), tokens=1)
        assert SNW.select_transfers(b, PeerSummary(5, frozenset(), [])) == []

    def test_single_token_direct_delivery_allowed(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=5), tokens=1)
        plans = SNW.select_transfers(b, PeerSummary(5, frozenset(), [1]))
        assert [key[2] for key in plans] == [1] and plans[0][0] == 0

    def test_seen_peer_not_sprayed(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=99), tokens=8, custodians={0, 5})
        assert SNW.select_transfers(b, PeerSummary(5, frozenset(), [])) == []
        plans = SNW.select_transfers(b, PeerSummary(6, frozenset(), []))
        assert len(plans) == 1


def lookup_first_spray_rule(entry, peer):
    """The spray rule with the peer view's lookup first, as it was written
    before the rule put its cheap tests first."""
    m = entry.message
    if m.msg_id in peer.has:
        return False
    if m.destination == peer.node_id:
        return True
    return entry.tokens >= 2 and peer.node_id not in entry.custodians


def test_spray_rule_order_keeps_the_lookup_first_answers():
    # every combination of destination, tokens, custody and where the peer
    # holds the id, through both entry points of both spray routers, on
    # one-entry buffers
    peer_id = 5
    for router, to_peer, tokens, custodian, held in itertools.product(
            ("snw", "hrson"), (True, False), (1, 2, 3), (True, False),
            ("buffer", "delivered", None)):
        case = (router, to_peer, tokens, custodian, held)
        m = msg(1, dst=peer_id if to_peer else 99)
        local = Buffer()
        buffer_admit(local, m, tokens, {0, peer_id} if custodian else {0})
        peer_buffer, delivered = Buffer(), set()
        if held == "buffer":
            buffer_admit(peer_buffer, msg(1, dst=m.destination), 1)
        elif held == "delivered":
            delivered.add(1)
        peer = PeerSummary(peer_id, HasView(peer_buffer, delivered),
                           [1] if to_peer else [])
        policy = make_policy(router)
        entry = local.get(1)
        want = lookup_first_spray_rule(entry, peer)
        assert policy.eligible(entry, peer) is want, case
        plans = policy.select_transfers(local, peer)
        assert [(key[2], key[0] == 0) for key in plans] == (
            [(1, to_peer)] if want else []), case
    # seeded random multi-entry buffers: the plans drawn from the indexes
    # are the rule asked about every copy, in sort order
    for router, seed in itertools.product(("snw", "hrson"), range(150)):
        check_spray_plans_against_full_scan(make_policy(router), seed)


def check_spray_plans_against_full_scan(policy, seed):
    """One random buffer and peer: mixed destinations, 1-4 tokens (some
    changed after admission), custodians, evictions and removals, and ids
    held in the peer's buffer or delivered set. Created times repeat, so
    ties fall to the message id."""
    rng = random.Random(seed)
    peer_id = 5
    local = Buffer(rng.randint(4, 12) * MB)
    peer_buffer, delivered, addressed = Buffer(), set(), []
    for mid in range(rng.randint(1, 24)):
        m = msg(mid, dst=rng.choice((peer_id, peer_id, 7, 99)),
                size=rng.choice((MB // 2, MB, 2 * MB)),
                created=float(rng.randint(0, 5)))
        custodians = {0, peer_id} if rng.random() < 0.3 else {0}
        buffer_admit(local, m, rng.randint(1, 4), custodians)
        held = rng.random()
        if held < 0.2:
            buffer_admit(peer_buffer, msg(mid, dst=m.destination), 1)
        elif held < 0.35:
            delivered.add(mid)
        # as on a plane, a delivery takes the id off the peer's list
        if m.destination == peer_id and mid not in delivered:
            addressed.append(mid)
    for entry in list(local.entries.values()):
        if rng.random() < 0.3:
            local.set_tokens(entry, rng.randint(1, 4))
        if rng.random() < 0.1:
            local.remove(entry.message.msg_id)
    listed = [id(e) for e in local.sprayable]
    assert sorted(listed) == sorted(
        id(e) for e in local.entries.values()
        if e.tokens >= SPRAY_MIN_TOKENS), seed
    peer = PeerSummary(peer_id, HasView(peer_buffer, delivered), addressed)
    going = [e for e in local.entries.values() if policy._forwards(e, peer)]
    assert going == [e for e in local.entries.values()
                     if lookup_first_spray_rule(e, peer)]
    want = sorted(send_key(e.message, peer_id) for e in going)
    assert policy.select_transfers(local, peer) == want, (policy.name, seed)


def policy_state(sim):
    """Everything a draw from the world's policy stream moves."""
    return sim.rng_policy.state, sim.rng_policy.half


class TestPolicies:
    # the AP gate is the world's, chosen by the router and drawn from the
    # world's policy stream
    def world(self, router, p_ap=0.5, ap_gate=None):
        config = ScenarioConfig(radio=RadioConfig(p_ap=p_ap),
                                routing=RoutingConfig(router=router))
        sim = Simulation(config, seed=3, ap_gate=ap_gate,
                         static_positions=[(0.0, 0.0), (100.0, 0.0)])
        sim.model.home[1] = False
        return sim

    def test_epidemic_ap_gate_is_coin(self):
        sim = self.world("epidemic", p_ap=1.0)
        state = policy_state(sim)
        assert sim._ap_allowed(1)
        assert policy_state(sim) != state
        assert not self.world("epidemic", p_ap=0.0)._ap_allowed(0)

    def test_hrson_ap_gate_is_home(self):
        sim = self.world("hrson", p_ap=0.0)
        state = policy_state(sim)
        assert sim._ap_allowed(0)
        assert not self.world("hrson", p_ap=1.0)._ap_allowed(1)
        assert policy_state(sim) == state   # no coin drawn

    def test_fixed_ap_gate_draws_nothing(self):
        for router in ("epidemic", "hrson"):
            sim = self.world(router, p_ap=1.0, ap_gate={0: False, 1: True})
            state = policy_state(sim)
            assert not sim._ap_allowed(0) and sim._ap_allowed(1)
            assert policy_state(sim) == state

    def test_names_normalize(self):
        assert router_name("Epidemic") == "epidemic"
        assert router_name("SprayAndWait") == "snw"
        assert router_name("spray_and_wait") == "snw"
        assert router_name("Spray-And-Wait") == "snw"
        assert router_name(" HRSON ") == "hrson"
        # hrson forwards as snw does; the world reads its gate off the name
        assert make_policy("HRSON").name == "snw"
        for name in ("prophet", ""):
            with pytest.raises(RoutingError):
                router_name(name)
            with pytest.raises(RoutingError):
                make_policy(name)

    def test_snw_under_the_home_gate_reports_as_hrson(self):
        # hrson is snw forwarding under the world's home gate: an snw world
        # with the gate set gives hrson's report, and without it another
        def report(router, home_gate=None):
            sim = Simulation(load_scenario("desk", router=router,
                                           duration=4 * 3600.0), seed=2)
            if home_gate is not None:
                sim.home_gate = home_gate
            return sim.run()

        hrson = report("hrson")
        assert report("snw", home_gate=True) == hrson
        assert report("snw") != hrson
        assert report("hrson", home_gate=False) == report("snw")
        assert hrson.delivered > 0
