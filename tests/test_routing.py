import pytest

from opposim.engine import RadioConfig, RoutingConfig, ScenarioConfig, Simulation
from opposim.routing import (
    Buffer, PeerSummary, RoutingError, buffer_admit, make_policy, spray_split,
)
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
        assert 1 in b

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
        assert b.ids() == [0, 1, 2]
        assert b.used == 300 and b.version == version
        b.get(2).pinned = False
        ok, evicted = buffer_admit(b, msg(11, size=100), 10)
        assert ok
        assert [e.message.msg_id for e in evicted] == [0]
        assert b.ids() == [1, 2, 11]

    def test_duplicate_id_rejected(self):
        b = Buffer(100 * MB)
        buffer_admit(b, msg(1), 10)
        with pytest.raises(RoutingError):
            buffer_admit(b, msg(1), 10)


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
        view_b, view_a = sim._summary_of(1), sim._summary_of(0)
        assert view_b.node_id == 1 and view_a.node_id == 0
        assert 2 in view_b.has and 1 not in view_b.has
        assert 1 in view_a.has and 2 not in view_a.has

    def test_identical_buffers_empty_wantlists(self):
        sim = far_apart(2)
        for b in sim.buffers:
            buffer_admit(b, msg(1), 10)
        peer = sim._summary_of(1)
        assert EPIDEMIC.select_transfers(sim.buffers[0], peer) == []

    def test_delivered_ids_count_as_has(self):
        sim = far_apart(2)
        buffer_admit(sim.buffers[0], msg(3, dst=1), 10)
        peer = sim._summary_of(1)
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
        plans = EPIDEMIC.select_transfers(b, PeerSummary(11, frozenset()))
        assert [p.msg_id for p in plans] == [2, 1]
        assert plans[0].direct and not plans[1].direct

    def test_peer_lacking_nothing(self):
        b = Buffer()
        buffer_admit(b, msg(1), 10)
        peer = PeerSummary(5, frozenset({1}))
        assert EPIDEMIC.select_transfers(b, peer) == []

    def test_flooding_reoffers_evicted_copies(self):
        # epidemic keeps no per-peer history: a former custodian that lost
        # its copy to eviction is offered the message again
        b = Buffer()
        m1 = msg(1, dst=99)
        m1.custodians.update({0, 5})
        buffer_admit(b, m1, 10)
        plans = EPIDEMIC.select_transfers(b, PeerSummary(5, frozenset()))
        assert [p.msg_id for p in plans] == [1]

    def test_oldest_first_within_class(self):
        b = Buffer()
        for mid, created in ((1, 30.0), (2, 10.0), (3, 20.0)):
            buffer_admit(b, msg(mid, dst=99, created=created), 10)
        plans = EPIDEMIC.select_transfers(b, PeerSummary(5, frozenset()))
        assert [p.msg_id for p in plans] == [2, 3, 1]


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
        assert SNW.select_transfers(b, PeerSummary(5, frozenset())) == []

    def test_single_token_direct_delivery_allowed(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=5), tokens=1)
        plans = SNW.select_transfers(b, PeerSummary(5, frozenset()))
        assert [p.msg_id for p in plans] == [1] and plans[0].direct

    def test_seen_peer_not_sprayed(self):
        b = Buffer()
        m = msg(1, dst=99)
        m.custodians.update({0, 5})
        buffer_admit(b, m, tokens=8)
        assert SNW.select_transfers(b, PeerSummary(5, frozenset())) == []
        assert len(SNW.select_transfers(b, PeerSummary(6, frozenset()))) == 1


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
        state = sim.rng_policy.bit_generator.state
        assert sim._ap_allowed(1)
        assert sim.rng_policy.bit_generator.state != state
        assert not self.world("epidemic", p_ap=0.0)._ap_allowed(0)

    def test_hrson_ap_gate_is_home(self):
        sim = self.world("hrson", p_ap=0.0)
        state = sim.rng_policy.bit_generator.state
        assert sim._ap_allowed(0)
        assert not self.world("hrson", p_ap=1.0)._ap_allowed(1)
        assert sim.rng_policy.bit_generator.state == state   # no coin drawn

    def test_fixed_ap_gate_draws_nothing(self):
        for router in ("epidemic", "hrson"):
            sim = self.world(router, p_ap=1.0, ap_gate={0: False, 1: True})
            state = sim.rng_policy.bit_generator.state
            assert not sim._ap_allowed(0) and sim._ap_allowed(1)
            assert sim.rng_policy.bit_generator.state == state

    def test_names_normalize(self):
        assert make_policy("Epidemic").name == "epidemic"
        assert make_policy("SprayAndWait").name == "snw"
        assert make_policy("spray_and_wait").name == "snw"
        assert make_policy("Spray-And-Wait").name == "snw"
        assert make_policy("HRSON").name == "hrson"
        with pytest.raises(RoutingError):
            make_policy("prophet")

    def test_hrson_forwards_like_snw(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=99), tokens=4)
        peer = PeerSummary(5, frozenset())
        assert (make_policy("hrson").select_transfers(b, peer)
                == make_policy("snw").select_transfers(b, peer))
