import numpy as np
import pytest

from opposim.routing import (
    Buffer, PeerSummary, RoutingError, buffer_admit, deliver,
    epidemic_select, make_policy, snw_select, spray_split, summary_exchange,
    ttl_sweep,
)
from opposim.traffic import Message

MB = 1_000_000


def msg(mid, src=0, dst=1, size=MB, created=0.0, ttl=86400.0, copies=10):
    return Message(mid, src, dst, size, created, ttl, copies)


def fill(buffer, messages, now=0.0, tokens=10):
    for m in messages:
        ok, _ = buffer_admit(buffer, m, tokens, now)
        assert ok
        m.custodians.add(99)  # placeholder holder id, overwritten by tests


class TestBufferAdmit:
    def test_trivial_fit_no_eviction(self):
        b = Buffer(100 * MB)
        ok, evicted = buffer_admit(b, msg(1), 10, now=0.0)
        assert ok and evicted == []
        assert b.used == MB

    def test_fifo_eviction_makes_room(self):
        b = Buffer(100 * MB)
        for i in range(100):  # exactly full: 100 x 1 MB
            ok, _ = buffer_admit(b, msg(i, size=MB), 10, now=float(i))
            assert ok
        assert b.used == 100 * MB
        big = msg(500, size=int(1.5 * MB))
        ok, evicted = buffer_admit(b, big, 10, now=200.0)
        assert ok
        # Oldest-received entries go first, just enough to fit 1.5 MB.
        assert [e.message.msg_id for e in evicted] == [0, 1]
        assert b.used == 98 * MB + int(1.5 * MB)

    def test_oversized_message_rejected(self):
        b = Buffer(100 * MB)
        ok, evicted = buffer_admit(b, msg(1, size=101 * MB), 10, now=0.0)
        assert not ok and evicted == []
        assert b.used == 0

    def test_pinned_entries_survive_eviction(self):
        b = Buffer(2 * MB)
        buffer_admit(b, msg(1), 10, now=0.0)
        buffer_admit(b, msg(2), 10, now=1.0)
        b.get(1).pinned = True
        ok, evicted = buffer_admit(b, msg(3), 10, now=2.0)
        assert ok
        assert [e.message.msg_id for e in evicted] == [2]
        assert 1 in b

    def test_refused_admit_keeps_fifo_order(self):
        b = Buffer(300)
        for i in range(3):
            ok, _ = buffer_admit(b, msg(i, size=100), 10, now=float(i))
            assert ok
        b.get(2).pinned = True
        version = b.version
        # evicting 0 and 1 still leaves no room next to the pinned copy
        ok, evicted = buffer_admit(b, msg(10, size=250), 10, now=3.0)
        assert not ok and evicted == []
        assert b.ids() == [0, 1, 2]
        assert b.used == 300 and b.version == version
        b.get(2).pinned = False
        ok, evicted = buffer_admit(b, msg(11, size=100), 10, now=4.0)
        assert ok
        assert [e.message.msg_id for e in evicted] == [0]
        assert b.ids() == [1, 2, 11]

    def test_duplicate_id_rejected(self):
        b = Buffer(100 * MB)
        buffer_admit(b, msg(1), 10, now=0.0)
        with pytest.raises(RoutingError):
            buffer_admit(b, msg(1), 10, now=1.0)


class TestTtlSweep:
    def test_boundary_exclusive(self):
        b = Buffer()
        buffer_admit(b, msg(1, created=0.0, ttl=86400.0), 10, now=0.0)
        assert ttl_sweep(b, 86400.0) == []         # age == ttl is retained
        expired = ttl_sweep(b, 86401.0)
        assert [e.message.msg_id for e in expired] == [1]
        assert 1 not in b

    def test_mixed_buffer_filter_oracle(self):
        b = Buffer()
        rng = np.random.default_rng(3)
        ages = rng.uniform(0, 2 * 86400, size=30)
        for i, age in enumerate(ages):
            buffer_admit(b, msg(i, created=-float(age), ttl=86400.0), 10, now=0.0)
        expected = sorted(i for i, age in enumerate(ages) if age > 86400.0)
        removed = sorted(e.message.msg_id for e in ttl_sweep(b, 0.0))
        assert removed == expected
        assert sorted(b.entries) == sorted(set(range(30)) - set(expected))


class TestSummaryExchange:
    def test_disjoint_buffers(self):
        ba, bb = Buffer(), Buffer()
        buffer_admit(ba, msg(1), 10, 0.0)
        buffer_admit(bb, msg(2), 10, 0.0)
        view_b, view_a = summary_exchange(10, ba, set(), 11, bb, set())
        assert view_b.has == {2} and view_a.has == {1}
        assert view_b.node_id == 11 and view_a.node_id == 10

    def test_identical_buffers_empty_wantlists(self):
        ba, bb = Buffer(), Buffer()
        for b in (ba, bb):
            buffer_admit(b, msg(1), 10, 0.0)
        view_b, _ = summary_exchange(0, ba, set(), 1, bb, set())
        assert epidemic_select(ba, view_b) == []

    def test_delivered_ids_count_as_has(self):
        ba, bb = Buffer(), Buffer()
        buffer_admit(ba, msg(3, dst=11), 10, 0.0)
        view_b, _ = summary_exchange(10, ba, set(), 11, bb, {3})
        assert epidemic_select(ba, view_b) == []


class TestEpidemicSelect:
    def test_destination_bound_first(self):
        b = Buffer()
        m1 = msg(1, dst=99, created=0.0)
        m2 = msg(2, dst=11, created=5.0)
        buffer_admit(b, m1, 10, 0.0)
        buffer_admit(b, m2, 10, 5.0)
        plans = epidemic_select(b, PeerSummary(11, frozenset()))
        assert [p.msg_id for p in plans] == [2, 1]
        assert plans[0].direct and not plans[1].direct

    def test_peer_lacking_nothing(self):
        b = Buffer()
        buffer_admit(b, msg(1), 10, 0.0)
        assert epidemic_select(b, PeerSummary(5, frozenset({1}))) == []

    def test_flooding_reoffers_evicted_copies(self):
        # epidemic keeps no per-peer history: a former custodian that lost
        # its copy to eviction is offered the message again
        b = Buffer()
        m1 = msg(1, dst=99)
        m1.custodians.update({0, 5})
        buffer_admit(b, m1, 10, 0.0)
        plans = epidemic_select(b, PeerSummary(5, frozenset()))
        assert [p.msg_id for p in plans] == [1]

    def test_oldest_first_within_class(self):
        b = Buffer()
        for mid, created in ((1, 30.0), (2, 10.0), (3, 20.0)):
            buffer_admit(b, msg(mid, dst=99, created=created), 10, created)
        plans = epidemic_select(b, PeerSummary(5, frozenset()))
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
        buffer_admit(b, msg(1, dst=99), tokens=1, now=0.0)
        assert snw_select(b, PeerSummary(5, frozenset())) == []

    def test_single_token_direct_delivery_allowed(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=5), tokens=1, now=0.0)
        plans = snw_select(b, PeerSummary(5, frozenset()))
        assert [p.msg_id for p in plans] == [1] and plans[0].direct

    def test_seen_peer_not_sprayed(self):
        b = Buffer()
        m = msg(1, dst=99)
        m.custodians.update({0, 5})
        buffer_admit(b, m, tokens=8, now=0.0)
        assert snw_select(b, PeerSummary(5, frozenset())) == []
        assert len(snw_select(b, PeerSummary(6, frozenset()))) == 1


class TestPolicies:
    def test_epidemic_ap_gate_is_coin(self):
        pol = make_policy("epidemic", p_ap=1.0)
        assert pol.may_become_ap(False, np.random.default_rng(0))
        pol0 = make_policy("epidemic", p_ap=0.0)
        assert not pol0.may_become_ap(True, np.random.default_rng(0))

    def test_hrson_ap_gate_is_home(self):
        pol = make_policy("hrson")
        rng = np.random.default_rng(0)
        assert pol.may_become_ap(True, rng)
        assert not pol.may_become_ap(False, rng)

    def test_names_normalize(self):
        assert make_policy("Epidemic").name == "epidemic"
        assert make_policy("SprayAndWait").name == "snw"
        assert make_policy("HRSON").name == "hrson"
        with pytest.raises(RoutingError):
            make_policy("prophet")

    def test_hrson_forwards_like_snw(self):
        b = Buffer()
        buffer_admit(b, msg(1, dst=99), tokens=4, now=0.0)
        peer = PeerSummary(5, frozenset())
        assert (make_policy("hrson").select_transfers(b, peer)
                == make_policy("snw").select_transfers(b, peer))


class TestDeliver:
    def test_latency_is_subtraction(self):
        rec = deliver(msg(1, dst=7, created=100.0), at_node=7, now=250.0)
        assert rec.latency == 150.0

    def test_wrong_node_rejected(self):
        with pytest.raises(RoutingError):
            deliver(msg(1, dst=7), at_node=8, now=10.0)
