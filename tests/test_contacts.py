import numpy as np
import pytest

from opposim.contacts import Contact, run_contact_trace
from opposim.routing import make_policy
from opposim.traffic import Message

from oracle_temporal import earliest_delivery

MB = 1_000_000


def msg(mid, src, dst, size=MB, created=0.0, copies=10):
    return Message(mid, src, dst, size, created, ttl=10 ** 9,
                   copy_limit=copies)


class TestEpidemicOnTraces:
    def test_two_hop_relay_chain(self):
        # A meets B, then B meets C: the message rides the chain.
        contacts = [Contact(10.0, 20.0, 0, 1), Contact(30.0, 40.0, 1, 2)]
        res = run_contact_trace(3, contacts, [msg(0, 0, 2)],
                                make_policy("epidemic"))
        assert res.delivered_ids() == {0}
        assert res.delivered_at[0] == pytest.approx(30.0 + MB / 5e6)

    def test_contact_order_blocks_reverse_chain(self):
        # B meets C before A meets B: no time-respecting path.
        contacts = [Contact(30.0, 40.0, 1, 2), Contact(50.0, 60.0, 0, 1)]
        res = run_contact_trace(3, contacts, [msg(0, 0, 2)],
                                make_policy("epidemic"))
        assert res.delivered_ids() == set()

    def test_too_short_contact_carries_nothing(self):
        # 1 MB at 5 MB/s needs 0.2 s; a 0.1 s window is useless.
        contacts = [Contact(10.0, 10.1, 0, 1)]
        res = run_contact_trace(2, contacts, [msg(0, 0, 1)],
                                make_policy("epidemic"))
        assert res.delivered_ids() == set()

    def test_message_created_mid_contact(self):
        contacts = [Contact(0.0, 100.0, 0, 1)]
        res = run_contact_trace(2, contacts, [msg(0, 0, 1, created=50.0)],
                                make_policy("epidemic"))
        assert res.delivered_at[0] == pytest.approx(50.2)


class TestSprayOnTraces:
    def test_tokens_halve_along_the_tree(self):
        # one long contact fan-out: source meets three nodes in sequence
        contacts = [Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 0, 2),
                    Contact(40.0, 50.0, 0, 3)]
        pol = make_policy("snw")
        res = run_contact_trace(4, contacts, [msg(0, 0, 9, copies=4)], pol)
        # L=4: spray to node1 (gets 2, keeps 2), spray to node2 (gets 1,
        # keeps 1); node3 is never sprayed because the budget hit 1.
        moved = {(s, d) for _, s, d, _ in res.transfers}
        assert (0, 1) in moved and (0, 2) in moved
        assert (0, 3) not in moved

    def test_wait_phase_delivers_to_destination_only(self):
        contacts = [Contact(0.0, 10.0, 0, 1),     # spray: 1 gets floor(2/2)=1
                    Contact(20.0, 30.0, 1, 2),    # 1 has a single token: waits
                    Contact(40.0, 50.0, 1, 3)]    # 3 is the destination
        pol = make_policy("snw")
        res = run_contact_trace(4, contacts, [msg(0, 0, 3, copies=2)], pol)
        moved = {(s, d) for _, s, d, _ in res.transfers}
        assert (1, 2) not in moved
        assert res.delivered_ids() == {0}


class TestPurity:
    @pytest.mark.parametrize("router", ["snw", "epidemic"])
    def test_a_trace_leaves_its_messages_as_they_were(self, router):
        # demo 04's custody chain, run twice on the same Message objects:
        # a trace writes nothing into its inputs, so the second run gives
        # the first one's result
        contacts = [Contact(0, 30, 0, 1), Contact(60, 90, 0, 2),
                    Contact(120, 150, 1, 3), Contact(180, 210, 3, 4)]
        messages = [msg(0, 0, 4, copies=8), msg(1, 2, 0, copies=8)]
        first = run_contact_trace(5, contacts, messages, make_policy(router))
        assert messages == [msg(0, 0, 4, copies=8), msg(1, 2, 0, copies=8)]
        second = run_contact_trace(5, contacts, messages, make_policy(router))
        assert len(first.transfers) >= 4 and 0 in first.delivered_at
        assert second == first


class TestOracleEquivalence:
    """Randomized schedules: flooding delivers exactly the messages with a
    feasible time-respecting contact chain."""

    def random_instance(self, rng, multi_message: bool):
        n = int(rng.integers(3, 11))
        n_contacts = int(rng.integers(3, 21))
        if multi_message:
            n_msgs = int(rng.integers(2, 6))
            size = int(rng.integers(100_000, 1_500_000))
            # capacity generous enough that serialization never pushes a
            # feasible transfer past a contact end
            min_len = 2.0 * n_msgs * size / 5e6
        else:
            n_msgs = 1
            size = int(rng.integers(100_000, 1_500_000))
            min_len = 0.0
        contacts = []
        for _ in range(n_contacts):
            a, b = rng.choice(n, size=2, replace=False)
            start = float(rng.uniform(0, 800))
            if multi_message:
                length = min_len + float(rng.uniform(0, 100))
            else:
                # sometimes too short on purpose
                length = float(rng.uniform(0.01, 0.6))
            contacts.append(Contact(start, start + length, int(a), int(b)))
        messages = []
        for mid in range(n_msgs):
            src, dst = rng.choice(n, size=2, replace=False)
            messages.append(msg(mid, int(src), int(dst), size=size,
                                created=float(rng.uniform(0, 400))))
        return n, contacts, messages

    @pytest.mark.parametrize("multi_message", [False, True])
    def test_matches_reachability_oracle(self, multi_message):
        rng = np.random.default_rng(1234 if multi_message else 4321)
        pol = make_policy("epidemic")
        instances = 60
        for k in range(instances):
            n, contacts, messages = self.random_instance(rng, multi_message)
            res = run_contact_trace(n, contacts, messages, pol)
            expect = set()
            for m in messages:
                t = earliest_delivery(n, contacts, m.source, m.destination,
                                      m.created_at, m.size)
                if t is not None:
                    expect.add(m.msg_id)
            assert res.delivered_ids() == expect, \
                f"instance {k}: sim={res.delivered_ids()} oracle={expect}"

    def test_single_message_times_match_oracle(self):
        rng = np.random.default_rng(77)
        pol = make_policy("epidemic")
        for k in range(40):
            n, contacts, messages = self.random_instance(rng, False)
            res = run_contact_trace(n, contacts, messages, pol)
            m = messages[0]
            t = earliest_delivery(n, contacts, m.source, m.destination,
                                  m.created_at, m.size)
            if t is None:
                assert res.delivered_ids() == set()
            else:
                assert res.delivered_at[m.msg_id] == pytest.approx(t)


class TestEngineRulesOnTraces:
    """The trace runs on the engine: its TTL, re-offer and per-contact
    fit rules hold on a schedule too."""

    def test_expired_message_is_not_delivered(self):
        # node 1 holds the copy from 0.2 s; it expires at 50 s, before the
        # contact to the destination opens at 60 s
        contacts = [Contact(0.0, 10.0, 0, 1), Contact(60.0, 100.0, 1, 2)]
        m = Message(0, 0, 2, MB, 0.0, ttl=50.0, copy_limit=10)
        res = run_contact_trace(3, contacts, [m], make_policy("epidemic"))
        assert res.delivered_ids() == set()

    def test_copy_is_offered_again_on_other_open_contacts(self):
        # contact 0-2 opens while the copy is in flight to node 1; once
        # that send ends, the copy goes out on 0-2
        contacts = [Contact(0.0, 0.1, 0, 1), Contact(0.05, 10.0, 0, 2)]
        messages = [msg(0, 0, 2, size=400_000)]
        res = run_contact_trace(3, contacts, messages,
                                make_policy("epidemic"))
        expect = {m.msg_id for m in messages
                  if earliest_delivery(3, contacts, m.source, m.destination,
                                       m.created_at, m.size) is not None}
        assert expect == {0}
        assert res.delivered_ids() == expect

    def test_copy_too_long_for_a_contact_waits_for_the_next(self):
        # 1 MB needs 0.2 s, more than contact 0-1 lasts. Were the copy sent
        # on it anyway, it would stay pinned until 0.1 s, and 0-2 would then
        # be too short; skipped, it goes out on 0-2 at 0.05 s
        contacts = [Contact(0.0, 0.1, 0, 1), Contact(0.05, 0.28, 0, 2)]
        res = run_contact_trace(3, contacts, [msg(0, 0, 2)],
                                make_policy("epidemic"))
        t = earliest_delivery(3, contacts, 0, 2, 0.0, MB)
        assert t == pytest.approx(0.25)
        assert res.delivered_at[0] == pytest.approx(t)

    def test_copy_finishing_after_its_ttl_is_not_handed_over(self):
        # the 1 MB send ends at 0.2 s, after the 0.1 s TTL: it is aborted
        m = Message(0, 0, 1, MB, 0.0, ttl=0.1, copy_limit=10)
        res = run_contact_trace(2, [Contact(0.0, 10.0, 0, 1)], [m],
                                make_policy("epidemic"))
        assert res.delivered_ids() == set()
        assert (res.completed, res.aborted) == (0, 1)

    def test_expiry_in_mid_send_serves_the_next_copy(self):
        # the 10 MB send outlives its 0.5 s TTL and is aborted when expiry
        # next runs, as contact 2-3 opens at 1.0 s; the 1 MB copy queued
        # behind it goes out at once
        contacts = [Contact(0.0, 10.0, 0, 1), Contact(1.0, 2.0, 2, 3)]
        messages = [Message(0, 0, 1, 10 * MB, 0.0, ttl=0.5, copy_limit=10),
                    msg(1, 0, 1)]
        res = run_contact_trace(4, contacts, messages,
                                make_policy("epidemic"))
        assert res.delivered_at == pytest.approx({1: 1.2})
