import pytest

from opposim.engine import Simulation
from opposim.radio import (
    LinkModel, Phase, RadioState, TimingParams, VisibleAp,
    ap_due_retirement, assign_channel, effective_bandwidth,
    joiner_bandwidth_estimate, net_initiate_time, net_reinitiate_time,
    should_switch_ap, step_radio,
)
from opposim.scenario import ScenarioConfig

DEFAULTS = TimingParams()
LINK = LinkModel()


class TestTimingAlgebra:
    def test_default_initiate_is_16s(self):
        assert net_initiate_time(DEFAULTS) == 16.0

    def test_zero_timings(self):
        z = TimingParams(0, 0, 0, 0)
        assert net_initiate_time(z) == 0.0
        assert net_reinitiate_time(z, True) == 0.0
        assert net_reinitiate_time(z, False) == 0.0

    def test_custom_timings(self):
        t = TimingParams(3, 1, 2, 4)
        assert net_initiate_time(t) == 12.0

    def test_reinitiate_with_ap(self):
        assert net_reinitiate_time(DEFAULTS, True) == 10.0

    def test_reinitiate_without_ap_equals_initiate(self):
        assert net_reinitiate_time(DEFAULTS, False) == 16.0

    def test_negative_timing_rejected(self):
        with pytest.raises(ValueError):
            TimingParams(t_scan=-1).validate()


def ap_state(clients=0, since=0.0):
    s = RadioState()
    s.phase = Phase.AP
    s.ap_since = since
    s.last_client_change = since
    s.clients = {i: None for i in range(clients)}
    return s


def scan_world(aps, others=()):
    """Node 0 scans from the origin. `aps` maps node id -> (position,
    client count) of access points, raised in the order given; `others`
    maps node ids to positions of nodes left idle. Every node not named
    sits far out of range."""
    n = 1 + max([*aps, *others])
    positions = [(1000.0 + 100.0 * i, 1000.0) for i in range(n)]
    positions[0] = (0.0, 0.0)
    for nid, (pos, _) in aps.items():
        positions[nid] = pos
    for nid, pos in dict(others).items():
        positions[nid] = pos
    sim = Simulation(ScenarioConfig(), seed=0, static_positions=positions)
    for nid, (_, clients) in aps.items():
        sim.radio[nid].phase = Phase.AP
        sim._ap_created(nid, 0.0)
        sim.radio[nid].clients = {1000 + i: None for i in range(clients)}
    return sim


class TestScan:
    def test_boundary_inside_range(self):
        sim = scan_world({7: ((19.9, 0.0), 0)})
        assert [v.node_id for v in sim._visible_aps(0)] == [7]

    def test_boundary_outside_range(self):
        sim = scan_world({7: ((20.1, 0.0), 0)})
        assert sim._visible_aps(0) == []

    def test_no_aps_in_range(self):
        # only nodes in the AP phase are visible
        sim = scan_world({2: ((2.0, 0.0), 0)}, others={3: (1.0, 1.0)})
        assert [v.node_id for v in sim._visible_aps(0)] == [2]
        sim.radio[3].phase = Phase.CLIENT
        assert [v.node_id for v in sim._visible_aps(0)] == [2]
        idle_only = scan_world({}, others={3: (1.0, 1.0)})
        assert idle_only._visible_aps(0) == []

    def test_fastest_first_and_tie_break(self):
        sim = scan_world({9: ((5.0, 0.0), 3), 4: ((6.0, 0.0), 0),
                          2: ((7.0, 0.0), 0)})
        vis = sim._visible_aps(0)
        assert [v.node_id for v in vis] == [2, 4, 9]
        state = RadioState()
        state.phase = Phase.SCANNING
        step_radio(state, True, vis, now=5.0, timing=DEFAULTS)
        assert state.connect_target == 2


class TestStepRadio:
    def test_becomes_ap_when_policy_permits(self):
        s = RadioState()
        s.phase = Phase.SCANNING
        step_radio(s, True, [], now=5.0, timing=DEFAULTS)
        assert s.phase is Phase.BECOMING_AP
        assert s.timer_expiry == 6.0   # become-AP time of 1 s
        step_radio(s, True, [], now=6.0, timing=DEFAULTS)
        assert s.phase is Phase.AP

    def test_connects_when_ap_visible(self):
        s = RadioState()
        s.phase = Phase.SCANNING
        step_radio(s, True, [VisibleAp(3, 5e6)], now=5.0, timing=DEFAULTS)
        assert s.phase is Phase.CONNECTING
        assert s.connect_target == 3
        assert s.timer_expiry == 10.0  # become-client time of 5 s

    def test_rests_when_policy_denies(self):
        s = RadioState()
        s.phase = Phase.SCANNING
        step_radio(s, False, [], now=5.0, timing=DEFAULTS)
        assert s.phase is Phase.RESTING
        assert s.timer_expiry == 6.0   # 1 s rest, then rescan
        step_radio(s, False, [], now=6.0, timing=DEFAULTS)
        assert s.phase is Phase.SCANNING
        assert s.timer_expiry == 11.0

    def test_become_ap_defers_to_new_ap(self):
        # Two co-located nodes finishing become-AP together: the second one
        # sees the first and connects instead of doubling up.
        s = RadioState()
        s.phase = Phase.BECOMING_AP
        step_radio(s, True, [VisibleAp(1, 5e6)], now=6.0, timing=DEFAULTS)
        assert s.phase is Phase.CONNECTING
        assert s.connect_target == 1


class TestChannels:
    def test_no_neighbors_takes_channel_one(self):
        assert assign_channel([], 5) == 1

    def test_least_loaded(self):
        assert assign_channel([1, 1, 2, 3, 4, 5], 5) == 2

    def test_all_loaded_reuse_starts_at_one(self):
        assert assign_channel([1, 2, 3, 4, 5], 5) == 1


class TestBandwidth:
    def test_sole_ap_single_transfer(self):
        assert effective_bandwidth(LINK, 1, 1) == 5_000_000.0

    def test_equal_share_two_transfers(self):
        assert effective_bandwidth(LINK, 1, 2) == 2_500_000.0

    def test_co_channel_halving(self):
        assert effective_bandwidth(LINK, 2, 1) == 2_500_000.0

    def test_never_exceeds_base_speed(self):
        for co in range(1, 6):
            for tr in range(1, 6):
                assert effective_bandwidth(LINK, co, tr) <= LINK.base_speed

    def test_joiner_estimate_counts_itself(self):
        assert joiner_bandwidth_estimate(LINK, 1, 0) == 5_000_000.0
        assert joiner_bandwidth_estimate(LINK, 1, 1) == 2_500_000.0


class TestApRetirement:
    def test_idle_timeout(self):
        s = ap_state(clients=0, since=100.0)
        assert not ap_due_retirement(s, 159.0)
        assert ap_due_retirement(s, 160.0)

    def test_client_keeps_ap_alive(self):
        s = ap_state(clients=1, since=100.0)
        assert not ap_due_retirement(s, 159.0)

    def test_tenure_limit_with_clients(self):
        s = ap_state(clients=2, since=0.0)
        assert not ap_due_retirement(s, 599.0)
        assert ap_due_retirement(s, 600.0)

    # the engine pushes an apcheck for `ap_since + max_duration` (or
    # `last_client_change + idle_timeout`) and handles it at that float or
    # a later tick; the difference back can round below the term, as
    # 1217.1 - 617.1 == 599.9999999999999 does
    def test_term_ends_at_its_apcheck_off_the_tick_grid(self):
        s = ap_state(clients=1, since=617.1)
        assert ap_due_retirement(s, 617.1 + 600.0)
        assert not ap_due_retirement(s, 1217.0)

    def test_idle_deadline_ends_at_its_apcheck_off_the_tick_grid(self):
        s = ap_state(clients=0, since=5.1)
        assert ap_due_retirement(s, 5.1 + 60.0)
        assert not ap_due_retirement(s, 65.0)


class TestSwitchRule:
    def test_requires_ratio(self):
        assert not should_switch_ap(4e6, 4.9e6)
        assert should_switch_ap(4e6, 5e6)
