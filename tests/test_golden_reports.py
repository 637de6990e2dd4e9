"""Golden reports: every field of MetricsReport for short seeded runs.

The values were recorded before any engine optimisation. A run is a pure
function of (config, seed), so a change that only makes the simulator
faster must leave every one of them identical, floats included. A change
that means to alter simulated behaviour re-records them and says why.
"""

import dataclasses

import pytest

from opposim.engine import Simulation, run
from opposim.scenario import RadioConfig, ScenarioConfig, load_scenario
from opposim.traffic import TrafficConfig

MB = 1_000_000

# desk preset cut to 9 simulated hours: the parked night and the 08:00
# commute wave, with traffic created throughout
DESK_DURATION = 32400.0

GOLDEN_DESK = {
    ("epidemic", 1): {
        "seed": 1, "generated": 191, "delivered": 139, "relayed": 6261,
        "aborted": 5, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 52, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.7277486910994765,
        "avg_latency": 12528.82659023091,
        "overhead_ratio": 44.0431654676259,
        # re-recorded when an AP moving out of range of busy APs began
        # to give them back their full rate
        "avg_buffer_time": 4622.494606850482},
    ("epidemic", 2): {
        "seed": 2, "generated": 189, "delivered": 89, "relayed": 4215,
        "aborted": 6, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 100, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.4708994708994709,
        "avg_latency": 10842.679849674503,
        "overhead_ratio": 46.359550561797754,
        "avg_buffer_time": 5459.728602981661},
    ("snw", 1): {
        "seed": 1, "generated": 191, "delivered": 93, "relayed": 1590,
        "aborted": 0, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 98, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.4869109947643979,
        "avg_latency": 10944.388953421223,
        "overhead_ratio": 16.096774193548388,
        "avg_buffer_time": 9194.358210953196},
    ("snw", 2): {
        "seed": 2, "generated": 189, "delivered": 64, "relayed": 1545,
        "aborted": 1, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 125, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.3386243386243386,
        "avg_latency": 8104.823061959085,
        "overhead_ratio": 23.140625,
        "avg_buffer_time": 9217.957903182865},
    ("hrson", 1): {
        "seed": 1, "generated": 191, "delivered": 90, "relayed": 1520,
        "aborted": 1, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 101, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.4712041884816754,
        "avg_latency": 11470.66993404704,
        "overhead_ratio": 15.88888888888889,
        "avg_buffer_time": 8815.68927189895},
    ("hrson", 2): {
        "seed": 2, "generated": 189, "delivered": 60, "relayed": 1476,
        "aborted": 0, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 129, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.31746031746031744,
        "avg_latency": 7840.130148252446,
        "overhead_ratio": 23.6,
        "avg_buffer_time": 9028.940428783671},
}

# scenario4 cut to 80 nodes and 10 simulated hours (the night and the
# 08:00 commute), seed 3, with a client rescan period other than the
# preset's 30 s: 7.5 s is not a whole number of 1 s ticks, and neither
# 29 s nor 30 s is an exact float multiple of a 0.3 s tick. The 0.3 s case
# was recorded again when an AP's term came to end at the apcheck pushed
# for it: before, `now - ap_since` could round below the term, and an AP
# with clients then served on until its last client left.
RESCAN_CASES = {
    ("epidemic", 7.5, 1.0): {
        "seed": 3, "generated": 412, "delivered": 31, "relayed": 1582,
        "aborted": 4, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 381, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.07524271844660194,
        "avg_latency": 12407.235317035134,
        "overhead_ratio": 50.03225806451613,
        "avg_buffer_time": 9782.776598327971},
    ("hrson", 29.0, 1.0): {
        "seed": 3, "generated": 412, "delivered": 32, "relayed": 1251,
        "aborted": 2, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 380, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.07766990291262135,
        "avg_latency": 12271.551871894033,
        "overhead_ratio": 38.09375,
        "avg_buffer_time": 10578.435137282411},
    ("hrson", 29.0, 0.3): {
        "seed": 3, "generated": 412, "delivered": 33, "relayed": 1370,
        "aborted": 3, "ttl_dropped": 0, "buffer_evicted": 0,
        "still_buffered": 379, "evicted_copies": 0, "expired_copies": 0,
        "delivery_rate": 0.08009708737864078,
        "avg_latency": 13177.94338137319,
        "overhead_ratio": 40.515151515151516,
        "avg_buffer_time": 10173.934080831552},
}

GOLDEN_SCRIPTED = {
    "seed": 1, "generated": 198, "delivered": 150, "relayed": 150,
    "aborted": 1, "ttl_dropped": 0, "buffer_evicted": 48,
    "still_buffered": 0, "evicted_copies": 48, "expired_copies": 0,
    "delivery_rate": 0.7575757575757576,
    "avg_latency": 21.557707551660286,
    "overhead_ratio": 0.0,
    "avg_buffer_time": 37.63221679595961,
}


@pytest.mark.parametrize("router,seed", sorted(GOLDEN_DESK))
def test_desk_report_matches_golden(router, seed):
    cfg = load_scenario("desk", router=router, duration=DESK_DURATION)
    report = run(cfg, seed)
    assert dataclasses.asdict(report) == GOLDEN_DESK[(router, seed)]


def rescan_config(router, client_rescan, tick):
    return load_scenario("scenario4", router=router, nodes=80,
                         duration=36000.0,
                         overrides=[f"radio.client_rescan={client_rescan}",
                                    f"engine.tick={tick}"])


@pytest.mark.parametrize("router,client_rescan,tick", sorted(RESCAN_CASES))
def test_rescan_report_matches_golden(router, client_rescan, tick):
    report = run(rescan_config(router, client_rescan, tick), 3)
    assert (dataclasses.asdict(report)
            == RESCAN_CASES[(router, client_rescan, tick)])


@pytest.mark.parametrize("router,client_rescan,tick", sorted(RESCAN_CASES))
def test_rescan_case_depends_on_the_rescan_period(router, client_rescan,
                                                  tick):
    # the case above guards the client rescan path only if its period
    # shows in the report: the preset's 30 s must give another one
    report = run(rescan_config(router, 30.0, tick), 3)
    assert (dataclasses.asdict(report)
            != RESCAN_CASES[(router, client_rescan, tick)])


# scenario4 cut to 80 nodes and 10 simulated hours, seed 3, under hrson:
# at night a phone alone at home loops scan, take the AP role, idle and
# retire. A 0.3 s tick, an AP idle timeout off that grid and a zero AP
# time move every step of that loop off the preset's whole seconds.
# Recorded again with the rescan case above, when AP terms came to end on
# time off the tick grid.
AP_CYCLE_OVERRIDES = ["engine.tick=0.3", "radio.ap_time=0"]
AP_CYCLE_CASE = {
    "seed": 3, "generated": 412, "delivered": 31, "relayed": 1337,
    "aborted": 3, "ttl_dropped": 0, "buffer_evicted": 0,
    "still_buffered": 381, "evicted_copies": 0, "expired_copies": 0,
    "delivery_rate": 0.07524271844660194,
    "avg_latency": 12361.194147196546,
    "overhead_ratio": 42.12903225806452,
    "avg_buffer_time": 10286.593728120486,
}


def ap_cycle_config(ap_idle_timeout):
    return load_scenario("scenario4", router="hrson", nodes=80,
                         duration=36000.0,
                         overrides=AP_CYCLE_OVERRIDES
                         + [f"radio.ap_idle_timeout={ap_idle_timeout}"])


def test_ap_cycle_report_matches_golden():
    report = run(ap_cycle_config(45.5), 3)
    assert dataclasses.asdict(report) == AP_CYCLE_CASE


def test_ap_cycle_case_depends_on_the_idle_timeout():
    # the case above guards the AP cycle only if its idle timeout shows in
    # the report: the preset's 60 s must give another one
    report = run(ap_cycle_config(60.0), 3)
    assert dataclasses.asdict(report) != AP_CYCLE_CASE


def test_scripted_two_node_report_matches_golden():
    # node 1 walks out of range at 201 s, aborting the transfer in flight,
    # and returns at 400 s; the traffic created meanwhile overflows the
    # 100 MB buffers
    cfg = ScenarioConfig(
        traffic=TrafficConfig(interval_range=(1.0, 4.0),
                              size_range=(2 * MB, 8 * MB), ttl=150.0,
                              window=(0.0, 500.0), copy_limit=10),
        radio=RadioConfig(stagger=False),
        duration=900.0,
    )
    sim = Simulation(cfg, seed=1, static_positions=[(0.0, 0.0), (5.0, 0.0)],
                     ap_gate={0: True, 1: False},
                     scripted_moves=[(201.0, 1, (500.0, 0.0)),
                                     (400.0, 1, (5.0, 0.0))])
    assert dataclasses.asdict(sim.run()) == GOLDEN_SCRIPTED
