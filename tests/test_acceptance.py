"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The trend experiments share one desk-scale base (the packaged `desk`
preset: 50 nodes, synthetic 500 x 500 m map, 1 simulated day, 8 seeds,
10 copies, 24 h TTL) and reuse runs across criteria where the
configurations coincide. Spray-router runs carry the in-engine token
audit (every 100 simulated seconds).
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy import stats

from opposim.batch import run_batch, sweep
from opposim.contacts import Contact, run_contact_trace
from opposim.engine import Simulation, run
from opposim.metrics import render_runs_csv
from opposim.mobility import DAY, Activity
from opposim.radio import Phase
from opposim.routing import make_policy
from opposim.scenario import ScenarioConfig, load_scenario
from opposim.traffic import Message, TrafficConfig

from oracle_temporal import earliest_delivery

SEEDS = list(range(1, 9))
WORKERS = os.cpu_count() or 2


def note(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def desk_base(router: str) -> ScenarioConfig:
    return load_scenario("desk", router=router)


def with_router(config: ScenarioConfig, router: str) -> ScenarioConfig:
    return dataclasses.replace(
        config, routing=dataclasses.replace(config.routing, router=router))


def scripted_config(duration, window, interval=(100.0, 100.0)):
    base = desk_base("epidemic")
    traffic = TrafficConfig(interval_range=interval,
                            size_range=(1_000_000, 1_000_000),
                            ttl=86400.0, window=window, copy_limit=10)
    radio = dataclasses.replace(base.radio, stagger=False)
    return dataclasses.replace(base, traffic=traffic, radio=radio,
                               duration=duration)


# ---------------------------------------------------------------------------
# Criterion 1: exact timing identities
# ---------------------------------------------------------------------------

class TestCriterion1Timing:
    def test_network_build_takes_16s_and_first_data_flows_then(self):
        t0 = time.time()
        cfg = scripted_config(duration=60.0, window=(0.0, 10.0),
                              interval=(10.0, 10.0))
        sim = Simulation(cfg, seed=1,
                         static_positions=[(0.0, 0.0), (5.0, 0.0)],
                         ap_gate={0: True, 1: False})
        timeline = []
        sim.auditors = [lambda s, t: timeline.append(
            (t, s.radio[1].phase is Phase.CLIENT))]
        sim.audit_interval = 1.0
        sim.run()
        linked_at = min(t for t, up in timeline if up)
        (delivered_at,) = sim.planes[0].collector.delivered_at.values()
        ok = abs(linked_at - 16.0) <= 1.0 and abs(delivered_at - 16.2) <= 1.0
        note("1a net_initiate=16s", ok,
             f"link up at {linked_at:.1f}s, first delivery {delivered_at:.2f}s,"
             f" wall {time.time() - t0:.2f}s")

    def test_disruption_gap_10s_with_alternate_ap(self):
        cfg = scripted_config(duration=120.0, window=(0.0, 1.0))
        sim = Simulation(
            cfg, seed=3,
            static_positions=[(0.0, 0.0), (5.0, 0.0), (22.0, 0.0)],
            ap_gate={0: True, 1: False, 2: True},
            scripted_moves=[(40.0, 0, (5000.0, 5000.0))])
        timeline = []
        sim.auditors = [lambda s, t: timeline.append(
            (t, s.radio[1].phase is Phase.CLIENT))]
        sim.audit_interval = 1.0
        sim.run()
        drop = min(t for t, up in timeline if t > 20 and not up)
        up_again = min(t for t, up in timeline if t > drop and up)
        gap = up_again - drop
        note("1b reinitiate(alternate)=10s", abs(gap - 10.0) <= 1.0,
             f"gap {gap:.1f}s")

    def test_disruption_gap_16s_without_alternate_ap(self):
        cfg = scripted_config(duration=120.0, window=(0.0, 1.0))
        sim = Simulation(
            cfg, seed=3,
            static_positions=[(0.0, 0.0), (5.0, 0.0), (8.0, 0.0)],
            ap_gate={0: True, 1: True, 2: False},
            scripted_moves=[(40.0, 0, (5000.0, 5000.0))])
        timeline = []
        sim.auditors = [lambda s, t: timeline.append(
            (t, s.radio[2].phase is Phase.CLIENT))]
        sim.audit_interval = 1.0
        sim.run()
        drop = min(t for t, up in timeline if t > 20 and not up)
        up_again = min(t for t, up in timeline if t > drop and up)
        gap = up_again - drop
        note("1c reinitiate(none)=16s", abs(gap - 16.0) <= 1.0,
             f"gap {gap:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: flooding outcomes equal the temporal reachability oracle
# ---------------------------------------------------------------------------

class TestCriterion2OracleEquivalence:
    def test_epidemic_matches_oracle_on_randomized_schedules(self):
        rng = np.random.default_rng(20240917)
        policy = make_policy("epidemic")
        instances = 120
        mismatches = 0
        for k in range(instances):
            n = int(rng.integers(3, 11))
            n_contacts = int(rng.integers(3, 21))
            multi = bool(k % 2)
            if multi:
                n_msgs = int(rng.integers(2, 6))
                size = int(rng.integers(100_000, 1_500_000))
                min_len = 2.0 * n_msgs * size / 5e6
            else:
                n_msgs, size, min_len = 1, int(rng.integers(100_000, 1_500_000)), 0.0
            contacts = []
            for _ in range(n_contacts):
                a, b = rng.choice(n, size=2, replace=False)
                start = float(rng.uniform(0, 800))
                length = (min_len + float(rng.uniform(0, 100))) if multi \
                    else float(rng.uniform(0.01, 0.6))
                contacts.append(Contact(start, start + length, int(a), int(b)))
            messages = []
            for mid in range(n_msgs):
                src, dst = rng.choice(n, size=2, replace=False)
                messages.append(Message(mid, int(src), int(dst), size,
                                        float(rng.uniform(0, 400)),
                                        ttl=10 ** 9, copy_limit=10))
            res = run_contact_trace(n, contacts, messages, policy)
            expect = {m.msg_id for m in messages
                      if earliest_delivery(n, contacts, m.source,
                                           m.destination, m.created_at,
                                           m.size) is not None}
            if res.delivered_ids() != expect:
                mismatches += 1
        note("2 oracle equivalence", mismatches == 0,
             f"{instances} schedules, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# Criteria 3-6: desk-scale trend suite with embedded audits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def trend_runs():
    """All desk-scale runs shared by criteria 3, 5 and 6; spray runs carry
    the every-100-s token audit, every run passes counter conservation."""
    t0 = time.time()
    data = {}
    base = {r: desk_base(r) for r in ("epidemic", "snw", "hrson")}
    data["base"] = {r: run_batch(base[r], SEEDS, workers=WORKERS,
                                 token_audit=(r != "epidemic"))
                    for r in ("epidemic", "snw", "hrson")}
    data["copies"] = {r: sweep(base[r], "copies", [4, 8, 12, 16, 20], SEEDS,
                               workers=WORKERS, token_audit=True)
                      for r in ("snw", "hrson")}
    # the base already runs epidemic at L=10; one more L value suffices for
    # the exact copy-invariance check
    data["copies_epidemic"] = sweep(base["epidemic"], "copies", [4],
                                    SEEDS, workers=WORKERS)
    # the 24 h sweep point is exactly the base configuration: reuse it
    data["ttl"] = {}
    for r in ("epidemic", "snw", "hrson"):
        rows = sweep(base[r], "ttl", [h * 3600 for h in (6.0, 12.0, 18.0)],
                     SEEDS, workers=WORKERS, token_audit=(r != "epidemic"))
        rows.append((24 * 3600.0, data["base"][r]))
        data["ttl"][r] = rows
    data["wall"] = time.time() - t0
    return data


def _mean(reports, attr):
    values = [getattr(r, attr) for r in reports if getattr(r, attr) is not None]
    return sum(values) / len(values)


class TestCriterion3TokenConservation:
    def test_spray_runs_hold_token_invariant(self, trend_runs):
        # run_batch raises AuditError from inside any violating run; getting
        # here means every audited spray run kept per-message token sums at
        # the initial budget with custodians within it.
        audited = (len(SEEDS) * 2                  # base snw + hrson
                   + len(SEEDS) * 5 * 2            # copies sweeps
                   + len(SEEDS) * 3 * 2)           # ttl sweeps, spray only
        note("3 token conservation", True,
             f"{audited} spray runs audited every 100 s, no violations")


class TestCriterion4Determinism:
    def test_batches_are_byte_identical_and_parallel_invariant(self):
        cfg = dataclasses.replace(desk_base("snw"), duration=7200.0)
        a = run_batch(cfg, [1, 2], workers=1)
        b = run_batch(cfg, [1, 2], workers=1)
        c = run_batch(cfg, [1, 2], workers=2)
        csv_a, csv_b, csv_c = map(render_runs_csv, (a, b, c))
        ok = csv_a == csv_b == csv_c
        note("4 determinism", ok,
             "two invocations and sequential-vs-parallel byte-identical")


class TestCriterion5CounterConservation:
    def test_message_accounting_closes(self, trend_runs):
        # every engine run re-checks conservation at finalize; verify again
        checked = 0
        for reports in trend_runs["base"].values():
            for rep in reports:
                rep.check_conservation()
                checked += 1
        for rows in trend_runs["copies"].values():
            for _, reports in rows:
                for rep in reports:
                    rep.check_conservation()
                    checked += 1
        for rows in trend_runs["ttl"].values():
            for _, reports in rows:
                for rep in reports:
                    rep.check_conservation()
                    checked += 1
        note("5 counter conservation", True, f"{checked} runs checked")


class TestCriterion6Trends:
    def test_a_overhead_separation(self, trend_runs):
        oh = {r: _mean(trend_runs["base"][r], "overhead_ratio")
              for r in ("epidemic", "snw", "hrson")}
        r_snw = oh["epidemic"] / oh["snw"]
        r_hrson = oh["epidemic"] / oh["hrson"]
        ok = r_snw >= 5.0 and r_hrson >= 5.0
        note("6a overhead >=5x", ok,
             f"epidemic {oh['epidemic']:.0f} vs snw {oh['snw']:.1f} "
             f"({r_snw:.1f}x) and hrson {oh['hrson']:.1f} ({r_hrson:.1f}x)")

    def test_b_delivery_rises_with_copies(self, trend_runs):
        oks, details = [], []
        for router in ("snw", "hrson"):
            values = [v for v, _ in trend_runs["copies"][router]]
            means = [_mean(reports, "delivery_rate")
                     for _, reports in trend_runs["copies"][router]]
            rho = stats.spearmanr(values, means).statistic
            oks.append(rho >= 0.8)
            details.append(f"{router} rho={rho:.2f}")
        note("6b copies trend", all(oks), "; ".join(details))

    def test_b_epidemic_invariant_under_copies(self, trend_runs):
        rows = dict(trend_runs["copies_epidemic"])
        csv4 = render_runs_csv(rows[4])
        csv10 = render_runs_csv(trend_runs["base"]["epidemic"])
        note("6b epidemic copy-invariance", csv4 == csv10,
             "identical seeds give identical reports at L=4 and L=10")

    def test_c_latency_rises_with_ttl(self, trend_runs):
        oks, details = [], []
        for router in ("epidemic", "snw", "hrson"):
            values = [v for v, _ in trend_runs["ttl"][router]]
            means = [_mean(reports, "avg_latency")
                     for _, reports in trend_runs["ttl"][router]]
            rho = stats.spearmanr(values, means).statistic
            oks.append(rho >= 0.8)
            details.append(f"{router} rho={rho:.2f}")
        note("6c ttl latency trend", all(oks), "; ".join(details))

    def test_d_buffer_residency_separation(self, trend_runs):
        bt = {r: _mean(trend_runs["base"][r], "avg_buffer_time")
              for r in ("epidemic", "snw", "hrson")}
        r_snw = bt["snw"] / bt["epidemic"]
        r_hrson = bt["hrson"] / bt["epidemic"]
        ok = r_snw >= 5.0 and r_hrson >= 5.0
        note("6d buffer residency >=5x", ok,
             f"snw {r_snw:.1f}x, hrson {r_hrson:.1f}x over epidemic "
             f"{bt['epidemic']:.0f}s")

    def test_trend_suite_runtime(self, trend_runs):
        note("6 runtime", trend_runs["wall"] < 600.0,
             f"trend runs took {trend_runs['wall']:.0f}s (< 600s target)")


# ---------------------------------------------------------------------------
# Criterion 7: working-day mobility sanity
# ---------------------------------------------------------------------------

class TestCriterion7Wdmm:
    def test_everyone_home_at_0759_and_office_block_exact(self):
        cfg = dataclasses.replace(desk_base("snw"), duration=2 * DAY)
        sim = Simulation(cfg, seed=4)
        sim.model.log = []
        failures = []

        def auditor(s, t):
            if (t - 28740.0) % DAY == 0:
                for nid in range(s.n_nodes):
                    house = s.model.nodes[nid].profile.house.position
                    if s.model.position(nid, t) != house:
                        failures.append((t, nid))
        sim.auditors = [auditor]
        sim.audit_interval = 60.0
        sim.run()
        note("7a home at 07:59", not failures,
             f"{cfg.node_count} nodes x 2 days, {len(failures)} misplaced")

        # exact office block from the activity transition log; any
        # transition away from AT_OFFICE ends the block (a zero-length
        # commute can jump straight to the next stay)
        arrivals = {}
        blocks = []
        for t, nid, act in sim.model.log:
            if act is Activity.AT_OFFICE:
                arrivals[nid] = t
            elif nid in arrivals:
                blocks.append(t - arrivals.pop(nid))
        ok = (len(blocks) == 2 * cfg.node_count
              and all(abs(b - 28800.0) <= 2.0 for b in blocks))
        spread = (min(blocks), max(blocks))
        note("7b office time 28800s", ok,
             f"{len(blocks)} work blocks, range {spread[0]:.1f}..{spread[1]:.1f}s")

    def test_evening_frequency_within_binomial_band(self):
        sim = Simulation(desk_base("snw"), seed=9)
        n_days = 25
        hits = total = 0
        for day in range(n_days):
            sim.model.begin_day(day)
            for plan in sim.model.plans.values():
                hits += plan.evening
                total += 1
        sigma = (total * 0.25) ** 0.5
        ok = abs(hits - total * 0.5) <= 3 * sigma
        note("7c evening frequency", ok,
             f"{hits}/{total} node-days (3-sigma band {total * 0.5:.0f}"
             f" +- {3 * sigma:.0f})")


# ---------------------------------------------------------------------------
# Criterion 8: full-scale smoke (not CI; enable with OPPOSIM_PAPER_SCALE=1)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not os.environ.get("OPPOSIM_PAPER_SCALE"),
                    reason="full-scale smoke run; set OPPOSIM_PAPER_SCALE=1")
class TestCriterion8PaperScale:
    def test_lightest_traffic_full_scale(self):
        results = {}
        for router in ("epidemic", "snw", "hrson"):
            cfg = load_scenario("scenario4", router=router)
            t0 = time.time()
            rep = run(cfg, seed=1)
            wall = time.time() - t0
            results[router] = (rep, wall)
            assert wall < 1800.0, f"{router} run took {wall:.0f}s"
            assert rep.delivery_rate > 0.0
        oh = {r: results[r][0].overhead_ratio for r in results}
        ok = (oh["epidemic"] >= 5 * oh["snw"]
              and oh["epidemic"] >= 5 * oh["hrson"]
              and max(oh["snw"], oh["hrson"]) <= 2 * min(oh["snw"], oh["hrson"]))
        walls = ", ".join(f"{r}={w:.0f}s" for r, (_, w) in results.items())
        note("8 full-scale smoke", ok,
             f"overheads epidemic={oh['epidemic']:.0f} snw={oh['snw']:.1f} "
             f"hrson={oh['hrson']:.1f}; walls {walls}")
