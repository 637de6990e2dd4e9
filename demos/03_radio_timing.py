#!/usr/bin/env python3
"""Radio layer walkthrough: the role machine's timing algebra and the
network disruption scenario.

Building a network from nothing costs scan + become-AP + scan + connect
(16 s with stock timings). When an access point walks away, rebuilding
costs 10 s if an alternate AP is already in range, 16 s otherwise."""

import dataclasses

from opposim.engine import Simulation
from opposim.radio import (Phase, TimingParams, net_initiate_time,
                           net_reinitiate_time)
from opposim.scenario import RadioConfig, ScenarioConfig
from opposim.traffic import TrafficConfig


timing = TimingParams()
print(f"t_net_initiate    = {net_initiate_time(timing):.0f} s")
print(f"t_net_reinitiate1 = {net_reinitiate_time(timing, True):.0f} s (AP nearby)")
print(f"t_net_reinitiate2 = {net_reinitiate_time(timing, False):.0f} s (no AP)")
print(f"a 5 MB/s link therefore loses "
      f"{net_reinitiate_time(timing, True) * 5:.0f} MB or "
      f"{net_reinitiate_time(timing, False) * 5:.0f} MB of data per disruption")

config = ScenarioConfig(
    traffic=TrafficConfig(interval_range=(10.0, 10.0),
                          size_range=(1_000_000, 1_000_000),
                          window=(0.0, 10.0)),
    radio=RadioConfig(stagger=False),
    duration=120.0)

# Two phones side by side, radios cold. Watch the roles unfold.
sim = Simulation(config, seed=1,
                 static_positions=[(0.0, 0.0), (5.0, 0.0)],
                 ap_gate={0: True, 1: False})
history = []
sim.auditors = [lambda s, t: history.append((t, s.radio[0].phase,
                                             s.radio[1].phase))]
sim.audit_interval = 1.0
sim.run()

seen = set()
print("\nrole timeline (node0, node1):")
for t, p0, p1 in history[:20]:
    state = (p0, p1)
    if state not in seen:
        seen.add(state)
        print(f"   t={t:5.1f} s  {p0.name:12s} {p1.name:12s}")
delivered = list(sim.planes[0].collector.delivered_at.values())
print(f"first message delivered at t={delivered[0]:.2f} s "
      f"(16 s link build + 0.2 s for 1 MB at 5 MB/s)")

# Disruption: the serving AP teleports away at t=40 with an alternate AP
# in range of the stranded client.
sim2 = Simulation(dataclasses.replace(config, traffic=TrafficConfig(
                      interval_range=(100.0, 100.0), window=(0.0, 1.0))),
                  seed=1,
                  static_positions=[(0.0, 0.0), (5.0, 0.0), (22.0, 0.0)],
                  ap_gate={0: True, 1: False, 2: True},
                  scripted_moves=[(40.0, 0, (5000.0, 5000.0))])
gaps = []
sim2.auditors = [lambda s, t: gaps.append((t, s.radio[1].phase is Phase.CLIENT))]
sim2.audit_interval = 1.0
sim2.run()
drop = min(t for t, up in gaps if t > 20 and not up)
back = min(t for t, up in gaps if t > drop and up)
print(f"\nAP left at t={drop:.0f} s; client reattached at t={back:.0f} s "
      f"-> {back - drop:.0f} s of dead air (alternate AP case)")
