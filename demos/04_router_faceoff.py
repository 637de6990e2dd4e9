#!/usr/bin/env python3
"""Routing layer walkthrough: flooding vs copy-limited spraying on the
same desk-scale day, plus the custody mechanics on a tiny contact trace.

Expected picture: epidemic delivers the most but pays for it with an
overhead ratio dozens of times higher and buffers that churn constantly;
the spray routers keep a handful of copies parked for hours."""

from opposim.contacts import Contact, run_contact_trace
from opposim.engine import run
from opposim.routing import make_policy
from opposim.scenario import load_scenario
from opposim.traffic import Message

# --- custody mechanics in miniature -----------------------------------------
# L = 8 tokens: each spray hands the recipient half the sender's budget.
contacts = [Contact(0, 30, 0, 1), Contact(60, 90, 0, 2),
            Contact(120, 150, 1, 3), Contact(180, 210, 3, 4)]
msg = Message(0, 0, 4, 500_000, 0.0, ttl=1e9, copy_limit=8)
res = run_contact_trace(5, contacts, [msg], make_policy("snw"))
print("spray-and-wait custody chain (L=8):")
for mid, src, dst, t in res.transfers:
    print(f"   t={t:5.1f}s  node{src} -> node{dst}")
# the chain's custodians: the source and every node a spray reached
custodians = {msg.source} | {dst for mid, src, dst, t in res.transfers
                             if dst != msg.destination}
print(f"   delivered: {sorted(res.delivered_ids())} "
      f"(custodians: {sorted(custodians)})\n")

# --- one day, three routers --------------------------------------------------
print(f"{'router':10s} {'delivery':>8s} {'latency':>9s} {'overhead':>9s} "
      f"{'buffer-time':>11s} {'relays':>7s}")
for router in ("epidemic", "snw", "hrson"):
    rep = run(load_scenario("desk", router=router), seed=1)
    print(f"{router:10s} {rep.delivery_rate:8.3f} "
          f"{rep.avg_latency:8.0f}s {rep.overhead_ratio:9.1f} "
          f"{rep.avg_buffer_time:10.0f}s {rep.relayed:7d}")
print("\nepidemic floods every link it gets; the spray routers cap each")
print("message at 10 custodians, and the home-gated variant additionally")
print("refuses the access-point role away from house/office/evening spot.")
