#!/usr/bin/env python
"""Provisioning a multi-title VoD server under a channel budget (Section 5).

The paper's closing discussion: for a server carrying many media objects
the binding constraint is *maximum* bandwidth (how many channels you own),
and the Delay Guaranteed algorithm has a unique operational property —
its channel envelope is deterministic, so the operator can pick a delay
guarantee that provably never exceeds the budget while never declining a
request.  This example provisions a 30-title Zipf catalog against a
channel budget and contrasts DG's certain envelope with dyadic's
workload-dependent peak.

Run:  python examples/multiplex_provisioning.py
"""

from repro.fleet import FleetPolicy, dg_fleet_peak, min_fleet_delay, run_fleet
from repro.multiplex import Catalog, catalog_workload

TITLES = 30
HORIZON_MIN = 12 * 60.0      # a 12-hour prime-time window
REQ_EVERY_MIN = 0.5          # ~2 requests/minute across the catalog
BUDGET = 200                 # physical multicast channels owned
DELAYS = (2.0, 5.0, 10.0, 15.0, 30.0)

catalog = Catalog.zipf(TITLES, duration_minutes=120.0, exponent=0.8)
workload = catalog_workload(catalog, REQ_EVERY_MIN, HORIZON_MIN, seed=7)
total_requests = sum(len(t) for t in workload.values())

print(f"Catalog: {TITLES} two-hour titles, Zipf(0.8) popularity")
print(f"Window: {HORIZON_MIN:.0f} min, {total_requests} requests "
      f"(~{total_requests / HORIZON_MIN:.1f}/min)\n")

print("Peak channels needed vs delay guarantee:")
print("  delay   DG peak (certain)   dyadic peak (this workload)")
for delay in DELAYS:
    dg_peak = dg_fleet_peak(catalog, delay, HORIZON_MIN)
    dy = run_fleet(catalog, delay, HORIZON_MIN, FleetPolicy.immediate_dyadic(),
                   workload=workload)
    print(f"  {delay:4.0f}m   {dg_peak:8d}            "
          f"{dy.peak_channels:8d}")
print()

chosen = min_fleet_delay(catalog, HORIZON_MIN, BUDGET, DELAYS)
if chosen is None:
    print(f"No candidate delay fits {BUDGET} channels.")
else:
    # DG serves every slot whatever the requests, so this run realises
    # exactly the envelope dg_fleet_peak provisions for.
    report = run_fleet(catalog, chosen, HORIZON_MIN,
                       FleetPolicy.delay_guaranteed(), workload=workload)
    print(f"Budget {BUDGET} channels -> guarantee a {chosen:.0f}-minute "
          f"start-up delay:")
    print(f"  certain peak: {report.peak_channels} channels "
          f"(never exceeded, no request ever declined)")
    print(f"  total bandwidth: {report.total_units_minutes / 60:.0f} "
          "stream-hours over the window")
    print("\nBusiest titles by bandwidth:")
    for obj in report.busiest_objects(5):
        print(f"  {obj.name}: {obj.total_units_minutes / 60:6.1f} "
              f"stream-hours, peak {obj.peak} channels (L = {obj.L} slots)")

print("\nWhy DG and not dyadic for provisioning?  Dyadic's peak above is")
print("for *this* trace; a flash crowd moves it.  DG's envelope is a")
print("property of the delay guarantee alone — Section 5's point.")
