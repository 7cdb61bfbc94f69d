#!/usr/bin/env python
"""Capacity-planning a whole catalog with the batched fleet engine.

Three acts:

1. **Serve** — a 150-title Zipf catalog takes a flash crowd on its top
   title; the batched slot-sweep kernel replays the whole evening
   (tens of thousands of requests) in well under a second, no event
   queue involved.
2. **Verify** — the top title's run replayed client by client: every
   receiving program plays, and the measured bandwidth equals the
   forest's analytic cost (the equivalence with the event-driven
   ``Simulation`` is property-tested in ``tests/fleet/``).
3. **Plan** — the budget ↦ delay frontier: for each channel budget, the
   smallest guaranteed start-up delay whose DG envelope provably fits,
   and the admission verdict when a budget is simply too small.

Run:  python examples/fleet_capacity.py
"""

from repro.fleet import (
    FleetPolicy,
    admission_report,
    capacity_frontier,
    default_delay_grid,
    render_frontier,
    run_fleet,
    scenario_workload,
    simulate_batched,
)
from repro.arrivals.traces import ArrivalTrace
from repro.multiplex import Catalog

TITLES = 150
HORIZON_MIN = 6 * 60.0      # one prime-time evening
REQ_EVERY_MIN = 0.03        # ~33 requests/minute across the catalog
DELAY_MIN = 2.0             # guaranteed start-up delay while serving

catalog = Catalog.zipf(TITLES, duration_minutes=120.0, exponent=0.8)
workload = scenario_workload(
    "flash", catalog, REQ_EVERY_MIN, HORIZON_MIN, seed=11
)

# -- 1. serve the catalog through the batched kernel ------------------------
report = run_fleet(
    catalog,
    delay_minutes=DELAY_MIN,
    horizon_minutes=HORIZON_MIN,
    policy=FleetPolicy.batched_dyadic(),
    workload=workload,
)
print(report.render())
print()

# -- 2. replay-verify one object's run --------------------------------------
top = catalog.popularity_rank()[0]
trace_min = workload[top.name]
L = top.units(DELAY_MIN)
trace = ArrivalTrace(
    times=tuple(t / DELAY_MIN for t in trace_min),
    horizon=trace_min.horizon / DELAY_MIN,
)
result = simulate_batched(L, trace, FleetPolicy.batched_dyadic())
result.verify().raise_if_failed()
print(f"replay check: batched run verified on {top.name} "
      f"({len(trace)} requests)\n")

# -- 3. the capacity frontier ----------------------------------------------
grid = default_delay_grid(lo=0.5, hi=32.0, points=16)
budgets = (150, 300, 600, 1200)
print(render_frontier(capacity_frontier(catalog, HORIZON_MIN, budgets, grid)))
print()
print(admission_report(catalog, HORIZON_MIN, budgets[0], grid).render())
