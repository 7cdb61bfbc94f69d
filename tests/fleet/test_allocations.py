"""Allocation guards: the fleet path keeps per-client data in arrays,
and the replay contract's peak is bounded by its largest title.

ROADMAP item 2's acceptance: no Python object per client or per stream
survives on the production path.  A ~1.1x10^5-client flash-crowd run
(generation, the batched fleet fold and the replay contract) is traced
with ``tracemalloc`` while its outputs are held; the blocks still owned
by lines under ``src/repro`` must stay a small constant per catalog
object.  One tuple or Python float per client would be ~10^5 blocks.

The replay contract replays one title at a time, so its traced peak over
that run must stay within 110 B per client of the largest title (141
with one title's replay alive through the next one's build).  It reads
106 B, set by the continuous verifier of the largest title.
"""

from __future__ import annotations

import os
import tracemalloc

import repro
from repro.burnin.contracts import check_fleet_report
from repro.fleet.engine import FleetPolicy
from repro.fleet.runner import run_fleet
from repro.fleet.scenarios import scenario_workload
from repro.multiplex.catalog import Catalog

SRC_FILES = os.path.join(os.path.dirname(repro.__file__), "*")
BLOCKS_PER_OBJECT = 100
REPLAY_BYTES_PER_CLIENT = 110


def _flash_run(catalog, policy):
    workload = scenario_workload("flash", catalog, 0.0144, 1440.0, seed=1)
    report = run_fleet(
        catalog, delay_minutes=0.5, horizon_minutes=1440.0,
        policy=policy, workload=workload,
    )
    return workload, report


def test_fleet_path_retains_no_per_client_objects():
    catalog = Catalog.zipf(4, duration_minutes=120.0, exponent=0.8)
    policy = FleetPolicy("immediate-dyadic")
    tracemalloc.start()
    try:
        workload, report = _flash_run(catalog, policy)
        contracts = check_fleet_report(report, catalog, workload, policy, replay=True)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert contracts.ok, contracts.render()
    assert report.clients > 10**5
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, SRC_FILES)]
    ).statistics("lineno")
    blocks = sum(stat.count for stat in stats)
    worst = "; ".join(f"{s.traceback[0]}: {s.count}" for s in stats[:3])
    assert blocks <= BLOCKS_PER_OBJECT * len(catalog), (
        f"{blocks} blocks retained from src/repro ({worst})"
    )


def test_replay_contract_peak_per_client_of_the_largest_title():
    catalog = Catalog.zipf(4, duration_minutes=120.0, exponent=0.8)
    policy = FleetPolicy("immediate-dyadic")
    workload, report = _flash_run(catalog, policy)
    largest = max(o.clients for o in report.objects)
    tracemalloc.start()
    try:
        contracts = check_fleet_report(report, catalog, workload, policy, replay=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert contracts.ok, contracts.render()
    assert peak <= REPLAY_BYTES_PER_CLIENT * largest, (
        f"contract peak {peak / largest:.1f} B per client of the largest title"
    )
