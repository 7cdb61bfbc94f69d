"""Batched fleet engine vs. the event-driven ``Simulation`` — the
``BENCH_fleet.json`` trajectory.

Two modes (same layout as ``bench_sim.py``):

* ``pytest benchmarks/bench_fleet.py --benchmark-only`` — smoke-size
  pytest-benchmark runs (small n; every run asserts batched == event);
* ``python benchmarks/bench_fleet.py`` (or ``make bench-fleet``) — the
  full sweep, writing ``BENCH_fleet.json`` (schema
  ``repro.fastpath.bench.v1``) at the repo root.

"Reference" timings run the event-driven ``Simulation`` (heap-ordered
queue, per-event Python callbacks, lazy-postpone stream ends) through
the production policies; "fast" timings run the slot-sweep kernel
``repro.fleet.simulate_batched`` on the same trace and policy.  Every
timed pair asserts full equivalence in-run — identical metric counters,
interval multisets, total bandwidth, flat-forest parent arrays, and
per-client service — via ``assert_equivalent_run`` from
``tests/fleet/oracles.py``.  The sweep enforces
the ISSUE 4 acceptance floor: >= 10x at n = 10^5 clients for every
engine case.  The ``zipf_split`` row times the workload draw that feeds
the fleet, ``split_requests``, against ``rng.choice`` plus the same
stable-argsort grouping, and asserts the two splits equal.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # script mode: make src and the oracles importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from repro.arrivals import poisson
from repro.arrivals.generators import rng_from
from repro.burnin.contracts import fleet_reports_equal
from repro.fleet import (
    FleetObjectResult,
    FleetPolicy,
    FleetReport,
    object_run,
    run_fleet,
    scenario_workload,
    simulate_batched,
)
from repro.multiplex import Catalog, split_requests
from repro.scale.columnar import ColumnarWriter
from repro.scale.kernels import active_backend

from conftest import timeit_best, write_bench_json
from tests.fleet.oracles import assert_equivalent_run, simulate_event

#: stream length for the engine cases (slot units).
ENGINE_L = 100

#: engine case matrix: policy kind -> (trace horizon, mean gap) per n.
ENGINE_TRACES = {
    10_000: (1_000.0, 0.1),
    100_000: (1_000.0, 0.01),
}

#: catalog shape for the runner case.
CATALOG_TITLES = 120
CATALOG_HORIZON_MIN = 480.0
CATALOG_DELAY_MIN = 2.0

#: shard-pass case: the fleet-catalog shape (1000 Zipf titles, a day of
#: arrivals at a 2-minute delay, batched dyadic; ~7.2 x 10^5 clients).
SHARD_TITLES = 1000
SHARD_MEAN_GAP_MIN = 0.002
SHARD_HORIZON_MIN = 1440.0

#: asserted floor of the shard pass over the per-object loop.
SHARD_FLOOR = 3.0

#: RSS case geometry: OBJECTS columns of RSS_CLIENTS arrivals each
#: (10^7 clients total).  Peak RSS of the columnar run scales with ONE
#: object's working set, so the per-object size is what the bound sees.
RSS_OBJECTS = 100
RSS_CLIENTS = 100_000


# -- out-of-core RSS case ----------------------------------------------------


def _rss_times(i: int, m: int = RSS_CLIENTS) -> np.ndarray:
    """Object ``i``'s arrivals: seeded so writer and children agree."""
    rng = np.random.default_rng([977, i])
    return np.sort(rng.uniform(0.0, CATALOG_HORIZON_MIN, size=m))


def _rss_catalog() -> Catalog:
    return Catalog.zipf(RSS_OBJECTS, duration_minutes=60.0)


def _rss_digest(report) -> List:
    return [
        report.clients,
        report.streams,
        report.peak_channels,
        round(report.total_units_minutes, 3),
    ]


def _rss_child(mode: str, store: str) -> int:
    """Child protocol for the RSS case: run one mode, print one JSON line.

    ``ru_maxrss`` is the process's lifetime peak, so each mode must run
    in a fresh process — the parent launches one child per mode and
    compares the peaks (minus the ``baseline`` child, which only imports
    and builds the catalog).
    """
    catalog = _rss_catalog()
    t0 = time.perf_counter()
    digest: List = []
    if mode == "inmemory":
        workload = {
            obj.name: _rss_times(i) for i, obj in enumerate(catalog)
        }
        report = run_fleet(
            catalog, CATALOG_DELAY_MIN, CATALOG_HORIZON_MIN, workload=workload
        )
        digest = _rss_digest(report)
    elif mode == "columnar":
        report = run_fleet(
            catalog, CATALOG_DELAY_MIN, CATALOG_HORIZON_MIN,
            workload=None, store=store,
        )
        digest = _rss_digest(report)
    elif mode != "baseline":
        raise SystemExit(f"unknown rss-child mode {mode!r}")
    print(json.dumps({
        "mode": mode,
        "seconds": round(time.perf_counter() - t0, 6),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": digest,
    }))
    return 0


def _run_rss_child(mode: str, store: str) -> Dict:
    out = subprocess.run(
        [sys.executable, __file__, "--rss-child", mode, store],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _per_object_fleet(catalog, workload, delay, horizon, policy) -> FleetReport:
    """The fleet fold with one ``simulate_batched`` run per object (via
    ``object_run``): the path every catalog run took before shards, and
    the reference the shard pass must equal bit for bit."""
    report = FleetReport(policy.kind, delay, horizon)
    for obj in catalog:
        trace = workload.get(obj.name)
        times = np.empty(0) if trace is None else np.asarray(trace.times)
        result, repaired = object_run(obj, times, delay, horizon, policy)
        if result is None or result.forest is None:
            starts = ends = np.empty(0)
            roots = 0
        else:
            starts = result.forest.arrivals * delay
            ends = (result.forest.arrivals + result.lengths) * delay
            roots = result.metrics.roots_started
        report.objects.append(
            FleetObjectResult(
                name=obj.name,
                L=obj.units(delay),
                delay_minutes=delay,
                clients=0 if result is None else int(result.client_arrival.size),
                streams=int(starts.size),
                roots=roots,
                total_units_minutes=float(np.sum(ends - starts)),
                max_startup_delay_minutes=(
                    0.0 if result is None else result.max_startup_delay() * delay
                ),
                starts=starts,
                ends=ends,
                repaired=repaired,
            )
        )
    return report


def _assert_same_fold(shard: FleetReport, per_object: FleetReport) -> None:
    assert fleet_reports_equal(shard, per_object) is None, fleet_reports_equal(
        shard, per_object
    )
    assert [o.repaired for o in shard.objects] == [
        o.repaired for o in per_object.objects
    ]


def _shard_case(titles: int, mean_gap: float, horizon: float):
    catalog = Catalog.zipf(titles, duration_minutes=120.0, exponent=0.8)
    workload = scenario_workload("zipf", catalog, mean_gap, horizon, seed=1)
    return catalog, workload


def _reference_split(trace, catalog, seed):
    """``split_requests`` with the draw left to ``rng.choice`` (bisecting
    its cdf) and the same stable-argsort grouping."""
    picks = rng_from(seed).choice(len(catalog), size=len(trace), p=catalog.weights())
    order = np.argsort(picks.astype(np.min_scalar_type(len(catalog))), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(picks, minlength=len(catalog)))))
    grouped = trace.times[order]
    return {obj.name: grouped[bounds[k] : bounds[k + 1]] for k, obj in enumerate(catalog)}


def _assert_same_split(fast, reference) -> None:
    assert list(fast) == list(reference)
    for name, times in reference.items():
        assert np.array_equal(fast[name].times, times), name


def _engine_pair(kind: str, n: int):
    horizon, mean = ENGINE_TRACES[n]
    trace = poisson(mean, horizon, seed=17)
    policy = FleetPolicy(kind)
    return trace, policy


def _hybrid_trace(n: int):
    """~n arrivals in alternating quiet/busy phases (quiet rate 0.2/slot,
    busy ~50/slot), so the hysteresis scan actually flips modes and the
    segmented sweep crosses many DG/dyadic boundaries."""
    from repro.arrivals.traces import ArrivalTrace

    rng = np.random.default_rng(41)
    phases = 8
    per_phase = n / 200.0  # slots per phase
    chunks = []
    for k in range(phases):
        lo, hi = k * per_phase, (k + 1) * per_phase
        m = (
            int(0.2 * per_phase)
            if k % 2 == 0
            else int((n - 0.8 * per_phase) / 4)
        )
        chunks.append(rng.uniform(lo, hi, size=m))
    times = np.unique(np.concatenate(chunks))
    return ArrivalTrace(times=tuple(times.tolist()), horizon=phases * per_phase)


def _reference_catalog_sweep(catalog, workload):
    """Per-object event-driven sims + interval aggregation (the pre-fleet
    path a catalog run had to take)."""
    from repro.arrivals.traces import ArrivalTrace

    peaks = 0.0
    total = 0.0
    import numpy as np

    all_starts, all_ends = [], []
    for obj in catalog:
        trace_min = workload.get(obj.name)
        if trace_min is None or len(trace_min) == 0:
            continue
        L = obj.units(CATALOG_DELAY_MIN)
        ts = tuple(t / CATALOG_DELAY_MIN for t in trace_min)
        horizon = trace_min.horizon / CATALOG_DELAY_MIN
        if ts and ts[-1] >= horizon:
            horizon = float(np.nextafter(ts[-1], np.inf))
        trace = ArrivalTrace(times=ts, horizon=horizon)
        res = simulate_event(L, trace, FleetPolicy.immediate_dyadic())
        starts, ends = res.metrics.interval_arrays()
        all_starts.append(starts * CATALOG_DELAY_MIN)
        all_ends.append(ends * CATALOG_DELAY_MIN)
        total += float(np.sum(ends - starts)) * CATALOG_DELAY_MIN
    from repro.simulation.channels import peak_concurrency

    peaks = peak_concurrency(np.concatenate(all_starts), np.concatenate(all_ends))
    return peaks, total


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small n, CI-friendly)
# ---------------------------------------------------------------------------


def test_engine_dyadic_smoke(benchmark):
    trace = poisson(0.1, 300.0, seed=17)
    policy = FleetPolicy.immediate_dyadic()
    fast = benchmark(simulate_batched, ENGINE_L, trace, policy)
    assert_equivalent_run(simulate_event(ENGINE_L, trace, policy), fast)


def test_engine_dg_smoke(benchmark):
    trace = poisson(0.5, 300.0, seed=17)
    policy = FleetPolicy.delay_guaranteed()
    fast = benchmark(simulate_batched, 15, trace, policy)
    assert_equivalent_run(simulate_event(15, trace, policy), fast)


def test_engine_hybrid_smoke(benchmark):
    trace = _hybrid_trace(2_000)
    policy = FleetPolicy.hybrid(window_slots=10, rate_high=1.0, rate_low=0.5)
    fast = benchmark(simulate_batched, ENGINE_L, trace, policy)
    event = simulate_event(ENGINE_L, trace, policy)
    assert_equivalent_run(event, fast)
    assert len(fast.mode_log) >= 4  # the trace actually flips modes


def test_fleet_runner_smoke(benchmark):
    catalog = Catalog.zipf(12, duration_minutes=60.0)
    workload = split_requests(poisson(0.2, 120.0, seed=5), catalog, seed=5)
    report = benchmark(
        run_fleet,
        catalog,
        CATALOG_DELAY_MIN,
        120.0,
        FleetPolicy.immediate_dyadic(),
        workload,
    )
    ref_peak, _ = _reference_catalog_sweep(catalog, workload)
    assert report.peak_channels == ref_peak


def test_zipf_split_smoke(benchmark):
    """The title draw against ``rng.choice``, at ~10^5 requests: enough
    for the draw's cdf to be looked up rather than bisected."""
    catalog = Catalog.zipf(100, duration_minutes=60.0)
    trace = poisson(0.005, 480.0, seed=5)
    fast = benchmark(split_requests, trace, catalog, 5)
    _assert_same_split(fast, _reference_split(trace, catalog, 5))


def test_fleet_shard_catalog_smoke(benchmark):
    """The shard pass vs one simulate_batched run per object on a small
    fleet-catalog-shaped catalog; the folds must be equal."""
    catalog, workload = _shard_case(100, 0.05, 480.0)
    policy = FleetPolicy.batched_dyadic()
    shard = benchmark(
        run_fleet, catalog, CATALOG_DELAY_MIN, 480.0, policy, workload
    )
    per_object = _per_object_fleet(catalog, workload, CATALOG_DELAY_MIN, 480.0, policy)
    _assert_same_fold(shard, per_object)


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_fleet.json
# ---------------------------------------------------------------------------


def _case(name: str, n: int, ref_s: float, fast_s: float, **extra) -> Dict:
    row = {
        "name": name,
        "n": n,
        "reference_seconds": round(ref_s, 6),
        "fast_seconds": round(fast_s, 6),
        "speedup": round(ref_s / fast_s, 2),
        **extra,
    }
    print(
        f"  {name:28s} n={n:>7d}  ref {ref_s:10.4f}s  "
        f"fast {fast_s:10.6f}s  x{row['speedup']:.1f}"
    )
    return row


def run_sweep() -> Dict:
    rows: List[Dict] = []
    backend = active_backend()

    # -- scale tier: out-of-core columnar catalog at 10^7 clients -----------
    # This case runs FIRST: Linux ru_maxrss survives fork+exec, so child
    # processes inherit the parent's peak RSS — the deltas below are only
    # meaningful while the parent is still small (the later engine rows
    # allocate 10^6-client runs in this process).
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store:
        with ColumnarWriter(store) as writer:
            for i, obj in enumerate(_rss_catalog()):
                writer.add(obj.name, _rss_times(i))
        store_mb = (Path(store) / "segment.bin").stat().st_size / 2**20
        base = _run_rss_child("baseline", store)
        inmem = _run_rss_child("inmemory", store)
        col = _run_rss_child("columnar", store)
    assert col["digest"] == inmem["digest"], (col, inmem)
    inmem_mb = (inmem["peak_rss_kb"] - base["peak_rss_kb"]) / 1024
    col_mb = (col["peak_rss_kb"] - base["peak_rss_kb"]) / 1024
    # The acceptance bound: the in-memory run materialises the whole
    # 10^7-client workload (peak delta beyond the store's size on disk);
    # the columnar run holds at most one object's pages + working set.
    assert inmem_mb > store_mb, (inmem_mb, store_mb)
    assert col_mb < 0.5 * store_mb, (col_mb, store_mb)
    rows.append(
        _case(
            "fleet_columnar_catalog",
            RSS_OBJECTS * RSS_CLIENTS,
            inmem["seconds"],
            col["seconds"],
            objects=RSS_OBJECTS,
            backend=backend,
            store_mb=round(store_mb, 1),
            inmemory_peak_rss_mb=round(inmem_mb, 1),
            columnar_peak_rss_mb=round(col_mb, 1),
        )
    )

    # -- batched kernel vs the event queue, per policy family ---------------
    for kind in ("immediate-dyadic", "batched-dyadic", "delay-guaranteed"):
        for n in (10_000, 100_000):
            trace, policy = _engine_pair(kind, n)
            ref_s, ref_res = timeit_best(
                lambda: simulate_event(ENGINE_L, trace, policy), repeats=1
            )
            fast_s, fast_res = timeit_best(
                lambda: simulate_batched(ENGINE_L, trace, policy), repeats=3
            )
            assert_equivalent_run(ref_res, fast_res)
            rows.append(
                _case(f"engine_{kind}", len(trace), ref_s, fast_s, L=ENGINE_L)
            )

    # -- segmented hybrid: hysteresis scan + per-segment sweeps -------------
    hybrid = FleetPolicy.hybrid(window_slots=20, rate_high=1.0, rate_low=0.5)
    for n in (100_000, 1_000_000):
        trace = _hybrid_trace(n)
        ref_s, ref_res = timeit_best(
            lambda: simulate_event(ENGINE_L, trace, hybrid), repeats=1
        )
        fast_s, fast_res = timeit_best(
            lambda: simulate_batched(ENGINE_L, trace, hybrid), repeats=3
        )
        assert_equivalent_run(ref_res, fast_res)
        # 4 busy phases: 4 DG entries + 3 exits (the last never exits)
        assert len(fast_res.mode_log) >= 7, fast_res.mode_log
        rows.append(
            _case(
                "engine_hybrid", len(trace), ref_s, fast_s,
                L=ENGINE_L, mode_switches=len(fast_res.mode_log),
                backend=backend,
            )
        )

    # -- sharded catalog runner vs per-object event sims --------------------
    catalog = Catalog.zipf(CATALOG_TITLES, duration_minutes=120.0)
    workload = split_requests(
        poisson(0.005, CATALOG_HORIZON_MIN, seed=23), catalog, seed=23
    )
    n_requests = sum(len(t) for t in workload.values())
    ref_s, ref = timeit_best(
        lambda: _reference_catalog_sweep(catalog, workload), repeats=1
    )
    fast_s, report = timeit_best(
        lambda: run_fleet(
            catalog,
            CATALOG_DELAY_MIN,
            CATALOG_HORIZON_MIN,
            FleetPolicy.immediate_dyadic(),
            workload,
        ),
        repeats=2,
    )
    ref_peak, ref_total = ref
    assert report.peak_channels == ref_peak, (report.peak_channels, ref_peak)
    assert abs(report.total_units_minutes - ref_total) <= 1e-6 * max(1.0, ref_total)
    rows.append(
        _case(
            "fleet_runner_catalog",
            n_requests,
            ref_s,
            fast_s,
            objects=CATALOG_TITLES,
        )
    )

    # -- shard pass vs one simulate_batched run per object ------------------
    catalog, workload = _shard_case(SHARD_TITLES, SHARD_MEAN_GAP_MIN, SHARD_HORIZON_MIN)
    policy = FleetPolicy.batched_dyadic()
    n_requests = sum(len(t) for t in workload.values())
    ref_s, per_object = timeit_best(
        lambda: _per_object_fleet(
            catalog, workload, CATALOG_DELAY_MIN, SHARD_HORIZON_MIN, policy
        ),
        repeats=3,
    )
    fast_s, shard = timeit_best(
        lambda: run_fleet(
            catalog, CATALOG_DELAY_MIN, SHARD_HORIZON_MIN, policy, workload
        ),
        repeats=5,
    )
    _assert_same_fold(shard, per_object)
    row = _case(
        "fleet_shard_catalog", n_requests, ref_s, fast_s,
        objects=SHARD_TITLES, backend=backend,
    )
    assert row["speedup"] >= SHARD_FLOOR, row
    rows.append(row)

    # -- the title draw at the fleet-catalog shape --------------------------
    trace = poisson(SHARD_MEAN_GAP_MIN, SHARD_HORIZON_MIN, seed=1)
    ref_s, reference = timeit_best(lambda: _reference_split(trace, catalog, 1), repeats=5)
    fast_s, fast = timeit_best(lambda: split_requests(trace, catalog, 1), repeats=5)
    _assert_same_split(fast, reference)
    rows.append(_case("zipf_split", len(trace), ref_s, fast_s, objects=SHARD_TITLES))

    # Acceptance floor (ISSUE 4): >= 10x for the batched kernel at 10^5.
    big = [r for r in rows if r["name"].startswith("engine_") and r["n"] >= 100_000]
    assert big and all(r["speedup"] >= 10 for r in big), big

    return {
        "schema": "repro.fastpath.bench.v1",
        "description": (
            "Batched fleet engine: slot-sweep kernel vs the event-driven "
            "Simulation per policy family, and the sharded catalog runner "
            "vs per-object event sims.  Best-of-k wall clock; every pair "
            "asserts full run equivalence (metrics, forests, clients, mode "
            "logs) in-run.  Floor: >= 10x at n = 10^5 for every engine "
            "case.  engine_hybrid rows run the segmented sweep (hysteresis "
            "scan + per-mode-segment forests) against the event-driven "
            "HybridPolicy at 10^5 and 10^6 clients.  "
            "fleet_shard_catalog runs a 1000-title fleet-catalog-shaped "
            "catalog through the runner's shard pass against one "
            "simulate_batched run per object, asserts the folded reports "
            "equal field for field, repaired counts included (floor >= 3x).  "
            "zipf_split draws and groups ~7.2 x 10^5 requests over the same "
            "1000 titles with split_requests (its cdf looked up) against "
            "rng.choice (its cdf bisected) plus the same grouping, and "
            "asserts the splits equal.  "
            "fleet_columnar_catalog runs a 10^7-client "
            "catalog in subprocess children and asserts the columnar run's "
            "peak RSS stays under half the store size while the in-memory "
            "run exceeds it."
        ),
        "benchmarks": rows,
    }


def main(argv: List[str]) -> int:
    if len(argv) >= 3 and argv[0] == "--rss-child":
        return _rss_child(argv[1], argv[2])
    print(
        "fleet benchmark sweep "
        "(runs the event-driven oracle at n = 10^5 per policy; ~2 minutes)"
    )
    payload = run_sweep()
    path = write_bench_json("fleet", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
