"""General-arrivals fastpath vs. the cubic oracle, plus channel schedules
and catalog-wide aggregation — the ``BENCH_general.json`` trajectory.

Two modes (same layout as ``bench_fastpath.py``):

* ``pytest benchmarks/bench_general.py --benchmark-only`` — smoke-size
  pytest-benchmark runs (small n; every run asserts fast == reference);
* ``python benchmarks/bench_general.py`` (or ``make bench-general``) —
  the full sweep, writing ``BENCH_general.json`` (schema
  ``repro.fastpath.bench.v1``) at the repo root.  The sweep times the
  O(n^3) forest oracle once at n = 2000, which alone takes a few
  minutes — that is the point being measured.

"Reference" timings exercise the frozen pre-fastpath paths — the cubic
full-scan forest DP with recursive MergeNode reconstruction, the heap
greedy channel loop over StreamInterval objects, and the per-stream
Python aggregation loops.  "Fast" timings exercise the O(n^2)
Knuth-windowed flat forest, ``assign_channels_flat`` and the stacked
interval-array aggregation (``fleet.dg_fleet_peak``,
``simulation.channels.interval_profile``).  Every timed pair asserts
exact agreement.

The ``capacity_plan`` rows time the capacity sequence of ``python -m
repro fleet`` (``dg_fleet_peak`` -> ``capacity_frontier`` ->
``admission_report``) at 1000 titles from a cold envelope memo, against
the same sequence on the frozen concatenate-and-sort peak with
one-title-at-a-time shedding.  Uniform durations share one envelope per
delay probe; seeded mixed durations do not, so that row is bounded by
the envelope builds both sides pay.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # script mode: make src importable before repro
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import contextlib

import numpy as np
import pytest

from repro.core.general import (
    optimal_forest_general_reference,
)
from repro.core.online import build_online_flat_forest
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.general import optimal_flat_forest_general
from repro.fleet import (
    AdmissionReport,
    admission_report,
    capacity,
    capacity_frontier,
    default_delay_grid,
    dg_fleet_peak,
    min_fleet_delay,
)
from repro.fleet.capacity import dg_envelope, dg_envelopes
from repro.multiplex import Catalog, MediaObject, zipf_weights
from repro.simulation.channels import (
    StreamInterval,
    assign_channels,
    assign_channels_flat,
    flat_forest_intervals,
    interval_profile,
    peak_concurrency,
)

from repro.scale.kernels import active_backend

from conftest import timeit_best, write_bench_json

#: stream length for the general-arrivals forest cases: large enough that
#: trees merge dozens of irregular arrivals.
GENERAL_L = 60

#: stream length for the channel-schedule cases (DG envelope forests).
FOREST_L = 500


def irregular_times(n: int) -> List[float]:
    """A deterministic non-uniform arrival pattern (bursts + lulls)."""
    ts, t = [], 0.0
    for i in range(n):
        t += 0.1 + (i % 7) * 0.35 + (3.0 if i % 23 == 0 else 0.0)
        ts.append(t)
    return ts


def reference_aggregate_peak(starts, ends) -> int:
    """The pre-vectorisation event sweep, one Python event per stream end.

    Keep in sync with ``sweep_peak`` in
    ``tests/simulation/test_channels_flat.py`` — both freeze the deleted
    production sweep as an oracle (not shared: ``tests`` is not
    importable from benchmark script mode).
    """
    events = [(s, 1) for s in starts] + [(e, -1) for e in ends]
    events.sort(key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def reference_aggregate_profile(starts, ends, t0, t1, resolution) -> np.ndarray:
    """The pre-vectorisation per-stream loop (with the bin-edge fix)."""
    nbins = int(np.ceil((t1 - t0) / resolution))
    diff = np.zeros(nbins + 1, dtype=np.int64)
    for start, end in zip(starts, ends):
        lo_t, hi_t = max(start, t0), min(end, t1)
        if hi_t > lo_t:
            lo = int(np.floor((lo_t - t0) / resolution))
            hi = int(np.ceil((hi_t - t0) / resolution))
            diff[lo] += 1
            diff[hi] -= 1
    return np.cumsum(diff[:-1])


def dg_catalog_intervals(catalog, delay: float, horizon: float):
    """Stacked DG envelope ``(starts, ends)`` of a whole catalog, in minutes."""
    envelopes = dg_envelopes(catalog, delay, horizon)
    starts = np.concatenate([s for _, s, _ in envelopes]) * delay
    ends = np.concatenate([e for _, _, e in envelopes]) * delay
    return starts, ends


#: the ``python -m repro fleet`` capacity sequence at catalog scale:
#: 1000 titles, a one-day horizon and a 2-minute delay
CAPACITY_TITLES, CAPACITY_HORIZON, CAPACITY_DELAY = 1000, 1440.0, 2.0

#: asserted capacity_plan speedups: uniform durations share one envelope
#: per probe; mixed durations pay the same envelope builds on both sides
CAPACITY_FLOORS = {"uniform": 10.0, "mixed": 2.0}


def capacity_catalog(titles: int, durations: str) -> Catalog:
    """A Zipf catalog with 120-minute titles (``"uniform"``) or seeded
    durations uniform on 80-180 minutes (``"mixed"``)."""
    if durations == "uniform":
        return Catalog.zipf(titles, duration_minutes=120.0, exponent=0.8)
    minutes = np.random.default_rng(1).uniform(80.0, 180.0, titles)
    return Catalog([
        MediaObject(f"title-{i + 1:03d}", float(d), float(w))
        for i, (d, w) in enumerate(zip(minutes, zipf_weights(titles, 0.8)))
    ])


def stacked_peak(envelopes, counts=None) -> int:
    """The concatenate-and-sort fleet peak: one stacked copy per object,
    ``counts[i]`` copies of envelope ``i`` (one each when None), so it
    takes ``fleet.capacity.aggregate_peak``'s call.

    Keep in sync with ``stacked_peak`` in ``tests/fleet/test_capacity.py``
    (not shared: ``tests`` is not importable from benchmark script mode).
    """
    if counts is not None:
        envelopes = [env for env, c in zip(envelopes, counts) for _ in range(c)]
    if not envelopes:
        return 0
    starts = np.concatenate([env[1] for env in envelopes])
    ends = np.concatenate([env[2] for env in envelopes])
    return peak_concurrency(starts, ends)


def shed_linear(catalog, horizon, budget, delay) -> AdmissionReport:
    """One title shed per stacked peak until the admitted set fits.

    Keep in sync with ``shed_linear`` in ``tests/fleet/test_capacity.py``.
    """
    envelope = dict(zip(catalog, dg_envelopes(catalog, delay, horizon)))
    by_popularity = sorted(catalog, key=lambda o: o.weight)  # least first
    admitted = list(catalog.objects)
    dropped = []
    peak = stacked_peak([envelope[o] for o in admitted])
    for obj in by_popularity:
        if peak <= budget:
            break
        admitted = [o for o in admitted if o.name != obj.name]
        dropped.append(obj.name)
        peak = stacked_peak([envelope[o] for o in admitted])
    return AdmissionReport(
        budget_channels=budget,
        delay_minutes=delay,
        feasible=False,
        admitted=tuple(o.name for o in admitted),
        dropped=tuple(dropped),
        peak_channels=peak,
        served_weight_fraction=float(sum(o.weight for o in admitted)),
    )


@contextlib.contextmanager
def stacked_peaks():
    """Route every ``fleet.capacity`` peak through :func:`stacked_peak`."""
    weighted = capacity.aggregate_peak
    capacity.aggregate_peak = stacked_peak
    try:
        yield
    finally:
        capacity.aggregate_peak = weighted


def capacity_plan(catalog: Catalog, reference: bool = False):
    """``(peak, frontier, admission)`` from the CLI's capacity sequence,
    from a cold envelope memo as every CLI run starts; ``reference`` runs
    it on stacked peaks with linear shedding."""
    horizon, delay = CAPACITY_HORIZON, CAPACITY_DELAY
    dg_envelope.cache_clear()
    with stacked_peaks() if reference else contextlib.nullcontext():
        peak = dg_fleet_peak(catalog, delay, horizon)
        budgets = sorted({max(1, int(peak * f)) for f in (1.5, 1.0, 0.75, 0.5, 0.25)})
        hi = delay * 16
        grid = default_delay_grid(lo=min(max(0.25, delay / 8), hi / 2), hi=hi)
        frontier = capacity_frontier(catalog, horizon, budgets, grid)
        if not reference:
            return peak, frontier, admission_report(catalog, horizon, budgets[0], grid)
        # the tightest budget sheds, so the frozen loop is the whole report
        assert min_fleet_delay(catalog, horizon, budgets[0], grid) is None
        return peak, frontier, shed_linear(catalog, horizon, budgets[0], grid[-1])


def _channel_case(n: int):
    """(interval objects, starts, ends) for a DG forest with ~n streams."""
    flat = build_online_flat_forest(FOREST_L, n)
    labels, starts, ends = flat_forest_intervals(flat, FOREST_L)
    objs = [
        StreamInterval(label=l, start=s, end=e)
        for l, s, e in zip(labels.tolist(), starts.tolist(), ends.tolist())
    ]
    return objs, starts, ends


def _assert_assignments_equal(oracle, ch: np.ndarray, objs) -> None:
    for i, s in enumerate(objs):
        assert int(ch[i]) == oracle.channel_of(s.label)


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small n, CI-friendly)
# ---------------------------------------------------------------------------


def test_general_forest_smoke(benchmark):
    ts = irregular_times(110)
    fast = benchmark(optimal_flat_forest_general, ts, GENERAL_L)
    ref = optimal_forest_general_reference(ts, GENERAL_L)
    assert fast.equals(FlatForest.from_forest(ref))
    assert fast.to_forest().full_cost(GENERAL_L) == ref.full_cost(GENERAL_L)


def test_assign_channels_flat_smoke(benchmark):
    objs, starts, ends = _channel_case(2000)
    ch = benchmark(assign_channels_flat, starts, ends)
    _assert_assignments_equal(assign_channels(objs), ch, objs)


def test_aggregate_profile_smoke(benchmark):
    catalog = Catalog.zipf(8, duration_minutes=120.0, exponent=0.8)
    starts, ends = dg_catalog_intervals(catalog, 10.0, 480.0)
    t1 = float(ends.max()) + 1.0
    prof = benchmark(interval_profile, starts, ends, 0.0, t1, 5.0)
    peak = dg_fleet_peak(catalog, 10.0, 480.0)
    assert prof.max() >= peak
    assert peak == reference_aggregate_peak(starts.tolist(), ends.tolist())


@pytest.mark.parametrize("durations", sorted(CAPACITY_FLOORS))
def test_capacity_plan_smoke(benchmark, durations):
    catalog = capacity_catalog(120, durations)
    fast = benchmark(capacity_plan, catalog)
    assert not fast[2].feasible and fast[2].dropped
    assert fast == capacity_plan(catalog, reference=True)


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_general.json
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
        f"  {name:32s} n={n:>7d}  ref {ref_s:10.4f}s  "
        f"fast {fast_s:10.6f}s  x{row['speedup']:.1f}"
    )
    return row


def run_sweep() -> Dict:
    rows: List[Dict] = []

    # -- O(n^2) optimal forest vs the O(n^3) oracle -------------------------
    for n, repeats in ((500, 2), (2000, 1)):
        ts = irregular_times(n)
        ref_s, ref_forest = timeit_best(
            lambda: optimal_forest_general_reference(ts, GENERAL_L), repeats=1
        )
        fast_s, fast_forest = timeit_best(
            lambda: optimal_flat_forest_general(ts, GENERAL_L), repeats=repeats + 1
        )
        assert fast_forest.equals(FlatForest.from_forest(ref_forest))
        assert (
            fast_forest.to_forest().full_cost(GENERAL_L)
            == ref_forest.full_cost(GENERAL_L)
        )
        rows.append(_case("optimal_forest_general", n, ref_s, fast_s))

    # -- vectorised channel schedule vs the heap greedy ---------------------
    for n in (10_000, 100_000):
        objs, starts, ends = _channel_case(n)
        ref_s, oracle = timeit_best(lambda: assign_channels(objs), repeats=2)
        fast_s, ch = timeit_best(
            lambda: assign_channels_flat(starts, ends), repeats=3
        )
        _assert_assignments_equal(oracle, ch, objs)
        rows.append(_case("assign_channels", len(objs), ref_s, fast_s))

    # -- catalog aggregation on stacked arrays vs per-stream loops ----------
    catalog = Catalog.zipf(120, duration_minutes=180.0, exponent=0.8)
    starts, ends = dg_catalog_intervals(catalog, 5.0, 2880.0)
    n_streams = int(starts.size)
    t1 = float(ends.max()) + 1.0
    # convert to Python floats outside the timers: the reference cost
    # being measured is the aggregation walk, not the conversion.
    start_list, end_list = starts.tolist(), ends.tolist()
    ref_s, ref_peak = timeit_best(
        lambda: reference_aggregate_peak(start_list, end_list), repeats=3
    )
    fast_s, fast_peak = timeit_best(
        lambda: dg_fleet_peak(catalog, 5.0, 2880.0), repeats=3
    )
    assert fast_peak == ref_peak
    rows.append(_case("aggregate_peak", n_streams, ref_s, fast_s))

    ref_s, ref_prof = timeit_best(
        lambda: reference_aggregate_profile(start_list, end_list, 0.0, t1, 5.0),
        repeats=3,
    )
    fast_s, fast_prof = timeit_best(
        lambda: interval_profile(starts, ends, 0.0, t1, 5.0), repeats=3
    )
    assert np.array_equal(fast_prof, ref_prof)
    assert fast_prof.max() >= fast_peak
    rows.append(_case("aggregate_profile", n_streams, ref_s, fast_s))

    # -- capacity planning: weighted peaks + bisected shedding --------------
    for durations, floor in sorted(CAPACITY_FLOORS.items(), reverse=True):
        catalog = capacity_catalog(CAPACITY_TITLES, durations)
        ref_s, ref_plan = timeit_best(
            lambda: capacity_plan(catalog, reference=True), repeats=2
        )
        fast_s, fast_plan = timeit_best(lambda: capacity_plan(catalog), repeats=3)
        assert fast_plan == ref_plan
        assert ref_s / fast_s >= floor, (durations, ref_s, fast_s)
        rows.append(_case(
            "capacity_plan", len(catalog), ref_s, fast_s,
            durations=durations, dropped=len(fast_plan[2].dropped),
            backend=active_backend(),
        ))

    payload = {
        "schema": "repro.fastpath.bench.v1",
        "L": GENERAL_L,
        "description": (
            "General-arrivals fastpath: O(n^3) full-scan forest DP vs the "
            "Knuth-windowed O(n^2) flat reconstruction; heap-greedy channel "
            "assignment vs assign_channels_flat; per-stream catalog "
            "aggregation loops vs stacked interval arrays.  Best-of-k wall clock, "
            "exact agreement asserted on every pair.  capacity_plan times "
            "python -m repro "
            "fleet's dg_fleet_peak -> capacity_frontier -> admission_report "
            "at 1000 titles, 1440-minute horizon, 2-minute delay, from a "
            "cold envelope memo: multiplicity-weighted peaks with bisected "
            "shedding vs concatenate-and-sort peaks with one title shed per "
            "peak, on uniform (floor 10x) and seeded mixed 80-180 minute "
            "durations (floor 2x; both sides pay the same envelope builds)."
        ),
        "benchmarks": rows,
    }
    return payload


def main() -> int:
    print(
        "general-arrivals benchmark sweep "
        "(runs the O(n^3) forest oracle at n=2000 once; several minutes)"
    )
    payload = run_sweep()
    path = write_bench_json("general", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
