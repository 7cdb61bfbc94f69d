"""Old-path vs. fast-path timings for the ``repro.fastpath`` layer.

Two modes:

* ``pytest benchmarks/bench_fastpath.py --benchmark-only`` — smoke-size
  pytest-benchmark runs (small n; every run asserts fast == reference);
* ``python benchmarks/bench_fastpath.py`` (or ``make bench``) — the full
  sweep at n in {10^3, 10^4, 10^5} plus the Knuth DP at n = 500, writing
  machine-readable ``BENCH_fastpath.json`` at the repo root.

"Reference" timings exercise the pre-fastpath paths — pointer-chasing
``MergeNode`` walks, the O(n^3) general-arrivals DP, the O(n^2) uniform
DPs (frozen here where the library itself now routes through the fast
layer).  "Fast" timings exercise :mod:`repro.fastpath`.  Every timed pair
asserts the two answers agree exactly, so the sweep doubles as a large-n
equivalence test.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # script mode: make src importable before repro
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import repro.fastpath.dyadic as flat_dyadic
from repro.baselines.dyadic import dyadic_forest
from repro.core import dp
from repro.core.full_cost import build_optimal_flat_forest, build_optimal_forest
from repro.core.merge_tree import MergeForest
from repro.core.online import build_online_flat_forest, build_online_forest
from repro.fastpath import cost_tables
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.general import general_arrivals_cost
from repro.simulation.channels import StreamInterval, peak_concurrency

from conftest import timeit_best, write_bench_json

#: stream length used for the forest-scale cases (trees of ~233 arrivals).
FOREST_L = 500

#: stream length of the dense dyadic case (fleet-hot-check's slot units)
DYADIC_L = 240


# ---------------------------------------------------------------------------
# frozen reference paths (the pre-fastpath implementations)
# ---------------------------------------------------------------------------


def reference_forest_intervals(forest: MergeForest, L: float) -> List[StreamInterval]:
    """The old object-path ``forest_intervals``: dict walk + dataclasses."""
    out = []
    for label, length in forest.stream_lengths(L).items():
        if length > 0:
            out.append(StreamInterval(label=label, start=label, end=label + length))
    return out


def irregular_times(n: int) -> List[float]:
    """A deterministic non-uniform arrival pattern (bursts + lulls)."""
    ts, t = [], 0.0
    for i in range(n):
        t += 0.1 + (i % 7) * 0.35 + (3.0 if i % 23 == 0 else 0.0)
        ts.append(t)
    return ts


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small n, CI-friendly)
# ---------------------------------------------------------------------------


def test_general_knuth_smoke(benchmark):
    ts = irregular_times(120)
    fast = benchmark(general_arrivals_cost, ts)
    assert fast == dp.general_arrivals_cost_reference(ts)


def test_memoized_merge_table_smoke(benchmark):
    table = benchmark(cost_tables.merge_cost_table, 5000)
    assert table[120] == dp.merge_cost_table(120)[120]


def test_flat_forest_cost_smoke(benchmark):
    forest = build_optimal_forest(FOREST_L, 20_000)
    flat = forest.to_flat()
    fast = benchmark(flat.merge_cost)
    assert fast == forest.merge_cost()


def test_flat_intervals_smoke(benchmark):
    flat = build_optimal_flat_forest(FOREST_L, 20_000)
    labels, starts, ends = benchmark(flat.intervals, FOREST_L)
    ref = reference_forest_intervals(flat.to_forest(), FOREST_L)
    assert len(labels) == len(ref)
    assert peak_concurrency(starts, ends) > 0


def test_online_flat_build_smoke(benchmark):
    flat = benchmark(build_online_flat_forest, FOREST_L, 20_000)
    assert flat.full_cost(FOREST_L) == int(
        build_online_forest(FOREST_L, 20_000).full_cost(FOREST_L)
    )


def test_dyadic_flat_blocks_smoke(benchmark, monkeypatch):
    """A hot title's dense trace, 1.2x10^5 arrivals in ~32 root windows:
    phase 2 of the flat build runs in at least 3 member blocks, and the
    forest is the recursive builder's node for node."""
    ts = np.cumsum(np.random.default_rng(5).exponential(0.008, 120_000))
    blocks = []
    member_loop = flat_dyadic._member_loop

    def spy(*args):
        blocks.append(args)
        return member_loop(*args)

    with monkeypatch.context() as patched:
        patched.setattr(flat_dyadic, "_member_loop", spy)
        flat_dyadic.dyadic_flat_forest(ts, DYADIC_L)
    assert len(blocks) >= 3
    flat = benchmark(flat_dyadic.dyadic_flat_forest, ts, DYADIC_L)
    ref = FlatForest.from_forest(dyadic_forest(ts.tolist(), DYADIC_L))
    assert flat.equals(ref)
    assert np.array_equal(flat.z, ref.z)


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_fastpath.json
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


def run_sweep(forest_sizes=(1_000, 10_000, 100_000), general_n=500) -> Dict:
    rows: List[Dict] = []

    # -- Knuth-optimized general-arrivals DP --------------------------------
    ts = irregular_times(general_n)
    ref_s, ref_val = timeit_best(
        lambda: dp.general_arrivals_cost_reference(ts), repeats=1
    )
    fast_s, fast_val = timeit_best(lambda: general_arrivals_cost(ts), repeats=3)
    assert fast_val == ref_val, (fast_val, ref_val)
    rows.append(_case("general_arrivals_cost", general_n, ref_s, fast_s))

    # -- uniform merge-cost table: O(n^2) DP vs memoized O(n) ---------------
    n_table = 3000
    ref_s, ref_tab = timeit_best(lambda: dp.merge_cost_table(n_table), repeats=1)

    def cold_fill():
        # Reset inside the timer so this row tracks the O(n) fill, not a
        # warm cache-hit slice of the shared memo.
        cost_tables.reset_cost_caches()
        return cost_tables.merge_cost_table(n_table)

    fast_s, fast_tab = timeit_best(cold_fill, repeats=3)
    assert fast_tab == ref_tab
    rows.append(_case("merge_cost_table_fill", n_table, ref_s, fast_s))
    fast_s, fast_tab = timeit_best(
        lambda: cost_tables.merge_cost_table(n_table), repeats=3
    )
    assert fast_tab == ref_tab
    rows.append(_case("merge_cost_table_memoized", n_table, ref_s, fast_s))

    # -- forest cost / interval evaluation at scale -------------------------
    for n in forest_sizes:
        repeats = 3 if n <= 10_000 else 2
        forest = build_optimal_forest(FOREST_L, n)
        flat = build_optimal_flat_forest(FOREST_L, n)

        ref_s, ref_cost = timeit_best(forest.merge_cost, repeats=repeats)
        fast_s, fast_cost = timeit_best(flat.merge_cost, repeats=repeats)
        assert fast_cost == ref_cost
        rows.append(_case("forest_merge_cost", n, ref_s, fast_s))

        ref_s, ref_full = timeit_best(
            lambda: forest.full_cost(FOREST_L), repeats=repeats
        )
        fast_s, fast_full = timeit_best(
            lambda: flat.full_cost(FOREST_L), repeats=repeats
        )
        assert fast_full == ref_full
        rows.append(_case("forest_full_cost", n, ref_s, fast_s))

        ref_s, ref_iv = timeit_best(
            lambda: reference_forest_intervals(forest, FOREST_L), repeats=repeats
        )
        fast_s, fast_iv = timeit_best(
            lambda: flat.intervals(FOREST_L), repeats=repeats
        )
        assert len(fast_iv[0]) == len(ref_iv)
        assert float(fast_iv[2].sum() - fast_iv[1].sum()) == float(
            sum(s.units for s in ref_iv)
        )
        rows.append(_case("forest_intervals", n, ref_s, fast_s))

        ref_s, ref_forest = timeit_best(
            lambda: build_online_forest(FOREST_L, n), repeats=1
        )
        fast_s, fast_forest = timeit_best(
            lambda: build_online_flat_forest(FOREST_L, n), repeats=repeats
        )
        assert fast_forest.full_cost(FOREST_L) == int(ref_forest.full_cost(FOREST_L))
        rows.append(_case("online_forest_build", n, ref_s, fast_s))

    payload = {
        "schema": "repro.fastpath.bench.v1",
        "L": FOREST_L,
        "description": (
            "Reference (pointer/object or cubic/quadratic DP) vs fastpath "
            "(Knuth DP, memoized tables, FlatForest) timings; best-of-k "
            "wall clock, equivalence asserted on every pair."
        ),
        "benchmarks": rows,
    }
    return payload


def main() -> int:
    print("fastpath benchmark sweep (this runs the O(n^3) reference once; ~1 min)")
    payload = run_sweep()
    path = write_bench_json("fastpath", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
