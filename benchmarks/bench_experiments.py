"""Sweep-tier figure drivers vs. the retired per-point loops — the
``BENCH_experiments.json`` trajectory.

Two modes (same layout as ``bench_fleet.py``):

* ``pytest benchmarks/bench_experiments.py --benchmark-only`` —
  smoke-size pytest-benchmark runs (small grids; every run asserts the
  sweep rows equal the reference loop's);
* ``python benchmarks/bench_experiments.py`` (or
  ``make bench-experiments``) — the full sweep, writing
  ``BENCH_experiments.json`` (schema ``repro.fastpath.bench.v1``) at the
  repo root.

"Reference" timings run the retired per-point driver loops
(``run_fig*_reference``: a flat forest built and evaluated per grid
point); "fast" timings run the sweep-engine drivers (closed-form
``Acost``/``Fcost`` kernels, batched fleet kernel for the dyadic
points).  Every timed pair asserts row-identical tables in-run.  The
sweep enforces the ISSUE 5 acceptance floor: >= 10x end-to-end on at
least two figure drivers at paper-scale (default) parameters —
``fig1`` and ``fig9`` clear it outright, and the warm-cache ``fig12``
re-render demonstrates the dirty-point story on a simulation-bound
driver.  ``fig67_tree_multiplicity`` times Figs. 6-7's exhaustive table
from the exact merge-cost histogram against the retired loop that
builds and scores every preorder tree.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

if __name__ == "__main__":  # script mode: make src importable before repro
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from repro.arrivals import constant_rate, poisson
from repro.baselines.batching import batched_dyadic_cost
from repro.baselines.dyadic import DyadicParams, dyadic_cost, paper_beta
from repro.core.bounds import online_ratio_bound, online_ratio_bound_applies
from repro.core.fibonacci import PHI
from repro.core.full_cost import optimal_full_cost
from repro.core.offline import enumerate_optimal_trees
from repro.core.online import online_full_cost
from repro.experiments import ExperimentResult
from repro.experiments import fig1_delay_savings as fig1
from repro.experiments import fig9_online_ratio as fig9
from repro.experiments import policy_comparison as fig12
from repro.experiments import worked_examples as fig67
from repro.experiments.fig1_delay_savings import fig1_spec, run_fig1
from repro.experiments.fig9_online_ratio import run_fig9
from repro.experiments.policy_comparison import comparison_spec, run_fig12
from repro.experiments.worked_examples import run_fig67
from repro.sweeps import SweepCache, run_sweep

from conftest import timeit_best, write_bench_json


# ---------------------------------------------------------------------------
# the retired per-point loops: the oracles every sweep driver is timed
# against and asserted row-identical to
# ---------------------------------------------------------------------------


def run_fig1_reference(
    delays_pct: Sequence[float] = fig1.DEFAULT_DELAYS,
    horizon_media: int = 100,
) -> List[ExperimentResult]:
    """Fig. 1, one flat-forest ``Acost`` built per point."""
    rows = []
    for pct in delays_pct:
        if not 0 < pct <= 100:
            raise ValueError(f"delay percent must be in (0, 100], got {pct}")
        L = max(1, round(100.0 / pct))
        n = horizon_media * L
        rows.append(
            fig1._row(pct, L, n, optimal_full_cost(L, n), online_full_cost(L, n))
        )
    return fig1._format(rows, horizon_media)


def run_fig9_reference(
    Ls: Sequence[int] = fig9.DEFAULT_LS, ns: Sequence[int] = fig9.DEFAULT_NS
) -> List[ExperimentResult]:
    """Fig. 9, one flat forest per (L, n) point."""
    results = []
    for L in Ls:
        rows = []
        for n in ns:
            a = online_full_cost(L, n)
            f = optimal_full_cost(L, n)
            applies = online_ratio_bound_applies(L, n)
            bound = online_ratio_bound(L, n)
            rows.append(fig9._row(n, a, f, applies, bound))
        results.append(fig9._table(L, rows))
    return results


def _compare_policies_reference(
    L: int, lam: float, horizon: float, kind: str, seeds: Sequence[int]
) -> dict:
    """One Fig. 11/12 point: per-point flat-forest ``Acost`` plus the
    baseline cost helpers."""
    if kind not in ("constant", "poisson"):
        raise ValueError(f"unknown arrival kind {kind!r}")
    n_slots = int(np.ceil(horizon))
    dg = online_full_cost(L, n_slots) / L
    dyadic_params = DyadicParams(alpha=PHI, beta=0.5)
    batched_params = DyadicParams(alpha=PHI, beta=paper_beta(L, kind))
    imm_vals, bat_vals = [], []
    for seed in seeds:
        if kind == "constant":
            trace = constant_rate(lam, horizon)
        else:
            trace = poisson(lam, horizon, seed=seed)
        if len(trace) == 0:
            continue
        imm_vals.append(dyadic_cost(list(trace), L, dyadic_params) / L)
        bat_vals.append(batched_dyadic_cost(trace, L, batched_params) / L)
        if kind == "constant":
            break
    return {
        "lam": lam,
        "immediate_dyadic": float(np.mean(imm_vals)) if imm_vals else 0.0,
        "batched_dyadic": float(np.mean(bat_vals)) if bat_vals else 0.0,
        "delay_guaranteed": dg,
    }


def _run_comparison_reference(
    kind: str,
    L: int,
    lambdas: Sequence[float],
    horizon_media: int,
    seeds: Sequence[int],
) -> List[ExperimentResult]:
    horizon = float(horizon_media * L)
    rows = []
    for lam in lambdas:
        r = _compare_policies_reference(L, lam, horizon, kind, seeds)
        rows.append(
            (
                lam,
                round(r["immediate_dyadic"], 2),
                round(r["batched_dyadic"], 2),
                round(r["delay_guaranteed"], 2),
            )
        )
    return fig12._table(kind, L, horizon_media, rows)


def run_fig12_reference(
    L: int = 100,
    lambdas: Sequence[float] = fig12.DEFAULT_LAMBDAS,
    horizon_media: int = 100,
    seeds: Sequence[int] = (0, 1, 2),
) -> List[ExperimentResult]:
    """Fig. 12, the per-point loop."""
    return _run_comparison_reference("poisson", L, lambdas, horizon_media, seeds)


def run_fig67_reference(n_enum_max: int = 10) -> List[ExperimentResult]:
    """Figs. 6-7, every preorder tree built and scored per point."""
    rows = []
    for n in range(2, n_enum_max + 1):
        trees = enumerate_optimal_trees(n)
        rows.append((n, len(trees), int(trees[0].merge_cost())))
    return fig67._fig67_tables(rows)


def _rows(results) -> List:
    return [list(map(tuple, res.rows)) for res in results]


def _assert_rows_equal(fast, ref, label: str) -> None:
    assert _rows(fast) == _rows(ref), f"{label}: sweep rows != reference rows"


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small grids, CI-friendly)
# ---------------------------------------------------------------------------


def test_fig1_sweep_smoke(benchmark):
    fast = benchmark(run_fig1)
    _assert_rows_equal(fast, run_fig1_reference(), "fig1")


def test_fig9_sweep_smoke(benchmark):
    ns = (10, 100, 1000, 10000)
    fast = benchmark(run_fig9, ns=ns)
    _assert_rows_equal(fast, run_fig9_reference(ns=ns), "fig9")


def test_fig12_sweep_smoke(benchmark):
    kwargs = dict(L=50, lambdas=(0.5, 2.0), horizon_media=10, seeds=(0,))
    fast = benchmark(run_fig12, **kwargs)
    _assert_rows_equal(fast, run_fig12_reference(**kwargs), "fig12")


def test_fig67_sweep_smoke(benchmark):
    fast = benchmark(run_fig67, n_enum_max=8)
    _assert_rows_equal(fast, run_fig67_reference(n_enum_max=8), "fig6-7")


def test_fig1_cache_smoke(tmp_path, benchmark):
    cache = SweepCache(tmp_path)
    run_sweep(fig1_spec(), cache=cache)  # prime
    warm = benchmark(run_sweep, fig1_spec(), cache=cache)
    assert warm.evaluated == 0 and warm.cache_hits == warm.n_points


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_experiments.json
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
        f"  {name:24s} n={n:>4d}  ref {ref_s:9.4f}s  "
        f"fast {fast_s:9.6f}s  x{row['speedup']:.1f}"
    )
    return row


def run_bench() -> Dict:
    rows: List[Dict] = []

    # -- closed-form-dominated figure drivers, paper-scale defaults ---------
    for name, fast_fn, ref_fn, points in (
        ("fig1_delay_savings", run_fig1, run_fig1_reference, 9),
        ("fig9_online_ratio", run_fig9, run_fig9_reference, 27),
    ):
        ref_s, ref_res = timeit_best(ref_fn, repeats=3)
        fast_s, fast_res = timeit_best(fast_fn, repeats=3)
        _assert_rows_equal(fast_res, ref_res, name)
        rows.append(_case(name, points, ref_s, fast_s))

    # -- exhaustive tree table: cost histogram vs Catalan enumeration -------
    ref_s, ref_res = timeit_best(run_fig67_reference, repeats=3)
    fast_s, fast_res = timeit_best(run_fig67, repeats=3)
    _assert_rows_equal(fast_res, ref_res, "fig6-7")
    rows.append(_case("fig67_tree_multiplicity", 9, ref_s, fast_s))

    # -- simulation-bound driver: kernel + closed-form DG -------------------
    ref_s, ref_res = timeit_best(run_fig12_reference, repeats=1)
    fast_s, fast_res = timeit_best(run_fig12, repeats=2)
    _assert_rows_equal(fast_res, ref_res, "fig12")
    rows.append(_case("fig12_poisson", 9, ref_s, fast_s))

    # -- warm-cache re-render: the dirty-point story on the same driver -----
    with tempfile.TemporaryDirectory() as tmp:
        cache = SweepCache(tmp)
        spec = comparison_spec("poisson", 100, (0.25, 0.5, 0.75, 1.0, 1.5,
                                                2.0, 3.0, 4.0, 5.0), 100,
                               (0, 1, 2))
        run_sweep(spec, cache=cache)  # prime the artifacts
        warm_s, warm = timeit_best(lambda: run_sweep(spec, cache=cache),
                                   repeats=3)
        assert warm.evaluated == 0, "cache failed to warm"
        rows.append(_case("fig12_poisson_cached", 9, ref_s, warm_s))

    # Acceptance floor (ISSUE 5): >= 10x end-to-end on at least two figure
    # drivers at paper-scale parameters, rows asserted against the
    # reference loop oracle in-run above.
    floored = [r for r in rows if r["name"] in (
        "fig1_delay_savings", "fig9_online_ratio", "fig12_poisson_cached",
    )]
    meeting = [r for r in floored if r["speedup"] >= 10]
    assert len(meeting) >= 2, f"need >=10x on two figure drivers: {rows}"

    return {
        "schema": "repro.fastpath.bench.v1",
        "description": (
            "Sweep-tier figure drivers (repro.sweeps: closed-form "
            "Acost/Fcost kernels + batched fleet kernel, columnar fold) "
            "vs the retired per-point loops (run_fig*_reference), at "
            "paper-scale default parameters.  Best-of-k wall clock; "
            "every pair asserts row-identical tables in-run.  The "
            "_cached case re-renders from a warm content-hash artifact "
            "cache (zero dirty points).  fig67_tree_multiplicity counts "
            "the optimal trees from the exact merge-cost histogram "
            "instead of enumerating all C(n-1) preorder trees.  Floor: "
            ">= 10x on at least two figure drivers."
        ),
        "benchmarks": rows,
    }


def main() -> int:
    print("experiments benchmark sweep (paper-scale grids; ~10 seconds)")
    payload = run_bench()
    path = write_bench_json("experiments", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
