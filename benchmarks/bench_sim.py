"""Flat simulation engine vs. the object-tree walks — the
``BENCH_sim.json`` trajectory.

Two modes (same layout as ``bench_fastpath.py`` / ``bench_general.py``):

* ``pytest benchmarks/bench_sim.py --benchmark-only`` — smoke-size
  pytest-benchmark runs (small n; every run asserts flat == reference);
* ``python benchmarks/bench_sim.py`` (or ``make bench-sim``) — the full
  sweep, writing ``BENCH_sim.json`` (schema ``repro.fastpath.bench.v1``)
  at the repo root.  The sweep replays the per-client verification
  oracle at 10^5 clients, which alone takes about a minute — that is the
  point being measured.

"Reference" timings exercise the frozen pre-flat paths — the per-client
``ReceivingProgram`` replay (O(total parts) Python objects, quadratic
buffer bookkeeping), its continuous-interval twin on dyadic forests, the
recursive ``MergeNode`` dyadic construction, and an object-walk dyadic
policy + ``tree_from_parent_map`` forest reconstruction + per-client
continuous verification pipeline.  "Fast" timings exercise
``fastpath.replay`` (per-level vectorised interval algebra),
``fastpath.dyadic`` (vectorised batch construction), and the production
policy + flat forest reconstruction + batched replay (both policy
pipelines place arrivals with the same ``DyadicOnline`` stack walk, so
that row measures reconstruction and replay).  Every timed pair asserts
exact agreement — identical verification reports, node-for-node
identical forests — in the same run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":  # script mode: make src importable before repro
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.arrivals import poisson
from repro.baselines.dyadic import DyadicOnline, DyadicParams, dyadic_forest
from repro.core.merge_tree import MergeForest, tree_from_parent_map
from repro.core.online import build_online_flat_forest
from repro.fastpath.dyadic import dyadic_flat_forest
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.replay import replay_verify_forest, replay_verify_forest_continuous
from repro.simulation import ImmediateDyadicPolicy, Simulation, verify_simulation
from repro.simulation.policies import Policy
from repro.simulation.verify import (
    verify_forest_continuous_reference,
    verify_forest_reference,
)

import numpy as np

from repro.scale.kernels import (
    _replay_walk_numpy,
    active_backend,
    configure_backend,
    replay_walk,
)

from conftest import timeit_best, write_bench_json

#: stream length for the replay cases (DG envelope forests; small L keeps
#: the per-part oracle runnable at 10^5 clients).
REPLAY_L = 15

#: stream length for the dyadic construction / policy cases.
DYADIC_L = 100


def irregular_times(n: int, step: float = 1 / 64) -> List[float]:
    """Deterministic bursty arrivals on a binary-exact 1/64 grid."""
    ts, t = [], 0.0
    for i in range(n):
        t += step * (1 + (i % 7) * 3 + (40 if i % 23 == 0 else 0))
        ts.append(t)
    return ts


def grid_times(n: int, step: float = 1 / 64) -> np.ndarray:
    """Vectorised :func:`irregular_times` (same values) for the 10^7 rows."""
    i = np.arange(n)
    gaps = step * (1 + (i % 7) * 3 + np.where(i % 23 == 0, 40, 0))
    return np.cumsum(gaps)


def _scale_replay_forest(n: int) -> FlatForest:
    return dyadic_flat_forest(grid_times(n), DYADIC_L)


def _replay_equal(a, b) -> bool:
    """Whole-tuple equality for replay_walk outputs (arrays + scalars)."""
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


def _assert_reports_equal(ref, fast) -> None:
    assert fast.ok == ref.ok and fast.checks == ref.checks, (ref, fast)
    assert sorted(fast.failures) == sorted(ref.failures)


# -- frozen pre-flat policy pipeline (the policy-sweep reference) -----------


class _ObjectDyadicPolicy(Policy):
    """ImmediateDyadicPolicy as it was before the flat refactor: the same
    ``DyadicOnline`` placement, with the Lemma 1 extensions walked along
    ``MergeNode`` parents."""

    uses_slots = False

    def __init__(self, L: int, params: Optional[DyadicParams] = None):
        self.name = "immediate-dyadic-object"
        self.L = L
        self.params = params or DyadicParams()
        self._builder = DyadicOnline(L, self.params)

    def on_arrival(self, client, sim) -> None:
        node = self._builder.push(client.arrival)
        label = node.arrival
        if node.parent is None:
            sim.start_stream(label, planned_units=self.L, parent_label=None)
        else:
            sim.start_stream(
                label,
                planned_units=label - node.parent.arrival,
                parent_label=node.parent.arrival,
            )
            y = node.arrival
            ancestor = node.parent
            while ancestor is not None and ancestor.parent is not None:
                sim.extend_stream(
                    ancestor.arrival,
                    2 * y - ancestor.arrival - ancestor.parent.arrival,
                )
                ancestor = ancestor.parent
        client.assign(label, tuple(n.arrival for n in node.path_from_root()))


def _object_forest(result) -> MergeForest:
    """The pre-refactor SimulationResult.forest(): tree_from_parent_map."""
    parents = {s.label: s.parent_label for s in result.streams.values()}
    trees, current = [], {}
    for label in sorted(parents):
        if parents[label] is None and current:
            trees.append(tree_from_parent_map(current))
            current = {}
        current[label] = parents[label]
    if current:
        trees.append(tree_from_parent_map(current))
    return MergeForest(trees)


def _reference_policy_pipeline(L: int, trace) -> float:
    """Object policy + object forest reconstruction + per-client verify."""
    res = Simulation(L, trace, _ObjectDyadicPolicy(L)).run()
    forest = _object_forest(res)
    report = verify_forest_continuous_reference(forest, L)
    report.raise_if_failed()
    return res.metrics.total_units


def _flat_policy_pipeline(L: int, trace) -> float:
    """Production stack: event policy + flat forest + batched verify."""
    res = Simulation(L, trace, ImmediateDyadicPolicy(L)).run()
    verify_simulation(res, continuous=True).raise_if_failed()
    return res.metrics.total_units


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small n, CI-friendly)
# ---------------------------------------------------------------------------


def test_replay_smoke(benchmark):
    flat = build_online_flat_forest(REPLAY_L, 3000)
    fast = benchmark(replay_verify_forest, flat, REPLAY_L)
    ref = verify_forest_reference(flat, REPLAY_L)
    assert ref.ok
    _assert_reports_equal(ref, fast)


def test_continuous_replay_smoke(benchmark):
    """Batched continuous replay of a dyadic forest (built through phase 1
    on its first level) against the per-client interval oracle."""
    flat = dyadic_flat_forest(irregular_times(3000), DYADIC_L)
    fast = benchmark(replay_verify_forest_continuous, flat, DYADIC_L)
    ref = verify_forest_continuous_reference(flat, DYADIC_L)
    assert ref.ok
    _assert_reports_equal(ref, fast)


def test_dyadic_flat_smoke(benchmark):
    ts = irregular_times(3000)
    fast = benchmark(dyadic_flat_forest, ts, DYADIC_L)
    ref = dyadic_forest(ts, DYADIC_L)
    assert fast.equals(FlatForest.from_forest(ref))


def test_scale_replay_smoke(benchmark):
    """10^6-client replay demand walk through the backend dispatcher;
    asserts whole-tuple equality against the vectorised walk in-run."""
    flat = _scale_replay_forest(1_000_000)
    lengths = flat.stream_lengths(DYADIC_L, "receive-two")
    out = benchmark.pedantic(
        replay_walk,
        args=(flat.arrivals, flat.parent, lengths, float(DYADIC_L),
              "receive-two"),
        rounds=1,
    )
    ref = _replay_walk_numpy(
        flat.arrivals, flat.parent, lengths, float(DYADIC_L), "receive-two"
    )
    assert _replay_equal(out, ref)
    assert ref[3].size == 0  # a clean dyadic forest replays clean


def test_policy_sweep_smoke(benchmark):
    trace = poisson(0.25, 400.0, seed=17)
    fast_units = benchmark(_flat_policy_pipeline, DYADIC_L, trace)
    assert fast_units == _reference_policy_pipeline(DYADIC_L, trace)


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_sim.json
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

    # -- batched replay vs per-client program replay ------------------------
    for n in (10_000, 100_000):
        flat = build_online_flat_forest(REPLAY_L, n)
        ref_s, ref_report = timeit_best(
            lambda: verify_forest_reference(flat, REPLAY_L), repeats=1
        )
        fast_s, fast_report = timeit_best(
            lambda: replay_verify_forest(flat, REPLAY_L), repeats=3
        )
        assert ref_report.ok
        _assert_reports_equal(ref_report, fast_report)
        rows.append(_case("verify_forest_replay", n, ref_s, fast_s, L=REPLAY_L))

    # -- batched continuous replay vs per-client interval replay ------------
    for n in (10_000, 100_000):
        flat = dyadic_flat_forest(irregular_times(n), DYADIC_L)
        ref_s, ref_report = timeit_best(
            lambda: verify_forest_continuous_reference(flat, DYADIC_L), repeats=1
        )
        fast_s, fast_report = timeit_best(
            lambda: replay_verify_forest_continuous(flat, DYADIC_L), repeats=3
        )
        assert ref_report.ok
        _assert_reports_equal(ref_report, fast_report)
        rows.append(
            _case("verify_forest_continuous_replay", n, ref_s, fast_s, L=DYADIC_L)
        )

    # -- flat dyadic construction vs MergeNode recursion --------------------
    for n in (10_000, 100_000):
        ts = irregular_times(n)
        ref_s, ref_forest = timeit_best(
            lambda: dyadic_forest(ts, DYADIC_L), repeats=2
        )
        fast_s, fast_forest = timeit_best(
            lambda: dyadic_flat_forest(ts, DYADIC_L), repeats=3
        )
        assert fast_forest.equals(FlatForest.from_forest(ref_forest))
        rows.append(_case("dyadic_forest", n, ref_s, fast_s, L=DYADIC_L))

    # -- end-to-end policy sweep: sim + reconstruct + verify ----------------
    for rate, horizon in ((0.08, 1200.0), (0.04, 1200.0)):
        trace = poisson(rate, horizon, seed=17)
        ref_s, ref_units = timeit_best(
            lambda: _reference_policy_pipeline(DYADIC_L, trace), repeats=1
        )
        fast_s, fast_units = timeit_best(
            lambda: _flat_policy_pipeline(DYADIC_L, trace), repeats=2
        )
        assert fast_units == ref_units
        rows.append(
            _case("policy_sweep_dyadic", len(trace), ref_s, fast_s, L=DYADIC_L)
        )

    # -- scale tier: backend-dispatched replay walk at 10^6 / 10^7 ----------
    backend = active_backend()
    for n in (1_000_000, 10_000_000):
        flat = _scale_replay_forest(n)
        lengths = flat.stream_lengths(DYADIC_L, "receive-two")
        args = (flat.arrivals, flat.parent, lengths, float(DYADIC_L),
                "receive-two")
        configure_backend(backend)
        replay_walk(*args)  # warm: pages, JIT compilation
        ref_s, ref = timeit_best(lambda: _replay_walk_numpy(*args), repeats=2)
        fast_s, fast = timeit_best(lambda: replay_walk(*args), repeats=3)
        assert _replay_equal(fast, ref)
        assert ref[3].size == 0, "dyadic forest must replay clean"
        rows.append(
            _case("scale_replay_walk", n, ref_s, fast_s,
                  L=DYADIC_L, backend=backend)
        )
    if backend == "numba":
        jit = [r for r in rows if r["name"] == "scale_replay_walk"]
        assert jit and all(r["speedup"] >= 3 for r in jit), jit

    # Acceptance floor for this PR's tentpole rows (ISSUE 3): >= 10x on
    # batched replay and dyadic construction at n = 10^5.
    for name in ("verify_forest_replay", "dyadic_forest"):
        big = [r for r in rows if r["name"] == name and r["n"] >= 100_000]
        assert big and all(r["speedup"] >= 10 for r in big), big

    return {
        "schema": "repro.fastpath.bench.v1",
        "description": (
            "Flat simulation engine: batched FlatForest replay verification "
            "vs per-client ReceivingProgram replay (and, continuous, vs the "
            "per-client interval replay on dyadic forests); vectorised "
            "dyadic forest construction vs MergeNode recursion; flat forest "
            "reconstruction + batched replay vs the object pipeline (both "
            "place arrivals with DyadicOnline).  Best-of-k wall clock; "
            "every pair asserts identical reports/forests/costs in-run.  "
            "scale_replay_walk rows time the backend-dispatched demand walk "
            "at 10^6/10^7 against the vectorised level walk (floor >= 3x "
            "under numba; numpy-only rows record ~1x with an honest "
            "backend tag)."
        ),
        "benchmarks": rows,
    }


def main() -> int:
    print(
        "flat-simulation benchmark sweep "
        "(runs the per-client verification oracle at n=10^5 once; ~2 minutes)"
    )
    payload = run_sweep()
    path = write_bench_json("sim", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
