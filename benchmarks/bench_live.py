"""Incremental forest maintenance vs per-epoch full rebuild — the
``BENCH_live.json`` trajectory.

Two modes (same layout as ``bench_fleet.py``):

* ``pytest benchmarks/bench_live.py --benchmark-only`` — smoke-size
  pytest-benchmark runs (small n; every run verifies the incremental
  forest node for node against the batch builder);
* ``python benchmarks/bench_live.py`` (or ``make bench-live``) — the
  full sweep, writing ``BENCH_live.json`` (schema
  ``repro.fastpath.bench.v1``) at the repo root.

"Reference" is what a live daemon without :class:`IncrementalFlatForest`
would have to do: hold every arrival and rebuild the whole-prefix forest
with ``dyadic_flat_forest`` each epoch.  "Fast" is the incremental path
the live tier actually runs — ``push_batch`` per epoch plus fence-lagged
``evict_committable``, keeping live memory at O(open window).  At
sampled epochs the incremental state (committed trees + live remainder,
concatenated in global id order) is asserted **identical** — arrivals,
parents, and subtree maxima ``z`` — to the batch build of the same
prefix.  The sweep enforces the ISSUE 7 acceptance floor: >= 5x at
n = 10^5 clients.

``live_daemon_multiday`` times the whole daemon instead: ``LiveDaemon.step``
over several simulated days of 10-minute epochs on a stationary
multi-title trace, with a ``checkpoint()`` + ``LiveDaemon.restore()`` at
the middle epoch.  It records per-epoch p50/p99 latency, the checkpoint
size and the restore time, asserts that per-epoch latency stays flat
(median of the last tenth of epochs over the first tenth <= 1.5, each
epoch normalised by a speed probe timed next to it: work scales with the
open window, not with history) and that the restored daemon's drained
report equals the uninterrupted one (``fleet_reports_equal``).  Every row carries the kernel backend tag.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # script mode: make src importable before repro
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from repro.burnin.contracts import fleet_reports_equal
from repro.fastpath.dyadic import dyadic_flat_forest
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.incremental import IncrementalFlatForest
from repro.fleet.scenarios import scenario_workload
from repro.live import LiveConfig, LiveDaemon
from repro.multiplex import Catalog
from repro.scale.kernels import active_backend

from conftest import timeit_best, write_bench_json

#: stream length in slot units (window = beta * L = 50 slots).
LIVE_L = 100

#: number of ingest epochs per run (a day of 15-minute epochs).
EPOCHS = 96

#: fence lag, in epochs, behind the ingest clock.
FENCE_LAG_EPOCHS = 2

#: case matrix: n -> mean inter-arrival (slot units).  Both horizons
#: span many dyadic windows — the regime the live tier exists for.
TRACES = {
    10_000: 0.05,
    100_000: 0.01,
}


#: live_daemon_multiday geometry: (titles, days, mean inter-arrival in
#: minutes) for the full row and for the bench-smoke case.
DAEMON_FULL = (20, 4, 0.02)
DAEMON_SMOKE = (4, 0.5, 0.2)

#: repeats of the multi-day run; per-epoch latency is the minimum over
#: them.
DAEMON_REPEATS = 2

#: flat-latency bar: last-tenth over first-tenth median epoch latency.
DRIFT_BAR = 1.5

_PROBE_X = np.random.default_rng(5).random(4000)


def _speed_probe() -> float:
    """Seconds for a fixed Python + numpy workload (~0.1 ms).

    Timed right after every epoch: dividing an epoch's latency by the
    probe next to it cancels the machine's speed swings, which otherwise
    read as drift.
    """
    t0 = time.perf_counter()
    total = 0.0
    for v in _PROBE_X[:400].tolist():
        total += v
    np.unique(np.floor(_PROBE_X * 1000.0))
    return time.perf_counter() - t0


def _trace(n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.cumsum(rng.exponential(TRACES[n], size=n))


def _epoch_edges(ts: np.ndarray) -> np.ndarray:
    horizon = float(ts[-1])
    return np.linspace(0.0, np.nextafter(horizon, np.inf), EPOCHS + 1)


def _reference_rebuild(ts: np.ndarray, edges: np.ndarray) -> FlatForest:
    """Rebuild the whole-prefix forest each epoch; return the final one."""
    forest = None
    for k in range(1, EPOCHS + 1):
        m = int(np.searchsorted(ts, edges[k], side="left"))
        forest = dyadic_flat_forest(ts[:m], LIVE_L)
    return forest


def _incremental_serve(ts: np.ndarray, edges: np.ndarray):
    """The live tier's loop: push_batch per epoch + fence eviction."""
    inc = IncrementalFlatForest(LIVE_L)
    committed = []
    for k in range(1, EPOCHS + 1):
        lo = int(np.searchsorted(ts, edges[k - 1], side="left"))
        m = int(np.searchsorted(ts, edges[k], side="left"))
        inc.push_batch(ts[lo:m])
        committed.extend(
            inc.evict_committable(edges[max(0, k - FENCE_LAG_EPOCHS)])
        )
    committed.extend(inc.evict_committable(np.inf))
    return inc, committed


def _materialised(committed) -> FlatForest:
    """Committed trees concatenated in global id order, as one forest."""
    arrivals, parent, z = [], [], []
    for tree in committed:
        base = len(arrivals)
        local = tree.forest.parent + base
        local[tree.forest.parent < 0] = -1
        arrivals.extend(tree.forest.arrivals.tolist())
        parent.extend(local.tolist())
        z.extend(tree.forest.z.tolist())
    return FlatForest(
        np.asarray(arrivals, dtype=np.float64),
        np.asarray(parent, dtype=np.intp),
        z=np.asarray(z, dtype=np.float64),
    )


def _assert_identical(committed, batch: FlatForest) -> None:
    inc = _materialised(committed)
    assert np.array_equal(inc.arrivals, batch.arrivals), "arrival mismatch"
    assert np.array_equal(inc.parent, batch.parent), "parent mismatch"
    assert np.array_equal(inc.z, batch.z), "z mismatch"


def _daemon_feed(titles: int, days: float, mean_gap: float):
    """A stationary Zipf catalog trace, cut into 10-minute epoch batches."""
    catalog = Catalog.zipf(titles, duration_minutes=120.0)
    config = LiveConfig(
        delay_minutes=2.0,
        horizon_minutes=days * 1440.0,
        epoch_minutes=10.0,
        fence_minutes=30.0,
    )
    workload = scenario_workload(
        "zipf", catalog, mean_gap, config.horizon_minutes, seed=11
    )
    times = {name: np.asarray(trace.times) for name, trace in workload.items()}
    batches = []
    for k in range(config.num_epochs):
        t0, t1 = config.epoch_bounds(k)
        batches.append({
            name: ts[np.searchsorted(ts, t0):np.searchsorted(ts, t1)]
            for name, ts in times.items()
        })
    return catalog, config, batches


def _serve_multiday(catalog, config, batches, probe: bool = False):
    """Step every epoch; checkpoint + restore after the middle one.

    Returns the uninterrupted and the restored daemon's drained reports,
    the per-epoch step seconds (speed-normalised with ``probe``), the
    checkpoint size and the restore time.
    """
    daemon = LiveDaemon(catalog, config)
    mid = len(batches) // 2
    seconds = np.empty(len(batches))
    probes = np.ones(len(batches))
    for k, batch in enumerate(batches):
        t0 = time.perf_counter()
        daemon.step(batch)
        seconds[k] = time.perf_counter() - t0
        if probe:
            probes[k] = _speed_probe()
        if k == mid - 1:
            token = daemon.checkpoint()
            t0 = time.perf_counter()
            restored = LiveDaemon.restore(token)
            restore_s = time.perf_counter() - t0
    for batch in batches[mid:]:
        restored.step(batch)
    daemon.drain()
    restored.drain()
    if probe:
        seconds *= np.median(probes) / probes
    return daemon.report(), restored.report(), seconds, len(token.encode()), restore_s


def _drift(seconds: np.ndarray) -> float:
    """Median epoch latency of the last tenth over that of the first tenth."""
    tenth = seconds.size // 10
    return float(np.median(seconds[-tenth:]) / np.median(seconds[:tenth]))


# ---------------------------------------------------------------------------
# pytest-benchmark smoke tests (small n, CI-friendly)
# ---------------------------------------------------------------------------


def test_incremental_serve_smoke(benchmark):
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.exponential(0.05, size=3_000))
    edges = _epoch_edges(ts)
    _, committed = benchmark(_incremental_serve, ts, edges)
    _assert_identical(committed, dyadic_flat_forest(ts, LIVE_L))


def test_full_rebuild_smoke(benchmark):
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.exponential(0.05, size=3_000))
    edges = _epoch_edges(ts)
    final = benchmark(_reference_rebuild, ts, edges)
    assert np.array_equal(final.arrivals, ts)


def test_daemon_multiday_smoke(benchmark):
    catalog, config, batches = _daemon_feed(*DAEMON_SMOKE)
    whole, resumed, seconds, _size, _restore_s = benchmark(
        _serve_multiday, catalog, config, batches
    )
    assert seconds.size == config.num_epochs
    assert whole.fleet.streams > 0
    assert fleet_reports_equal(resumed.fleet, whole.fleet) is None


# ---------------------------------------------------------------------------
# full sweep (script mode): writes BENCH_live.json
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


def _daemon_row() -> Dict:
    titles, days, mean_gap = DAEMON_FULL
    catalog, config, batches = _daemon_feed(titles, days, mean_gap)
    runs = [
        _serve_multiday(catalog, config, batches, probe=True)
        for _ in range(DAEMON_REPEATS)
    ]
    for whole, resumed, *_rest in runs:
        assert fleet_reports_equal(resumed.fleet, whole.fleet) is None
    seconds = np.min([run[2] for run in runs], axis=0)
    ms = seconds * 1e3
    row = {
        "name": "live_daemon_multiday",
        "n": runs[0][0].fleet.clients,
        "titles": titles,
        "days": days,
        "epochs": config.num_epochs,
        "epoch_ms_p50": round(float(np.median(ms)), 4),
        "epoch_ms_p99": round(float(np.percentile(ms, 99)), 4),
        "drift": round(_drift(seconds), 3),
        "checkpoint_bytes": runs[0][3],
        "restore_seconds": round(min(run[4] for run in runs), 6),
        "backend": active_backend(),
    }
    print(
        f"  {row['name']:28s} n={row['n']:>7d}  epochs={row['epochs']}  "
        f"p50 {row['epoch_ms_p50']:.2f} ms  p99 {row['epoch_ms_p99']:.2f} ms  "
        f"drift {row['drift']:.2f}  "
        f"checkpoint {row['checkpoint_bytes']:,} B  "
        f"restore {row['restore_seconds']:.3f} s"
    )
    # ROADMAP item 4's flat-latency bar: per-epoch work must not grow
    # with elapsed history.
    assert row["drift"] <= DRIFT_BAR, row
    return row


def run_sweep() -> Dict:
    rows: List[Dict] = []
    for n in sorted(TRACES):
        ts = _trace(n)
        edges = _epoch_edges(ts)
        ref_s, _final = timeit_best(
            lambda: _reference_rebuild(ts, edges), repeats=1
        )
        fast_s, (inc, committed) = timeit_best(
            lambda: _incremental_serve(ts, edges), repeats=3
        )
        assert len(inc) == 0 and inc.evicted == n
        # node-for-node equality of the whole served day against the
        # batch build of the full trace (prefix equality at every epoch
        # is pinned by tests/fastpath/test_incremental.py)
        _assert_identical(committed, dyadic_flat_forest(ts, LIVE_L))
        rows.append(
            _case(
                "live_incremental_vs_rebuild",
                n,
                ref_s,
                fast_s,
                L=LIVE_L,
                epochs=EPOCHS,
                backend=active_backend(),
            )
        )

    # Acceptance floor (ISSUE 7): >= 5x at n = 10^5 clients.
    big = [r for r in rows if r["n"] >= 100_000]
    assert big and all(r["speedup"] >= 5 for r in big), big

    rows.append(_daemon_row())

    return {
        "schema": "repro.fastpath.bench.v1",
        "description": (
            "Rolling-horizon live serving: IncrementalFlatForest "
            "(push_batch per epoch + fence-lagged eviction) vs rebuilding "
            "the whole-prefix dyadic forest every epoch.  Best-of-k wall "
            "clock over a 96-epoch day; the incremental run's committed "
            "trees are asserted node-for-node identical (arrivals, "
            "parents, z) to the batch build.  Floor: >= 5x at n = 10^5.  "
            "live_daemon_multiday steps LiveDaemon through 4 days of "
            "10-minute epochs on a stationary 20-title Zipf trace with a "
            "mid-run checkpoint/restore: per-epoch latency p50/p99 "
            "(speed-probe normalised, minimum over 2 runs), checkpoint "
            "bytes, restore seconds; asserts drift (last-tenth over "
            "first-tenth median latency) <= 1.5 and restored == "
            "uninterrupted drained report."
        ),
        "benchmarks": rows,
    }


if __name__ == "__main__":
    payload = run_sweep()
    path = write_bench_json("live", payload)
    print(f"wrote {path}")
