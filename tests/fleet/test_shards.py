"""Shard passes: one engine pass per group of catalog objects.

The runner groups consecutive catalog objects into shards of at most
``SHARD_ARRIVALS`` arrivals and runs each shard through one
``simulate_batched`` call over a :class:`RaggedTrace`.  The contract:
every folded per-object result equals the one-object run bit for bit —
intervals, every counter and ``repaired`` — whatever the shard
boundaries, the worker count or the shipping route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import ArrivalTrace
from repro.burnin import WorkerKill, installed_task_fault
from repro.fleet import FleetPolicy, object_run, run_fleet
from repro.fleet import runner
from repro.fleet.engine import (
    FLEET_POLICIES,
    RaggedTrace,
    ShardResult,
    simulate_batched,
)
from repro.multiplex import Catalog, MediaObject, Workload
from repro.scale import columnar

DELAY, HORIZON = 2.0, 60.0
BUDGET = 20
#: arrivals per object: one exactly at the budget, two above it, a run of
#: empty objects that forms a shard of its own, and small ones
COUNTS = [20, 0, 35, 0, 0, 25, 3, 20, 1]


@pytest.fixture(scope="module")
def catalog():
    return Catalog(
        [MediaObject(f"o{i}", 20.0 + 5 * i, 1.0 + i) for i in range(len(COUNTS))]
    )


@pytest.fixture(scope="module")
def workload(catalog):
    rng = np.random.default_rng(3)
    out = {}
    for obj, count in zip(catalog, COUNTS):
        # Half-minute grid: many arrivals land exactly on slot ends.
        ticks = rng.choice(int(HORIZON * 2), size=count, replace=False)
        out[obj.name] = np.sort(ticks) / 2.0
    # One malformed feed, repaired to a valid subset on the shard path.
    name = catalog[2].name
    out[name] = np.concatenate([out[name][::-1], [np.nan, -1.0, out[name][0]]])
    return out


def _oracle(catalog, workload, policy):
    """Each object's summary from its own one-object run."""
    out = []
    for obj in catalog:
        times = np.asarray(workload.get(obj.name, np.empty(0)), dtype=np.float64)
        result, repaired = object_run(obj, times, DELAY, HORIZON, policy)
        if result is None or result.forest is None:
            starts = ends = np.empty(0)
            roots = 0
        else:
            starts = result.forest.arrivals * DELAY
            ends = (result.forest.arrivals + result.lengths) * DELAY
            roots = result.metrics.roots_started
        out.append((
            obj.name, obj.units(DELAY),
            0 if result is None else int(result.client_arrival.size),
            int(starts.size), roots, float(np.sum(ends - starts)),
            0.0 if result is None else result.max_startup_delay() * DELAY,
            repaired, starts.tobytes(), ends.tobytes(),
        ))
    return out


def _folded(report):
    return [
        (o.name, o.L, o.clients, o.streams, o.roots, o.total_units_minutes,
         o.max_startup_delay_minutes, o.repaired, o.starts.tobytes(),
         o.ends.tobytes())
        for o in report.objects
    ]


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(runner, "SHARD_ARRIVALS", BUDGET)


class TestShardBoundaries:
    def test_partition_covers_every_boundary_case(self, catalog, workload, small_budget):
        shards = runner._fleet_shards(
            catalog, Workload.of([o.name for o in catalog], workload, HORIZON),
            DELAY, HORIZON, FleetPolicy.batched_dyadic(),
        )
        groups = [list(range(first, first + len(objects))) for first, objects, *_ in shards]
        # at the budget (+ an empty object), oversized alone, empties alone
        assert groups == [[0, 1], [2], [3, 4], [5], [6], [7], [8]]

    def test_partition_depends_only_on_counts(self):
        sizes = [BUDGET, 0, BUDGET + 1, 0, 5, 15, 1]
        entries = list(range(len(sizes)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "SHARD_ARRIVALS", BUDGET)
            assert runner._shards(entries, sizes) == [(0, 1), (2,), (3, 4, 5), (6,)]

    @pytest.mark.parametrize("kind", FLEET_POLICIES)
    def test_reports_equal_per_object_runs(
        self, kind, catalog, workload, small_budget, tmp_path
    ):
        policy = FleetPolicy(kind)
        want = _oracle(catalog, workload, policy)
        existing = tmp_path / "store"
        columnar.write_store(
            existing, ((name, times) for name, times in workload.items())
        )
        for workers in (0, 2):
            for store, wl in ((None, workload), (True, workload), (existing, None)):
                report = run_fleet(
                    catalog, DELAY, HORIZON, policy=policy, workload=wl,
                    workers=workers, store=store,
                )
                # A store holds the malformed feed as written, so its
                # repairs are counted on the shard path too.
                assert _folded(report) == want, (kind, workers, store)

    def test_one_unbounded_shard_equals_small_shards(self, catalog, workload, monkeypatch):
        """The budget moves only the boundaries, never a result."""
        results = []
        for budget in (1, BUDGET, 1 << 16):
            monkeypatch.setattr(runner, "SHARD_ARRIVALS", budget)
            results.append(_folded(run_fleet(catalog, DELAY, HORIZON, workload=workload)))
        assert results[0] == results[1] == results[2]

    def test_kill_at_every_index_fires_in_its_shard(
        self, catalog, workload, small_budget, tmp_path
    ):
        """The fault hook runs once per object a shard holds, so a kill
        aimed at any catalog index fires, and the retry folds the same
        report."""
        clean = _folded(run_fleet(catalog, DELAY, HORIZON, workload=workload))
        for index in range(len(catalog)):
            marker_dir = tmp_path / f"k{index}"
            marker_dir.mkdir()
            kill = WorkerKill(task_index=index, marker_dir=str(marker_dir))
            with installed_task_fault(kill):
                report = run_fleet(
                    catalog, DELAY, HORIZON, workload=workload, workers=2
                )
            assert kill.fired(), index
            assert _folded(report) == clean, index

    def test_hook_sees_catalog_indices_in_process(self, catalog, workload, small_budget):
        seen = []
        with installed_task_fault(lambda index, arg: seen.append((index, arg[1].name))):
            run_fleet(catalog, DELAY, HORIZON, workload=workload)
        assert seen == [(i, obj.name) for i, obj in enumerate(catalog)]


@st.composite
def shard_traces(draw):
    """1-8 objects' traces on a 1/8 grid with their own horizons and L."""
    k = draw(st.integers(1, 8))
    parts, horizons, lengths = [], [], []
    for _ in range(k):
        slots = draw(st.integers(1, 30))
        ticks = draw(st.sets(st.integers(0, slots * 8 - 1), max_size=25))
        parts.append(np.asarray(sorted(ticks), dtype=np.float64) / 8.0)
        horizons.append(float(slots) - draw(st.sampled_from([0.0, 0.5])))
        lengths.append(draw(st.integers(1, 12)))
    for j, h in enumerate(horizons):
        parts[j] = parts[j][parts[j] < h]
    return parts, horizons, lengths


class TestShardPass:
    @settings(max_examples=40, deadline=None)
    @given(shard_traces(), st.sampled_from(FLEET_POLICIES), st.sampled_from([1.0, 0.5]))
    def test_slices_equal_one_object_runs(self, case, kind, slot):
        parts, horizons, lengths = case
        offsets = np.cumsum([0] + [p.size for p in parts])
        trace = RaggedTrace(np.concatenate(parts), offsets, horizons)
        policy = FleetPolicy(kind)
        shard = simulate_batched(lengths, trace, policy, slot)
        assert isinstance(shard, ShardResult)
        bounds = shard.node_offsets
        for k, part in enumerate(parts):
            sub = trace.trace(k)
            assert sub == ArrivalTrace(part, horizons[k])
            assert shard.clients[k] == part.size
            lo, hi = bounds[k], bounds[k + 1]
            if kind == "general-offline" and part.size == 0:
                assert lo == hi and shard.max_startup_delay[k] == 0.0
                continue
            one = simulate_batched(lengths[k], sub, policy, slot)
            if one.forest is None:
                assert lo == hi and shard.roots[k] == 0
            else:
                assert np.array_equal(shard.forest.arrivals[lo:hi], one.forest.arrivals)
                assert np.array_equal(shard.lengths[lo:hi], one.lengths)
                assert np.array_equal(shard.forest.z[lo:hi], one.forest.z)
                parent = shard.forest.parent[lo:hi]
                assert np.array_equal(np.where(parent < 0, -1, parent - lo), one.forest.parent)
                assert shard.roots[k] == one.metrics.roots_started
            assert shard.max_startup_delay[k] == one.max_startup_delay()

    def test_all_empty_shard_has_no_forest(self):
        trace = RaggedTrace(np.empty(0), [0, 0, 0], [5.0, 7.0])
        for kind in ("batched-dyadic", "immediate-dyadic", "unicast"):
            shard = simulate_batched([3, 4], trace, FleetPolicy(kind))
            assert shard.forest is None
            assert shard.node_offsets.tolist() == [0, 0, 0]
            assert shard.max_startup_delay.tolist() == [0.0, 0.0]

    def test_needs_one_L_per_object(self):
        trace = RaggedTrace(np.array([0.5, 0.2]), [0, 1, 2], [2.0, 2.0])
        with pytest.raises(ValueError, match="one L per object"):
            simulate_batched(3, trace, FleetPolicy.batched_dyadic())


class TestValidation:
    @pytest.mark.parametrize("slot", [math.inf, math.nan, -1.0])
    def test_simulate_batched_rejects_bad_slot(self, slot):
        """slot=inf used to raise IndexError."""
        trace = ArrivalTrace(np.array([0.5, 1.5]), 3.0)
        with pytest.raises(ValueError, match="slot"):
            simulate_batched(4, trace, FleetPolicy.batched_dyadic(), slot=slot)

    def test_simulate_segmented_rejects_non_finite_slot(self):
        trace = ArrivalTrace(np.array([0.5, 1.5]), 3.0)
        with pytest.raises(ValueError, match="slot"):
            simulate_batched(4, trace, FleetPolicy.hybrid(), slot=math.inf)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "kind", ["delay-guaranteed", "offline-optimal", "hybrid"]
    )
    def test_simulate_batched_rejects_non_finite_L(self, kind, L):
        """An infinite L used to hang these kinds until memory ran out."""
        trace = ArrivalTrace(np.array([0.5, 1.5]), 3.0)
        with pytest.raises(ValueError, match="finite"):
            simulate_batched(L, trace, FleetPolicy(kind))

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["pure-batching", "unicast"])
    def test_simulate_batched_rejects_non_finite_L_totals(self, kind, L):
        """These kinds used to report a total of inf or NaN units."""
        trace = ArrivalTrace(np.array([0.5, 1.5]), 3.0)
        with pytest.raises(ValueError, match="finite"):
            simulate_batched(L, trace, FleetPolicy(kind))
        ragged = RaggedTrace(np.array([0.5, 0.2]), [0, 1, 2], [3.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            simulate_batched([4, L], ragged, FleetPolicy(kind))

    def test_shard_rejects_non_finite_slot(self):
        trace = RaggedTrace(np.array([0.5]), [0, 1], [3.0])
        with pytest.raises(ValueError, match="slot"):
            simulate_batched([4], trace, FleetPolicy.batched_dyadic(), slot=math.inf)

    @pytest.mark.parametrize(
        "times, offsets, horizons",
        [
            ([0.5, 0.4], [0, 2], [3.0]),  # decreasing inside an object
            ([0.5, 3.0], [0, 2], [3.0]),  # at the horizon
            ([-0.5], [0, 1], [3.0]),  # negative
            ([np.nan], [0, 1], [3.0]),
            ([0.5], [0, 1], [np.inf]),
            ([0.5], [0, 1], [0.0]),
            ([0.5], [1, 1], [3.0]),  # offsets must start at 0
            ([0.5], [0, 1], [3.0, 4.0]),  # one horizon per object
            ([0.5], [0.0, 1.0], [3.0]),
        ],
    )
    def test_ragged_trace_rejects(self, times, offsets, horizons):
        with pytest.raises(ValueError):
            RaggedTrace(np.asarray(times, dtype=np.float64), offsets, horizons)

    def test_ragged_trace_accepts_restarting_clocks(self):
        trace = RaggedTrace(np.array([1.0, 2.0, 0.0, 0.5]), [0, 2, 2, 4], [3, 1, 1])
        assert len(trace) == 3
        assert len(trace.trace(1)) == 0
        assert trace.trace(2).times.tolist() == [0.0, 0.5]
