"""Tests for the sharded catalog runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals import poisson
from repro.baselines.dyadic import DyadicParams
from repro.burnin.contracts import fleet_reports_equal
from repro.fastpath.dyadic import dyadic_flat_forest
from repro.fleet import FleetPolicy, run_fleet
from repro.multiplex import Catalog, split_requests
from repro.simulation.channels import (
    flat_forest_intervals,
    interval_profile,
    peak_concurrency,
)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(12, duration_minutes=60.0)


@pytest.fixture(scope="module")
def workload(catalog):
    base = poisson(0.25, 180.0, seed=21)
    return split_requests(base, catalog, seed=21)


class TestRunFleet:
    def test_matches_multiplex_dyadic_provisioning(self, catalog, workload):
        """Immediate-dyadic fleet == each object's dyadic forest built by
        hand over its trace in slot units and scaled back to minutes —
        the provisioning the ``multiplex`` experiment reports."""
        report = run_fleet(
            catalog, 2.0, 180.0,
            policy=FleetPolicy.immediate_dyadic(), workload=workload,
        )
        all_starts, all_ends = [], []
        for obj, got in zip(catalog, report.objects):
            trace = workload[obj.name]
            assert got.clients == len(trace)
            if len(trace) == 0:
                assert got.streams == 0
                continue
            L = obj.units(2.0)
            forest = dyadic_flat_forest(
                [t / 2.0 for t in trace], L, DyadicParams()
            )
            _labels, starts, ends = flat_forest_intervals(forest, L)
            assert np.array_equal(got.starts, starts * 2.0)
            assert np.array_equal(got.ends, ends * 2.0)
            all_starts.append(starts * 2.0)
            all_ends.append(ends * 2.0)
        assert report.peak_channels == peak_concurrency(
            np.concatenate(all_starts), np.concatenate(all_ends)
        )

    def test_worker_count_does_not_change_results(self, catalog, workload):
        """In-process, sharded (pickled arrays) and sharded through the
        columnar store: byte-identical FleetReports."""
        for policy in (FleetPolicy.batched_dyadic(), FleetPolicy.immediate_dyadic()):
            serial = run_fleet(
                catalog, 2.0, 180.0, policy=policy, workload=workload, workers=0,
            )
            for kwargs in ({"workers": 2}, {"workers": 2, "store": True}):
                sharded = run_fleet(
                    catalog, 2.0, 180.0, policy=policy, workload=workload,
                    **kwargs,
                )
                assert fleet_reports_equal(serial, sharded) is None, (
                    policy.kind, kwargs
                )

    def test_hybrid_worker_count_does_not_change_results(self, catalog, workload):
        """Segmented hybrid through the sharded runner: workers=0 and
        workers=2 must produce byte-identical FleetReports (the exact
        equivalence predicate the burn-in contracts replay)."""
        policy = FleetPolicy.hybrid(window_slots=5, rate_high=0.5, rate_low=0.2)
        serial = run_fleet(
            catalog, 2.0, 180.0, policy=policy, workload=workload, workers=0,
        )
        sharded = run_fleet(
            catalog, 2.0, 180.0, policy=policy, workload=workload, workers=2,
        )
        assert fleet_reports_equal(serial, sharded) is None
        assert serial.policy == "hybrid"

    def test_objects_missing_from_workload_cost_nothing(self, catalog):
        workload = {catalog[0].name: poisson(0.5, 180.0, seed=5)}
        # general-offline is undefined over zero served slots — quiet
        # objects must contribute empty results, not abort the fleet
        for policy in (None, FleetPolicy.general_offline()):
            report = run_fleet(catalog, 2.0, 180.0, policy=policy,
                               workload=workload)
            by_name = {o.name: o for o in report.objects}
            assert by_name[catalog[0].name].streams > 0
            for obj in catalog.objects[1:]:
                assert by_name[obj.name].streams == 0
                assert by_name[obj.name].total_units_minutes == 0.0

    def test_needs_a_workload_or_a_store(self, catalog):
        for store in (None, False):
            with pytest.raises(ValueError, match="workload mapping or a columnar store"):
                run_fleet(catalog, 2.0, 180.0, workload=None, store=store)

    def test_rejects_bad_geometry(self, catalog):
        with pytest.raises(ValueError):
            run_fleet(catalog, 0.0, 180.0, workload={})
        with pytest.raises(ValueError):
            run_fleet(catalog, 2.0, -1.0, workload={})

    def test_rejects_nan_delay_up_front(self, catalog, workload):
        """NaN used to fail deep in the run with "cannot convert float NaN
        to integer"."""
        with pytest.raises(ValueError, match="delay_minutes"):
            run_fleet(catalog, float("nan"), 180.0, workload=workload)

    def test_rejects_infinite_delay_up_front(self, catalog, workload):
        """inf used to fail with "arrival times must be strictly
        increasing"."""
        with pytest.raises(ValueError, match="delay_minutes"):
            run_fleet(catalog, float("inf"), 180.0, workload=workload)

    def test_rejects_non_finite_horizon_up_front(self, catalog):
        with pytest.raises(ValueError, match="horizon_minutes"):
            run_fleet(catalog, 2.0, float("inf"), workload={})

    def test_report_summaries(self, catalog, workload):
        report = run_fleet(catalog, 2.0, 180.0, workload=workload)
        assert report.clients == sum(len(t) for t in workload.values())
        assert report.streams == sum(o.streams for o in report.objects)
        assert 0.0 < report.max_startup_delay_minutes() <= 2.0
        busiest = report.busiest_objects(3)
        assert len(busiest) == 3
        assert busiest[0].total_units_minutes >= busiest[-1].total_units_minutes
        text = report.render()
        assert "peak channels" in text and busiest[0].name in text

    def test_max_startup_delay_respects_guarantee(self, catalog, workload):
        report = run_fleet(catalog, 3.0, 180.0, workload=workload)
        for o in report.objects:
            assert o.max_startup_delay_minutes <= 3.0


class TestPoolMap:
    def test_in_order_results_regardless_of_workers(self):
        from repro.fleet.runner import pool_map

        args = list(range(12))
        assert list(pool_map(_square, args, workers=0)) == [a * a for a in args]
        assert list(pool_map(_square, args, workers=2)) == [a * a for a in args]


def _square(x: int) -> int:
    return x * x


class TestFleetProfile:
    def test_profile_bounds_peak(self, catalog, workload):
        report = run_fleet(catalog, 2.0, 180.0, workload=workload)
        # bin-occupancy over-approximates, so the max never under-reports
        prof = report.profile(0.0, 240.0, 5.0)
        assert prof.max() >= report.peak_channels
        assert prof.sum() > 0
        # empty fleet profile is all zero
        empty = run_fleet(catalog, 2.0, 180.0, workload={})
        assert empty.profile(0.0, 10.0, 1.0).max() == 0

    def test_profile_validation(self, catalog):
        report = run_fleet(catalog, 2.0, 180.0, workload={})
        with pytest.raises(ValueError):
            report.profile(5.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            report.profile(0.0, 5.0, 0.0)

    def test_report_profile_equals_objectload_aggregation(self, catalog, workload):
        """The stacked fleet profile equals the sum of per-object profiles."""
        report = run_fleet(
            catalog, 2.0, 180.0,
            policy=FleetPolicy.immediate_dyadic(), workload=workload,
        )
        per_object = sum(
            interval_profile(o.starts, o.ends, 0.0, 240.0, 2.0)
            for o in report.objects
        )
        assert np.array_equal(report.profile(0.0, 240.0, resolution=2.0), per_object)
