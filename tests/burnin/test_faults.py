"""Fault injectors land, and the stack recovers to fault-free results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals import poisson
from repro.burnin import (
    TornArtifact,
    WorkerKill,
    check_fleet_report,
    corrupt_times,
    flash_overload,
    fleet_reports_equal,
    installed_task_fault,
)
from repro.fleet import FleetPolicy, run_fleet
from repro.fleet.runner import sanitize_times
from repro.multiplex import Catalog, split_requests
from repro.sweeps import Axis, SweepCache, SweepSpec, run_sweep
from repro.sweeps.evaluators import merge_cost_table_point

DELAY = 2.0
HORIZON = 150.0


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(6, duration_minutes=45.0)


@pytest.fixture(scope="module")
def workload(catalog):
    base = poisson(0.5, HORIZON, seed=5)
    return split_requests(base, catalog, seed=5)


class TestWorkerKillRecovery:
    def test_killed_worker_recovers_to_fault_free_result(
        self, catalog, workload, tmp_path
    ):
        """The acceptance equivalence: a worker hard-killed mid-fold must
        yield the exact fault-free report."""
        policy = FleetPolicy.batched_dyadic()
        baseline = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=workload
        )
        kill = WorkerKill(task_index=2, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            faulted = run_fleet(
                catalog, DELAY, HORIZON, policy=policy,
                workload=workload, workers=2,
            )
        assert kill.fired(), "the kill never reached a worker process"
        assert fleet_reports_equal(baseline, faulted) is None
        contracts = check_fleet_report(faulted, catalog, workload, policy)
        assert contracts.ok, contracts.render()

    def test_kill_at_every_index_recovers(self, catalog, workload, tmp_path):
        policy = FleetPolicy.batched_dyadic()
        baseline = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=workload
        )
        for index in range(len(catalog.objects)):
            kill = WorkerKill(
                task_index=index, marker_dir=str(tmp_path / f"k{index}")
            )
            (tmp_path / f"k{index}").mkdir()
            with installed_task_fault(kill):
                faulted = run_fleet(
                    catalog, DELAY, HORIZON, policy=policy,
                    workload=workload, workers=2,
                )
            assert kill.fired()
            assert fleet_reports_equal(baseline, faulted) is None

    def test_hook_restored_after_block(self, tmp_path):
        import repro.fleet.runner as runner

        kill = WorkerKill(task_index=0, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            assert runner._TASK_FAULT_HOOK is kill
        assert runner._TASK_FAULT_HOOK is None

    def test_kill_never_fires_in_parent(self, tmp_path):
        kill = WorkerKill(task_index=0, marker_dir=str(tmp_path))
        # Called in the parent process (this one): must be a no-op.
        kill(0, "arg")
        assert not kill.fired()


class TestMalformedTraceRecovery:
    def test_sanitize_recovers_exact_multiset(self, workload):
        for trace in workload.values():
            clean = np.asarray(trace.times)
            mangled = corrupt_times(clean, seed=3, horizon=HORIZON)
            recovered, repaired = sanitize_times(mangled, HORIZON)
            assert np.array_equal(recovered, clean)
            assert repaired == mangled.size - clean.size

    def test_corrupted_workload_recovers_fault_free_run(
        self, catalog, workload
    ):
        policy = FleetPolicy.batched_dyadic()
        baseline = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=workload
        )
        corrupted = {
            name: corrupt_times(
                np.asarray(trace.times), seed=i, horizon=HORIZON
            )
            for i, (name, trace) in enumerate(workload.items())
        }
        faulted = run_fleet(
            catalog, DELAY, HORIZON, policy=policy,
            workload=corrupted, workers=2,
        )
        assert faulted.repaired > 0, "the corruption never landed"
        assert fleet_reports_equal(baseline, faulted) is None

    def test_all_garbage_trace_degrades_to_quiet_object(self, catalog):
        policy = FleetPolicy.batched_dyadic()
        garbage = {
            o.name: np.array([np.nan, np.inf, -5.0, HORIZON * 2])
            for o in catalog
        }
        report = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=garbage
        )
        assert report.clients == 0
        assert report.repaired == 4 * len(catalog.objects)


class TestTornCacheRecovery:
    def _spec(self, n0: int = 1):
        return SweepSpec(
            name="torn-test",
            evaluator=merge_cost_table_point,
            axes=[Axis("n", tuple(range(n0, n0 + 6)))],
            metrics=("closed", "via_dp"),
        )

    def test_torn_reads_quarantined_and_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = self._spec()
        warm = run_sweep(spec, cache=cache)
        tear = TornArtifact(every=2)
        cache.read_hook = tear
        faulted = run_sweep(spec, cache=cache)
        cache.read_hook = None
        assert tear.corrupted > 0
        assert cache.quarantined == tear.corrupted
        assert faulted.evaluated == tear.corrupted
        assert faulted.rows() == warm.rows()
        # quarantined artifacts moved aside, fresh ones written back
        assert cache.quarantine_dir.exists()
        assert len(list(cache.quarantine_dir.glob("*.json"))) > 0
        clean = run_sweep(spec, cache=cache)
        assert clean.evaluated == 0
        assert clean.rows() == warm.rows()

    def test_every_corruption_mode_cycles(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = self._spec()
        run_sweep(spec, cache=cache)
        tear = TornArtifact(every=1)  # corrupt every read
        cache.read_hook = tear
        faulted = run_sweep(spec, cache=cache)
        assert tear.corrupted == spec.n_points  # hit all four modes
        assert cache.quarantined == spec.n_points
        assert faulted.evaluated == spec.n_points

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown corruption modes"):
            TornArtifact(modes=("melt",))


class TestFlashOverload:
    def test_surge_lands_on_target_only(self, catalog, workload):
        top = catalog.popularity_rank()[0].name
        surged = flash_overload(
            workload, top, at=HORIZON / 3, clients=300, seed=9
        )
        assert len(surged[top].times) > len(workload[top].times)
        for name in workload:
            if name != top:
                assert surged[name].times.tobytes() == workload[name].times.tobytes()
                assert surged[name].horizon == workload[name].horizon

    def test_missing_target_rejected(self, workload):
        with pytest.raises(KeyError, match="not in the workload"):
            flash_overload(workload, "no-such-object", at=1.0, clients=10)

    def test_delay_guarantee_survives_overload(self, catalog, workload):
        top = catalog.popularity_rank()[0].name
        surged = flash_overload(
            workload, top, at=HORIZON / 3, clients=300, seed=9
        )
        policy = FleetPolicy.batched_dyadic()
        report = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=surged
        )
        contracts = check_fleet_report(report, catalog, surged, policy)
        assert contracts.ok, contracts.render()
