"""Columnar-store shipping under faults: cleanup on every exit path.

The store-backed runner owns the only shipping state that can leak:
the on-disk spool directory is removed on clean exit, on an exception in
the fold, on generator abandonment, and when a worker is hard-killed at
*any* point of the run — and a killed worker never changes the folded
report (the in-process retry recovers it bit-identically).
"""

from __future__ import annotations

import gc
import glob

import numpy as np
import pytest

from repro.arrivals import poisson
from repro.burnin import WorkerKill, fleet_reports_equal, installed_task_fault
from repro.fleet import iter_fleet, run_fleet, stored_workload
from repro.multiplex import Catalog, split_requests
from repro.scale import columnar


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(4, duration_minutes=30.0)


@pytest.fixture(scope="module")
def workload(catalog):
    base = poisson(1.0, 60.0, seed=2)
    return split_requests(base, catalog, seed=2)


def _spools(root) -> list:
    return glob.glob(str(root / "repro-store-*"))


class TestStoredWorkloadCleanup:
    def test_clean_exit_removes_spool(self, catalog, workload, tmp_path):
        with stored_workload(catalog, workload, root=tmp_path) as slices:
            assert len(_spools(tmp_path)) == 1
            assert set(slices) == {obj.name for obj in catalog}
            for obj in catalog:
                got = columnar.read_slice(slices[obj.name], copy=True)
                assert np.all(np.diff(got) >= 0)  # sanitized: sorted
        assert _spools(tmp_path) == []

    def test_exception_path_removes_spool(self, catalog, workload, tmp_path):
        with pytest.raises(RuntimeError, match="mid-fold"):
            with stored_workload(catalog, workload, root=tmp_path):
                assert len(_spools(tmp_path)) == 1
                raise RuntimeError("mid-fold")
        assert _spools(tmp_path) == []

    def test_iter_fleet_abandonment_removes_spool(
        self, catalog, workload, tmp_path
    ):
        it = iter_fleet(
            catalog, 2.0, 60.0, workload=workload, store=tmp_path
        )
        first = next(it)
        assert first.name == catalog[0].name
        assert len(_spools(tmp_path)) == 1
        it.close()  # abandon mid-iteration: finally must tear down
        assert _spools(tmp_path) == []

    def test_iter_fleet_gc_removes_spool(self, catalog, workload, tmp_path):
        it = iter_fleet(
            catalog, 2.0, 60.0, workload=workload, store=tmp_path
        )
        next(it)
        del it  # dropped reference, never exhausted
        gc.collect()
        assert _spools(tmp_path) == []

    def test_empty_workload_spools_and_cleans(self, catalog, tmp_path):
        report = run_fleet(
            catalog, 2.0, 60.0, workload={}, store=tmp_path
        )
        assert report.clients == 0
        assert _spools(tmp_path) == []


class TestKillAtEveryIndex:
    """Hard-kill a worker at every fold index of a store-backed sharded
    run: each run must still fold the clean report and leave no spool."""

    def test_kill_sweep_preserves_report_and_cleanup(
        self, catalog, workload, tmp_path
    ):
        clean = run_fleet(catalog, 2.0, 60.0, workload=workload)
        for index in range(len(catalog)):
            marker_dir = tmp_path / f"markers-{index}"
            marker_dir.mkdir()
            spool_root = tmp_path / f"spool-{index}"
            kill = WorkerKill(task_index=index, marker_dir=str(marker_dir))
            with installed_task_fault(kill):
                report = run_fleet(
                    catalog, 2.0, 60.0, workload=workload,
                    workers=2, store=spool_root,
                )
            assert kill.fired(), f"kill at index {index} never fired"
            assert fleet_reports_equal(report, clean) is None, (
                f"kill at index {index} changed the folded report"
            )
            assert _spools(spool_root) == [], (
                f"kill at index {index} leaked the spool directory"
            )

    def test_kill_with_existing_store(self, catalog, workload, tmp_path):
        """Crash against a pre-written store: the store (user data, not a
        spool) must survive, and the retry must still read it."""
        from repro.fleet.runner import _times_of

        root = tmp_path / "store"
        columnar.write_store(
            root,
            ((obj.name, _times_of(workload[obj.name])) for obj in catalog),
        )
        clean = run_fleet(catalog, 2.0, 60.0, workload=workload)
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        kill = WorkerKill(task_index=0, marker_dir=str(marker_dir))
        with installed_task_fault(kill):
            report = run_fleet(
                catalog, 2.0, 60.0, workload=None, store=root, workers=2
            )
        assert kill.fired()
        assert fleet_reports_equal(report, clean) is None
        assert columnar.is_store(root)  # an input store is never deleted
        with columnar.ColumnarStore(root) as store:
            store.verify(deep=True)
