"""Store-backed fleet runs are bit-identical to in-memory runs.

The acceptance contract of the scale tier: routing a workload through
the out-of-core columnar store — at *any* writer chunk size, with any
worker count — produces the same :class:`FleetReport` as the in-memory
path, compared field-for-field and array-for-array by
:func:`repro.burnin.fleet_reports_equal`.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import poisson
from repro.burnin import fleet_reports_equal
from repro.fastpath import FlatForest
from repro.fleet import run_fleet, stored_workload
from repro.fleet.runner import _times_of
from repro.multiplex import Catalog, split_requests
from repro.scale import columnar

#: writer chunk sizes the byte-identity contract names: 1, a prime, a
#: power of two, and "everything at once"
CHUNK_SIZES = (1, 7, 64, 1 << 20)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(6, duration_minutes=45.0)


@pytest.fixture(scope="module")
def workload(catalog):
    base = poisson(0.2, 120.0, seed=31)
    return split_requests(base, catalog, seed=31)


@pytest.fixture(scope="module")
def baseline(catalog, workload):
    return run_fleet(catalog, 2.0, 120.0, workload=workload)


class TestStoreEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_spooled_store_matches_in_memory(
        self, catalog, workload, baseline, tmp_path, chunk_size
    ):
        with stored_workload(
            catalog, workload, root=tmp_path, chunk_size=chunk_size
        ):
            pass  # spooling alone must not disturb anything
        report = run_fleet(
            catalog, 2.0, 120.0, workload=workload, store=tmp_path
        )
        assert fleet_reports_equal(report, baseline) is None

    @pytest.mark.parametrize("workers", [0, 2])
    def test_existing_store_matches_in_memory(
        self, catalog, workload, baseline, tmp_path, workers
    ):
        """workload=None + a pre-written store: the parent only ever
        touches the index, workers map their own columns."""
        root = tmp_path / "prewritten"
        columnar.write_store(
            root,
            ((obj.name, _times_of(workload[obj.name])) for obj in catalog),
        )
        report = run_fleet(
            catalog, 2.0, 120.0, workload=None, store=root, workers=workers
        )
        assert fleet_reports_equal(report, baseline) is None

    def test_store_run_spools_and_cleans(self, catalog, workload, tmp_path):
        run_fleet(
            catalog, 2.0, 120.0, workload=workload, store=tmp_path, workers=2
        )
        assert glob.glob(str(tmp_path / "repro-store-*")) == []

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_parent_arrays_identical_random_workloads(
        self, tmp_path_factory, seed, chunk_size
    ):
        """Random workloads: forests built off store views equal forests
        built off in-memory arrays, parent-for-parent."""
        catalog = Catalog.zipf(3, duration_minutes=30.0)
        base = poisson(0.4, 60.0, seed=seed)
        workload = split_requests(base, catalog, seed=seed)
        ref = run_fleet(catalog, 1.5, 60.0, workload=workload)

        root = tmp_path_factory.mktemp("eq")
        report = run_fleet(
            catalog, 1.5, 60.0, workload=workload, store=root
        )
        assert fleet_reports_equal(report, ref) is None
        for a, b in zip(report.objects, ref.objects):
            assert np.array_equal(a.starts, b.starts)
            assert np.array_equal(a.ends, b.ends)

    def test_flat_forest_from_store_view_matches(self, tmp_path):
        """A FlatForest built on a read-only store view is identical to
        one built on the owning array (construction never writes)."""
        arr = np.cumsum(np.random.default_rng(3).integers(1, 5, size=200))
        arr = arr.astype(np.float64)
        par = np.full(arr.size, -1, dtype=np.intp)
        par[1:] = np.arange(arr.size - 1)  # a chain
        columnar.write_store(tmp_path, [("chain", arr)])
        with columnar.ColumnarStore(tmp_path) as store:
            view = store.column("chain")
            assert not view.flags.writeable
            f_view = FlatForest(view, par)
            f_mem = FlatForest(arr, par)
            assert f_view.equals(f_mem)
            assert np.array_equal(f_view.z, f_mem.z)
