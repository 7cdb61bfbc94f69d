"""Tests for multi-object workloads: one request stream split by popularity."""

from __future__ import annotations

import numpy as np
import pytest

import repro.scale.kernels as kernels
from repro.arrivals import ArrivalTrace, poisson
from repro.multiplex import (
    Catalog,
    MediaObject,
    Workload,
    catalog_workload,
    split_requests,
)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(6, duration_minutes=120.0, exponent=0.8)


class TestSplitRequests:
    def test_conserves_requests(self, catalog):
        trace = poisson(1.0, 300.0, seed=0)
        per_object = split_requests(trace, catalog, seed=1)
        assert sum(len(t) for t in per_object.values()) == len(trace)
        assert set(per_object) == {o.name for o in catalog}

    def test_popularity_ordering_statistical(self, catalog):
        trace = poisson(0.05, 2000.0, seed=0)  # ~40k requests
        per_object = split_requests(trace, catalog, seed=2)
        counts = [len(per_object[o.name]) for o in catalog]
        # top title clearly busier than bottom title
        assert counts[0] > 2 * counts[-1]

    def test_reproducible(self, catalog):
        trace = poisson(1.0, 200.0, seed=0)
        a = split_requests(trace, catalog, seed=3)
        b = split_requests(trace, catalog, seed=3)
        assert all(a[k].times.tolist() == b[k].times.tolist() for k in a)

    def test_catalog_workload_end_to_end(self, catalog):
        wl = catalog_workload(catalog, 2.0, 400.0, seed=4)
        assert set(wl) == {o.name for o in catalog}
        assert all(t.horizon == 400.0 for t in wl.values())


class TestSplitRequestsVectorised:
    """The argsort/grouping split must reproduce the retired per-request
    Python bucket loop byte for byte (same RNG draws, same traces)."""

    @staticmethod
    def reference_split(trace, catalog, seed=None):
        """The pre-vectorisation implementation, frozen as the oracle."""
        from repro.arrivals.generators import rng_from

        rng = rng_from(seed)
        picks = rng.choice(len(catalog), size=len(trace), p=catalog.weights())
        buckets = {o.name: [] for o in catalog}
        for t, k in zip(trace, picks):
            buckets[catalog[int(k)].name].append(t)
        return {
            name: ArrivalTrace(times=tuple(times), horizon=trace.horizon)
            for name, times in buckets.items()
        }

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_byte_identical_to_reference_loop(self, seed, monkeypatch):
        """On 1-, 4-, 13- and 1000-title Zipf catalogs and a hand-weighted
        one, at ~1,200 requests (the draw's cdf is bisected) and ~120,000
        (looked up in its bucket table, for every one of these cdfs)."""
        lookups = []  # sizes of the tables whose bucket table was built
        make_walk = kernels.SortedTable._make_walk

        def spy(table):
            lookups.append(table.table.size)
            make_walk(table)

        monkeypatch.setattr(kernels.SortedTable, "_make_walk", spy)
        catalogs = [Catalog.zipf(n, duration_minutes=45.0) for n in (1, 4, 13, 1000)]
        catalogs.append(Catalog([
            MediaObject("a", 60.0, 5.0), MediaObject("b", 30.0, 0.5),
            MediaObject("c", 90.0, 3.0), MediaObject("d", 60.0, 1e-3),
            MediaObject("e", 45.0, 2.0),
        ]))
        for mean in (0.2, 0.002):
            trace = poisson(mean, 240.0, seed=99)
            for catalog in catalogs:
                fast = split_requests(trace, catalog, seed=seed)
                slow = self.reference_split(trace, catalog, seed=seed)
                assert fast.keys() == slow.keys()
                for name in fast:
                    assert fast[name].times.tolist() == slow[name].times.tolist()
                    assert fast[name].horizon == slow[name].horizon
            # the small trace bisected every cdf, the large one looked each up
            assert lookups == ([] if mean == 0.2 else [1, 4, 13, 1000, 5])

    def test_empty_trace(self):
        catalog = Catalog.zipf(4)
        empty = ArrivalTrace(times=(), horizon=10.0)
        out = split_requests(empty, catalog, seed=1)
        assert set(out) == {o.name for o in catalog}
        assert all(len(t) == 0 and t.horizon == 10.0 for t in out.values())

    def test_single_object_catalog_gets_everything(self):
        catalog = Catalog([MediaObject("only", 60.0, 1.0)])
        trace = poisson(0.5, 60.0, seed=2)
        out = split_requests(trace, catalog, seed=3)
        assert out["only"].times.tolist() == trace.times.tolist()


class TestWorkload:
    """The columnar workload: one read-only array, read by title."""

    def test_split_is_one_read_only_array(self, catalog):
        trace = poisson(1.0, 200.0, seed=0)
        wl = split_requests(trace, catalog, seed=5)
        assert isinstance(wl, Workload) and wl.names == tuple(o.name for o in catalog)
        assert not wl.times.flags.writeable and not wl.offsets.flags.writeable
        for k, name in enumerate(wl.names):
            view = wl[name]
            assert np.shares_memory(view.times, wl.times)
            assert view.times.tobytes() == wl.times[wl.offsets[k] : wl.offsets[k + 1]].tobytes()
        assert "no-such-title" not in wl and wl.get("no-such-title") is None

    def test_of_passes_a_workload_through_and_converts_a_mapping(self, catalog):
        wl = catalog_workload(catalog, 2.0, 400.0, seed=4)
        names = [o.name for o in catalog]
        assert Workload.of(names, wl) is wl
        first, last = names[0], names[-1]
        mixed = {first: wl[first], last: [3.0, 1.0, 2.0]}
        out = Workload.of(names, mixed, 400.0)
        assert out[first] == wl[first]
        assert out.times[out.offsets[-2] :].tolist() == [3.0, 1.0, 2.0]  # as given
        assert all(len(out[n]) == 0 for n in names[1:-1])  # absent titles are empty
        with pytest.raises(ValueError, match="'no-such-title' is not in the catalog"):
            Workload.of(names, {"no-such-title": [1.0]})
