"""Integration tests: simulation runs equal analytic costs for every policy."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.arrivals import ArrivalTrace, constant_rate, every_slot, poisson
from repro.baselines.batching import batched_dyadic_cost, pure_batching_cost
from repro.baselines.dyadic import DyadicOnline, DyadicParams, dyadic_forest
from repro.baselines.unicast import unicast_cost
from repro.core.full_cost import optimal_full_cost
from repro.core.online import online_full_cost, online_tree_size
from repro.simulation import (
    BatchedDyadicPolicy,
    DelayGuaranteedPolicy,
    HybridPolicy,
    ImmediateDyadicPolicy,
    OfflineOptimalPolicy,
    PureBatchingPolicy,
    Simulation,
    UnicastPolicy,
    verify_simulation,
)


class TestDelayGuaranteed:
    @pytest.mark.parametrize(
        "L,n", [(15, 8), (15, 57), (20, 100), (7, 33), (100, 10_000)]
    )
    def test_cost_equals_analytic_A(self, L, n):
        res = Simulation(L, every_slot(n), DelayGuaranteedPolicy(L)).run()
        assert res.metrics.total_units == online_full_cost(L, n)
        verify_simulation(res).raise_if_failed()

    def test_intensity_independence(self):
        """DG cost depends only on the horizon, never on the arrivals."""
        L, horizon = 20, 57.0
        dense = poisson(0.2, horizon, seed=0)
        sparse = poisson(10.0, horizon, seed=0)
        r_dense = Simulation(L, dense, DelayGuaranteedPolicy(L)).run()
        r_sparse = Simulation(L, sparse, DelayGuaranteedPolicy(L)).run()
        assert r_dense.metrics.total_units == r_sparse.metrics.total_units
        assert r_dense.metrics.total_units == online_full_cost(L, 57)

    def test_startup_delay_bounded_by_slot(self):
        L = 15
        trace = poisson(0.7, 40.0, seed=3)
        res = Simulation(L, trace, DelayGuaranteedPolicy(L)).run()
        assert 0 < res.max_startup_delay() <= 1.0
        for c in res.clients:
            assert c.service_time == float(int(c.arrival)) + 1.0

    def test_roots_every_fh(self):
        L, n = 15, 40
        res = Simulation(L, every_slot(n), DelayGuaranteedPolicy(L)).run()
        fh = online_tree_size(L)
        roots = sorted(s.label for s in res.streams.values() if s.is_root)
        assert roots == [float(k * fh + 1) for k in range(-(-n // fh))]


class TestOfflineOptimal:
    @pytest.mark.parametrize("L,n", [(15, 8), (15, 14), (4, 16), (10, 60)])
    def test_cost_equals_F(self, L, n):
        res = Simulation(L, every_slot(n), OfflineOptimalPolicy(L, n)).run()
        assert res.metrics.total_units == optimal_full_cost(L, n)
        verify_simulation(res).raise_if_failed()

    def test_beats_or_ties_online(self):
        L, n = 12, 95
        off = Simulation(L, every_slot(n), OfflineOptimalPolicy(L, n)).run()
        onl = Simulation(L, every_slot(n), DelayGuaranteedPolicy(L)).run()
        assert off.metrics.total_units <= onl.metrics.total_units


class TestImmediateDyadic:
    def test_cost_matches_forest(self):
        trace = poisson(0.9, 120.0, seed=5)
        params = DyadicParams()
        res = Simulation(100, trace, ImmediateDyadicPolicy(100, params)).run()
        want = dyadic_forest(list(trace), 100, params).full_cost(100)
        assert abs(res.metrics.total_units - want) < 1e-6
        verify_simulation(res, continuous=True).raise_if_failed()

    def test_zero_startup_delay(self):
        trace = poisson(1.5, 60.0, seed=8)
        res = Simulation(100, trace, ImmediateDyadicPolicy(100)).run()
        assert res.max_startup_delay() == 0.0

    def test_alpha2_variant(self):
        trace = constant_rate(0.8, 90.0)
        params = DyadicParams(alpha=2.0, beta=0.5)
        res = Simulation(100, trace, ImmediateDyadicPolicy(100, params)).run()
        want = dyadic_forest(list(trace), 100, params).full_cost(100)
        assert abs(res.metrics.total_units - want) < 1e-6


class TestBatchedDyadic:
    def test_cost_matches_analytic(self):
        trace = poisson(1.3, 150.0, seed=6)
        params = DyadicParams()
        res = Simulation(100, trace, BatchedDyadicPolicy(100, params)).run()
        want = batched_dyadic_cost(trace, 100, params)
        assert abs(res.metrics.total_units - want) < 1e-6
        verify_simulation(res).raise_if_failed()

    def test_empty_slots_start_nothing(self):
        trace = ArrivalTrace(times=(0.5, 10.5), horizon=20.0)
        res = Simulation(100, trace, BatchedDyadicPolicy(100)).run()
        assert res.metrics.streams_started == 2

    def test_all_clients_assigned(self):
        trace = poisson(0.4, 80.0, seed=7)
        res = Simulation(100, trace, BatchedDyadicPolicy(100)).run()
        assert all(c.tree_label is not None for c in res.clients)
        # clients in the same slot share a stream
        by_slot = {}
        for c in res.clients:
            by_slot.setdefault(int(c.arrival), set()).add(c.tree_label)
        assert all(len(s) == 1 for s in by_slot.values())


class TestDyadicBuilderMemory:
    @pytest.mark.parametrize(
        "policy", [ImmediateDyadicPolicy, BatchedDyadicPolicy, HybridPolicy]
    )
    def test_closed_trees_are_released(self, policy, monkeypatch):
        """The event policies only ``push``: once its cutoff passes, a
        tree is referenced by nothing, so a long run keeps one tree
        alive, not every tree it placed."""
        first = []
        push = DyadicOnline.push

        def spy(self, t):
            node = push(self, t)
            if not first:
                first.append(weakref.ref(node))
            return node

        monkeypatch.setattr(DyadicOnline, "push", spy)
        L = 20
        served = policy(L)  # the policy, and its builder, outlive the run
        res = Simulation(L, poisson(2.0, 400.0, seed=4), served).run()
        assert res.metrics.total_units > 0 and first
        gc.collect()
        assert first[0]() is None


class TestSimplePolicies:
    def test_pure_batching(self):
        trace = poisson(2.2, 100.0, seed=4)
        res = Simulation(50, trace, PureBatchingPolicy(50)).run()
        assert res.metrics.total_units == pure_batching_cost(trace, 50)
        assert res.metrics.roots_started == res.metrics.streams_started

    def test_unicast(self):
        trace = poisson(2.2, 100.0, seed=4)
        res = Simulation(50, trace, UnicastPolicy(50)).run()
        assert res.metrics.total_units == unicast_cost(trace, 50)
        assert res.metrics.streams_started == len(trace)


class TestCostOrdering:
    def test_policy_hierarchy_dense_arrivals(self):
        """For dense arrivals: offline <= DG, merging << batching << unicast."""
        L, horizon = 20, 80.0
        trace = poisson(0.3, horizon, seed=11)
        n = 80
        costs = {}
        costs["offline"] = Simulation(L, trace, OfflineOptimalPolicy(L, n)).run().metrics.total_units
        costs["dg"] = Simulation(L, trace, DelayGuaranteedPolicy(L)).run().metrics.total_units
        costs["batch"] = Simulation(L, trace, PureBatchingPolicy(L)).run().metrics.total_units
        costs["unicast"] = Simulation(L, trace, UnicastPolicy(L)).run().metrics.total_units
        assert costs["offline"] <= costs["dg"] < costs["batch"] < costs["unicast"]


class TestSimulationPlumbing:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            Simulation(0, every_slot(5), DelayGuaranteedPolicy(5))

    def test_duplicate_stream_label_rejected(self):
        sim = Simulation(10, every_slot(3), DelayGuaranteedPolicy(10))
        sim.start_stream(1.0, planned_units=10)
        with pytest.raises(ValueError):
            sim.start_stream(1.0, planned_units=10)

    def test_forest_reconstruction_roundtrip(self):
        L, n = 15, 20
        res = Simulation(L, every_slot(n), DelayGuaranteedPolicy(L)).run()
        forest = res.forest()
        assert forest.num_arrivals() == n
        assert forest.full_cost(L) == res.metrics.total_units

    def test_empty_run_and_dangling_parent_rejected(self):
        res = Simulation(10, ArrivalTrace(times=(), horizon=5.0), UnicastPolicy(10)).run()
        with pytest.raises(ValueError, match="no streams"):
            res.flat_forest()
        res2 = Simulation(
            10, ArrivalTrace(times=(1.5,), horizon=5.0), UnicastPolicy(10)
        ).run()
        object.__setattr__(res2.streams[1.5], "parent_label", 99.0)
        object.__setattr__(res2.streams[1.5], "is_root", False)
        with pytest.raises(ValueError, match="parent label"):
            res2.flat_forest()

    def test_flat_forest_matches_object_view(self):
        from repro.fastpath.flat_forest import FlatForest

        L = 100
        trace = poisson(0.9, 60.0, seed=21)
        res = Simulation(L, trace, ImmediateDyadicPolicy(L)).run()
        flat = res.flat_forest()
        assert flat.equals(FlatForest.from_forest(res.forest()))
        # and the run's forest is node-for-node the dyadic oracle's
        want = FlatForest.from_forest(dyadic_forest(list(trace), L))
        assert flat.equals(want)

    def test_policy_base_class_raises(self):
        from repro.simulation.policies import Policy

        p = Policy()
        with pytest.raises(NotImplementedError):
            p.on_arrival(None, None)
        with pytest.raises(NotImplementedError):
            p.on_slot_end(0, [], None)
