"""Tests for batching, unicast and patching baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.arrivals import ArrivalTrace, constant_rate, every_slot, poisson
from repro.baselines.batching import (
    batched_dyadic_cost,
    batched_dyadic_forest,
    pure_batching_cost,
)
from repro.baselines.dyadic import DyadicParams, dyadic_cost
from repro.baselines.patching import patching_cost, recommended_window
from repro.baselines.unicast import unicast_cost

from tests.conftest import increasing_times


class TestPureBatching:
    def test_counts_non_empty_slots(self):
        t = ArrivalTrace(times=(0.2, 0.3, 5.9), horizon=10.0)
        assert pure_batching_cost(t, 7) == 2 * 7

    def test_every_slot_is_nL(self):
        t = every_slot(25)
        assert pure_batching_cost(t, 9) == 25 * 9

    def test_empty_trace(self):
        t = ArrivalTrace(times=(), horizon=10.0)
        assert pure_batching_cost(t, 7) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            pure_batching_cost(every_slot(3), 0)


class TestBatchedDyadic:
    def test_reduces_to_unbatched_on_slot_aligned(self):
        # Arrivals already on distinct slots: batched == dyadic on slot ends.
        t = ArrivalTrace(times=(0.5, 3.5, 7.5), horizon=10.0)
        params = DyadicParams()
        got = batched_dyadic_cost(t, 100, params)
        want = dyadic_cost([1.0, 4.0, 8.0], 100, params)
        assert got == want

    def test_batching_collapses_same_slot(self):
        t = ArrivalTrace(times=(0.1, 0.5, 0.9), horizon=2.0)
        f = batched_dyadic_forest(t, 100)
        assert f.num_arrivals() == 1  # one imaginary client

    def test_cheaper_than_immediate_when_dense(self):
        t = poisson(0.1, 300.0, seed=9)  # ~10 clients per slot
        params = DyadicParams()
        batched = batched_dyadic_cost(t, 100, params)
        immediate = dyadic_cost(list(t), 100, params)
        assert batched < immediate

    def test_empty_trace_rejected(self):
        t = ArrivalTrace(times=(), horizon=5.0)
        with pytest.raises(ValueError):
            batched_dyadic_forest(t, 100)

    @settings(max_examples=25, deadline=None)
    @given(increasing_times(min_size=1, max_size=40, horizon=200.0))
    def test_cost_positive_and_at_least_one_root(self, times):
        t = ArrivalTrace(times=tuple(times), horizon=200.0)
        cost = batched_dyadic_cost(t, 100)
        assert cost >= 100


class TestUnicast:
    def test_cost(self):
        t = every_slot(12)
        assert unicast_cost(t, 30) == 360

    def test_upper_bounds_everything(self):
        t = poisson(0.7, 150.0, seed=2)
        uni = unicast_cost(t, 100)
        assert dyadic_cost(list(t), 100) <= uni
        assert pure_batching_cost(t, 100) <= uni
        assert batched_dyadic_cost(t, 100) <= uni

    def test_errors(self):
        with pytest.raises(ValueError):
            unicast_cost(every_slot(3), 0)


class TestPatching:
    def test_hand_example(self):
        res = patching_cost([0.0, 1.0, 2.0, 50.0], 100, window=10.0)
        assert res.roots == 2
        assert res.patch_units == 3.0
        assert res.total == 203.0
        assert res.streams_served == 2.03

    def test_window_zero_is_unicast_roots(self):
        res = patching_cost([0.0, 1.0, 2.0], 100, window=0.0)
        assert res.roots == 3 and res.patch_units == 0.0

    def test_window_choice_tradeoff(self):
        times = [i * 0.5 for i in range(100)]
        small = patching_cost(times, 100, window=1.0).total
        good = patching_cost(times, 100, window=recommended_window(100, 0.5)).total
        assert good < small

    def test_recommended_window_clamped(self):
        assert recommended_window(10, 1000.0) == 9.0

    def test_errors(self):
        with pytest.raises(ValueError):
            patching_cost([0.0], 100, window=100.0)
        with pytest.raises(ValueError):
            patching_cost([1.0, 1.0], 100, window=5.0)
        with pytest.raises(ValueError):
            recommended_window(0, 1.0)

    def test_patching_worse_than_dyadic_merging(self):
        # patching's patches are unicast; stream merging shares them.
        times = [float(i) for i in range(50)]
        pat = patching_cost(times, 100, window=recommended_window(100, 1.0)).total
        dya = dyadic_cost(times, 100)
        assert dya < pat
