"""Tests for GeneralOfflinePolicy: the clairvoyant sparse-slot optimum."""

from __future__ import annotations

import pytest

from repro.arrivals import ArrivalTrace, every_slot, poisson
from repro.core.full_cost import optimal_full_cost
from repro.core.general import optimal_full_cost_general
from repro.simulation import (
    BatchedDyadicPolicy,
    GeneralOfflinePolicy,
    Simulation,
    verify_simulation,
)


class TestGeneralOfflinePolicy:
    def test_cost_matches_general_dp(self):
        trace = poisson(3.0, 120.0, seed=4)
        ends = trace.slot_end_times()
        L = 40
        res = Simulation(L, trace, GeneralOfflinePolicy(L, ends)).run()
        assert res.metrics.total_units == pytest.approx(
            optimal_full_cost_general(ends, L)
        )
        verify_simulation(res).raise_if_failed()

    def test_every_slot_reduces_to_uniform_optimum(self):
        n, L = 30, 12
        trace = every_slot(n)
        ends = trace.slot_end_times()
        res = Simulation(L, trace, GeneralOfflinePolicy(L, ends)).run()
        assert res.metrics.total_units == optimal_full_cost(L, n)

    def test_beats_batched_dyadic(self):
        trace = poisson(2.5, 150.0, seed=8)
        L = 40
        ends = trace.slot_end_times()
        res_opt = Simulation(L, trace, GeneralOfflinePolicy(L, ends)).run()
        res_dy = Simulation(L, trace, BatchedDyadicPolicy(L)).run()
        assert res_opt.metrics.total_units <= res_dy.metrics.total_units

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            GeneralOfflinePolicy(10, [])

    def test_unexpected_slot_raises(self):
        trace = ArrivalTrace(times=(0.5, 5.5), horizon=10.0)
        # claim only the first slot will be served — the second arrival
        # exposes the stale plan
        policy = GeneralOfflinePolicy(10, [1.0])
        with pytest.raises(RuntimeError):
            Simulation(10, trace, policy).run()
