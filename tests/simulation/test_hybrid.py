"""Tests for the Section 5 hybrid policy (DG when busy, dyadic when quiet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals import ArrivalTrace, constant_rate, every_slot, poisson
from repro.core.online import online_full_cost
from repro.simulation import DelayGuaranteedPolicy, ImmediateDyadicPolicy, Simulation
from repro.simulation.hybrid import HybridPolicy
from repro.simulation.verify import verify_simulation


def day_night_trace(busy_lam=0.25, quiet_lam=8.0, phase=300.0, phases=4, seed=0):
    times = []
    for k in range(phases):
        lam = quiet_lam if k % 2 == 0 else busy_lam
        sub = poisson(lam, phase, seed=seed + k)
        times.extend(k * phase + t for t in sub)
    return ArrivalTrace(times=tuple(sorted(times)), horizon=phases * phase)


class TestConstruction:
    def test_validation(self):
        for window in (0, 2.5, True):
            with pytest.raises(ValueError, match="window_slots"):
                HybridPolicy(10, window_slots=window)
        assert HybridPolicy(10, window_slots=np.int64(3))._recent.maxlen == 3
        with pytest.raises(ValueError):
            HybridPolicy(10, rate_low=2.0, rate_high=1.0)

    def test_starts_in_dyadic_mode(self):
        p = HybridPolicy(10)
        assert p._mode == "dyadic"


class TestModeSwitching:
    def test_switches_both_ways(self):
        trace = day_night_trace()
        policy = HybridPolicy(50, window_slots=10, rate_high=1.0, rate_low=0.4)
        res = Simulation(50, trace, policy).run()
        modes = [m for _, m in policy.mode_log]
        assert "dg" in modes and "dyadic" in modes
        verify_simulation(res).raise_if_failed()

    def test_stays_dyadic_when_sparse(self):
        trace = poisson(10.0, 400.0, seed=5)
        policy = HybridPolicy(50, window_slots=10, rate_high=1.0, rate_low=0.4)
        Simulation(50, trace, policy).run()
        assert all(m == "dyadic" for _, m in policy.mode_log)

    def test_enters_dg_when_dense(self):
        trace = constant_rate(0.2, 200.0)
        policy = HybridPolicy(50, window_slots=5, rate_high=1.0, rate_low=0.4)
        res = Simulation(50, trace, policy).run()
        assert any(m == "dg" for _, m in policy.mode_log)
        verify_simulation(res).raise_if_failed()

    def test_hysteresis_reduces_flapping(self):
        trace = poisson(1.0, 600.0, seed=9)  # rate right at the threshold
        tight = HybridPolicy(50, window_slots=10, rate_high=1.0, rate_low=0.999)
        loose = HybridPolicy(50, window_slots=10, rate_high=1.3, rate_low=0.4)
        Simulation(50, trace, tight).run()
        Simulation(50, trace, loose).run()
        assert len(loose.mode_log) <= len(tight.mode_log)


class TestCosts:
    def test_beats_pure_dg_on_mixed_load(self):
        trace = day_night_trace()
        L = 50
        res_h = Simulation(L, trace, HybridPolicy(L, window_slots=10, rate_low=0.4)).run()
        res_dg = Simulation(L, trace, DelayGuaranteedPolicy(L)).run()
        assert res_h.metrics.total_units < res_dg.metrics.total_units

    def test_matches_dg_under_saturation(self):
        """Dense constant arrivals: hybrid locks into DG; totals within the
        warm-up difference of pure DG."""
        L, n = 20, 200
        trace = constant_rate(0.1, float(n))
        policy = HybridPolicy(L, window_slots=1, rate_high=1.0, rate_low=0.0)
        res = Simulation(L, trace, policy).run()
        # window=1 and 10 clients/slot: DG mode from the first slot on
        assert [m for _, m in policy.mode_log] == ["dg"]
        assert res.metrics.total_units == online_full_cost(L, n)

    def test_matches_dyadic_when_quiet(self):
        L = 50
        trace = poisson(12.0, 500.0, seed=2)
        res_h = Simulation(L, trace, HybridPolicy(L, window_slots=10)).run()
        # pure batched-dyadic comparison: same slotting, same params
        from repro.simulation import BatchedDyadicPolicy

        res_d = Simulation(L, trace, BatchedDyadicPolicy(L)).run()
        assert res_h.metrics.total_units == res_d.metrics.total_units

    def test_all_clients_served_and_verified(self):
        trace = day_night_trace(seed=11)
        res = Simulation(50, trace, HybridPolicy(50, window_slots=10)).run()
        assert all(c.tree_label is not None for c in res.clients)
        assert res.max_startup_delay() <= 1.0
        verify_simulation(res).raise_if_failed()


class TestThresholdEdgeCases:
    """Degenerate hysteresis settings, against BOTH engines.

    Each case runs the event policy and the segmented batched kernel and
    asserts full equivalence, so the edge semantics are pinned once for
    the pair rather than per engine.
    """

    @staticmethod
    def _both(trace, L=20, **knobs):
        from repro.fleet import FleetPolicy, simulate_batched
        from tests.fleet.oracles import assert_equivalent_run, simulate_event

        policy = FleetPolicy.hybrid(**knobs)
        event = simulate_event(L, trace, policy)
        batched = simulate_batched(L, trace, policy)
        assert_equivalent_run(event, batched)
        return event, batched

    def test_equal_thresholds_flap_on_alternating_load(self):
        # rate_low == rate_high with window 1: the mode bit tracks the
        # per-slot count's threshold crossing exactly — maximal flapping.
        times = tuple(t + 0.5 for t in range(0, 20, 2))  # every other slot
        trace = ArrivalTrace(times=times, horizon=20.0)
        event, batched = self._both(
            trace, window_slots=1, rate_high=1.0, rate_low=1.0
        )
        modes = [m for _, m in batched.mode_log]
        assert modes == ["dg", "dyadic"] * (len(modes) // 2)
        assert len(batched.mode_log) == 20  # switches every slot
        assert event.mode_log == batched.mode_log

    def test_window_of_one_reacts_instantly(self):
        trace = ArrivalTrace(times=(0.5, 1.5, 8.5), horizon=12.0)
        _, batched = self._both(
            trace, window_slots=1, rate_high=1.0, rate_low=0.5
        )
        # each non-empty slot enters DG, each empty slot right after exits
        assert batched.mode_log == [
            (0, "dg"), (2, "dyadic"), (8, "dg"), (9, "dyadic")
        ]

    def test_all_empty_slots_stay_dyadic_and_silent(self):
        trace = ArrivalTrace(times=(), horizon=15.0)
        event, batched = self._both(trace, window_slots=3)
        assert batched.mode_log == [] and event.mode_log == []
        assert batched.forest is None
        assert batched.metrics.streams_started == 0

    def test_all_empty_slots_with_zero_threshold_run_dg(self):
        # rate_high = 0: DG from slot 0 even with no arrivals at all —
        # the server broadcasts every slot to nobody, by contract.
        trace = ArrivalTrace(times=(), horizon=10.0)
        event, batched = self._both(
            trace, window_slots=3, rate_high=0.0, rate_low=0.0
        )
        assert batched.mode_log == [(0, "dg")]
        assert batched.metrics.streams_started == 10
        assert (batched.client_node == -1).all()
