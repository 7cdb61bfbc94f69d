"""Tests for workload generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import bursty, constant_rate, every_slot, poisson, rng_from

from tests.arrivals.oracles import poisson_loop


class TestConstantRate:
    def test_counts(self):
        t = constant_rate(0.5, 100.0)
        assert len(t) == 200
        assert t.times[0] == 0.0
        assert t.times[1] == 0.5

    def test_offset(self):
        t = constant_rate(1.0, 5.0, offset=0.25)
        assert t.times.tolist() == [0.25, 1.25, 2.25, 3.25, 4.25]

    def test_gap_exact(self):
        t = constant_rate(2.5, 50.0)
        gaps = np.diff(t.times)
        assert np.allclose(gaps, 2.5)

    def test_errors(self):
        with pytest.raises(ValueError):
            constant_rate(0, 10.0)
        with pytest.raises(ValueError):
            constant_rate(1.0, 10.0, offset=10.0)


class TestPoisson:
    def test_seeded_reproducibility(self):
        a = poisson(1.5, 300.0, seed=11)
        b = poisson(1.5, 300.0, seed=11)
        assert a.times.tolist() == b.times.tolist()

    def test_different_seeds_differ(self):
        a = poisson(1.5, 300.0, seed=11)
        b = poisson(1.5, 300.0, seed=12)
        assert a.times.tolist() != b.times.tolist()

    def test_mean_interarrival_statistics(self):
        # With ~6000 arrivals, the sample mean is within ~5% of the target.
        t = poisson(0.5, 3000.0, seed=0)
        assert abs(t.mean_interarrival() - 0.5) < 0.025

    def test_all_in_horizon_strictly_increasing(self):
        t = poisson(0.1, 100.0, seed=3)
        arr = np.asarray(t.times)
        assert (np.diff(arr) > 0).all()
        assert arr[0] >= 0 and arr[-1] < 100.0

    def test_generator_passthrough(self):
        g = np.random.default_rng(5)
        t1 = poisson(1.0, 50.0, seed=g)
        # same generator continues its sequence -> different trace
        t2 = poisson(1.0, 50.0, seed=g)
        assert t1.times.tolist() != t2.times.tolist()

    def test_errors(self):
        with pytest.raises(ValueError):
            poisson(0, 10.0)


class ScriptedGaps(np.random.Generator):
    """A generator whose exponential draws replay ``script``, then unit gaps.

    Records the size of every draw, so a test can assert that two
    consumers drew the same blocks.
    """

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self.script = list(script)
        self.sizes = []

    def exponential(self, scale=1.0, size=None):
        self.sizes.append(size)
        head, self.script = self.script[:size], self.script[size:]
        return np.array(head + [1.0] * (size - len(head)), dtype=np.float64)


#: gaps that tie the running time: zero, subnormal, and sub-ULP at t ~ 1-40
TIE_GAPS = [0.0, 5e-324, 1e-300, 1e-17, 1e-16, 1e-15]


class TestPoissonMatchesTheLoop:
    """The blocked cumsum is the per-gap loop: same bytes, same draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.sampled_from([0.001, 0.05, 0.3, 1.5, 7.0]),
        horizon=st.sampled_from([0.5, 3.0, 40.0, 300.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_seeded_generator(self, mean, horizon, seed):
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = poisson(mean, horizon, seed=fast_rng).times
        slow = poisson_loop(mean, horizon, slow_rng)
        assert fast.tobytes() == slow.tobytes()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        script=st.lists(
            st.one_of(
                st.sampled_from(TIE_GAPS),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            max_size=60,
        ),
        horizon=st.sampled_from([0.5, 3.0, 16.0, 16.5, 40.0]),
    )
    def test_forced_ties(self, script, horizon):
        # mean 100 makes every block 16 gaps, so scripts span block ends
        fast_rng, slow_rng = ScriptedGaps(script), ScriptedGaps(script)
        fast = poisson(100.0, horizon, seed=fast_rng).times
        slow = poisson_loop(100.0, horizon, slow_rng)
        assert fast.tobytes() == slow.tobytes()
        assert fast_rng.sizes == slow_rng.sizes
        assert (np.diff(fast) > 0).all()

    def test_all_zero_gaps_nudge_upward_from_zero(self):
        fast = poisson(100.0, 1.0, seed=ScriptedGaps([0.0] * 20)).times
        slow = poisson_loop(100.0, 1.0, ScriptedGaps([0.0] * 20))
        assert fast.tobytes() == slow.tobytes()
        assert fast[0] == 0.0 and fast[1] == 5e-324

    @pytest.mark.parametrize(
        "horizon, last, drawn", [(16.0, 15.0, [16]), (16.5, 16.0, [16, 16])]
    )
    def test_horizon_crossed_exactly_at_a_block_end(self, horizon, last, drawn):
        # unit gaps reach 16.0 on the 16th gap, the last of the first block
        fast_rng, slow_rng = ScriptedGaps([]), ScriptedGaps([])
        fast = poisson(100.0, horizon, seed=fast_rng).times
        slow = poisson_loop(100.0, horizon, slow_rng)
        assert fast.tobytes() == slow.tobytes()
        assert fast_rng.sizes == slow_rng.sizes == drawn
        assert fast[-1] == last


class TestEverySlot:
    def test_canonical(self):
        t = every_slot(5)
        assert t.times.tolist() == [0, 1, 2, 3, 4]
        assert t.horizon == 5
        assert t.slotted() == [0, 1, 2, 3, 4]

    def test_errors(self):
        with pytest.raises(ValueError):
            every_slot(0)


class TestBursty:
    def test_strictly_increasing(self):
        t = bursty(1.0, 500.0, burst_size=5, burst_spread=0.5, seed=2)
        arr = np.asarray(t.times)
        assert (np.diff(arr) > 0).all()

    def test_burstiness_vs_poisson(self):
        # Variance of slot counts should exceed Poisson's at equal rate.
        b = bursty(0.5, 2000.0, burst_size=10, burst_spread=1.0, seed=4)
        p = poisson(0.5, 2000.0, seed=4)
        vb = np.var(b.slot_counts())
        vp = np.var(p.slot_counts())
        assert vb > vp

    def test_errors(self):
        with pytest.raises(ValueError):
            bursty(1.0, 10.0, burst_size=0, burst_spread=1.0)
        with pytest.raises(ValueError):
            bursty(1.0, 10.0, burst_size=2, burst_spread=0.0)


class TestRngFrom:
    def test_coercions(self):
        g = np.random.default_rng(1)
        assert rng_from(g) is g
        assert isinstance(rng_from(7), np.random.Generator)
        assert isinstance(rng_from(None), np.random.Generator)
