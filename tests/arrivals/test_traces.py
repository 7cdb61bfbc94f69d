"""Tests for ArrivalTrace slotting and statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arrivals import ArrivalTrace
from repro.baselines.batching import pure_batching_cost

from tests.conftest import increasing_times


class TestValidation:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            ArrivalTrace(times=(1.0, 1.0), horizon=5.0)
        with pytest.raises(ValueError):
            ArrivalTrace(times=(2.0, 1.0), horizon=5.0)

    def test_requires_in_window(self):
        with pytest.raises(ValueError):
            ArrivalTrace(times=(-0.1,), horizon=5.0)
        with pytest.raises(ValueError):
            ArrivalTrace(times=(5.0,), horizon=5.0)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            ArrivalTrace(times=(), horizon=0.0)

    def test_empty_ok(self):
        t = ArrivalTrace(times=(), horizon=3.0)
        assert t.is_empty()
        assert len(t) == 0
        assert math.isnan(t.mean_interarrival())

    def test_rejects_lone_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ArrivalTrace(times=(math.nan,), horizon=10.0)

    def test_rejects_interior_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ArrivalTrace(times=(0.0, math.nan, 1.0), horizon=10.0)

    def test_rejects_nan_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ArrivalTrace(times=(), horizon=math.nan)

    def test_rejects_infinite_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            ArrivalTrace(times=(1.0,), horizon=math.inf)

    def test_rejects_two_dimensional_times(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ArrivalTrace(times=[[1.0]], horizon=10.0)


class TestColumnarTimes:
    def test_times_are_a_read_only_float64_array(self):
        t = ArrivalTrace(times=(0.5, 2.0), horizon=3.0)
        assert isinstance(t.times, np.ndarray) and t.times.dtype == np.float64
        with pytest.raises(ValueError):
            t.times[0] = 1.0

    def test_array_argument_is_viewed_not_copied(self):
        source = np.array([0.25, 1.5, 2.75])
        t = ArrivalTrace(times=source, horizon=3.0)
        assert np.shares_memory(t.times, source)
        assert source.flags.writeable  # the caller's array is untouched

    def test_equality_and_hash_follow_the_values(self):
        a = ArrivalTrace(times=(0.5, 2.0), horizon=3.0)
        b = ArrivalTrace(times=np.array([0.5, 2.0]), horizon=3.0)
        assert a == b and hash(a) == hash(b)
        assert a != ArrivalTrace(times=(0.5, 2.5), horizon=3.0)
        assert a != ArrivalTrace(times=(0.5, 2.0), horizon=4.0)

    def test_iteration_yields_python_floats(self):
        t = ArrivalTrace(times=(0.5, 2.0), horizon=3.0)
        assert [type(x) for x in t] == [float, float]


class TestStats:
    def test_rate_and_mean(self):
        t = ArrivalTrace(times=(0.0, 1.0, 2.0, 3.0), horizon=8.0)
        assert t.rate() == 0.5
        assert t.mean_interarrival() == 1.0


class TestSlotting:
    def test_slot_counts(self):
        t = ArrivalTrace(times=(0.2, 0.7, 3.5), horizon=5.0)
        assert list(t.slot_counts()) == [2, 0, 0, 1, 0]

    def test_slotted(self):
        t = ArrivalTrace(times=(0.2, 0.7, 3.5), horizon=5.0)
        assert t.slotted() == [0, 3]
        assert t.slotted(keep_empty=True) == [0, 1, 2, 3, 4]
        assert t.slot_end_times() == [1.0, 4.0]

    @pytest.mark.parametrize(
        "time, horizon",
        [
            (1.7, 1.7000000000000002),
            (6.8, 6.800000000000001),
            (430.49999999999994, 430.5),
            (4.999999999999999, 5.0),
        ],
    )
    def test_arrival_one_ulp_under_the_horizon_lands_in_the_last_slot(
        self, time, horizon
    ):
        # An arrival t < horizon lies in slot floor(t) < ceil(horizon):
        # no clamp is needed, even a float step under the horizon.
        t = ArrivalTrace(times=(time,), horizon=horizon)
        n = t.num_slots()
        assert math.floor(time) == n - 1
        counts = t.slot_counts()
        assert counts.size == n and counts[-1] == 1 and counts.sum() == 1
        assert t.slotted() == [n - 1]
        assert t.slot_end_times() == [float(n)]
        assert pure_batching_cost(t, L=10) == 10

    @given(increasing_times(min_size=0, max_size=50, horizon=100.0))
    def test_counts_conserve_clients(self, times):
        t = ArrivalTrace(times=tuple(times), horizon=100.0)
        assert int(t.slot_counts().sum()) == len(times)

    @given(increasing_times(min_size=1, max_size=50, horizon=100.0))
    def test_nonempty_slots_subset_of_all(self, times):
        t = ArrivalTrace(times=tuple(times), horizon=100.0)
        nonempty = set(t.slotted())
        assert nonempty <= set(t.slotted(keep_empty=True))
        assert len(nonempty) <= len(times)


class TestSurgery:
    def test_restrict(self):
        t = ArrivalTrace(times=(1.0, 2.0, 7.0), horizon=10.0)
        sub = t.restrict(1.5, 8.0)
        assert sub.times.tolist() == [0.5, 5.5]
        assert sub.horizon == 6.5
        with pytest.raises(ValueError):
            t.restrict(5.0, 3.0)

    def test_merged_with(self):
        # shared arrivals collapse to one
        a = ArrivalTrace(times=(1.0, 3.0), horizon=5.0)
        b = ArrivalTrace(times=(2.0, 3.0), horizon=6.0)
        m = a.merged_with(b)
        assert m.times.tolist() == [1.0, 2.0, 3.0]
        assert m.horizon == 6.0

    def test_from_times(self):
        t = ArrivalTrace.from_times([0.5, 1.5], 3.0)
        assert t.times.tolist() == [0.5, 1.5]
