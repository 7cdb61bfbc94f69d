"""Tests for Stream lifecycle and BandwidthMetrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.metrics import BandwidthMetrics
from repro.simulation.stream import Stream


def make_stream(**kw):
    defaults = dict(
        stream_id=0,
        label=0.0,
        start=0.0,
        planned_units=10.0,
        is_root=True,
        parent_label=None,
    )
    defaults.update(kw)
    return Stream(**defaults)


class TestStream:
    def test_root_parent_consistency(self):
        with pytest.raises(ValueError):
            make_stream(is_root=True, parent_label=5.0)
        with pytest.raises(ValueError):
            make_stream(is_root=False, parent_label=None)

    def test_activity_window(self):
        s = make_stream()
        assert s.active_at(0.0)
        assert s.active_at(9.99)
        assert not s.active_at(10.0)
        assert not s.active_at(-1.0)

    def test_position(self):
        s = make_stream()
        assert s.position_at(3.5) == 3.5
        with pytest.raises(ValueError):
            s.position_at(10.5)

    def test_extension(self):
        s = make_stream()
        s.extend_to_units(15.0, now=5.0)
        assert s.planned_units == 15.0
        with pytest.raises(ValueError):
            s.extend_to_units(12.0, now=5.0)  # shrink rejected

    def test_no_resurrection(self):
        s = make_stream()
        with pytest.raises(RuntimeError):
            s.extend_to_units(20.0, now=11.0)  # already dead

    def test_extension_at_exact_end_allowed(self):
        s = make_stream()
        s.extend_to_units(12.0, now=10.0)
        assert s.planned_end == 12.0

    def test_finish(self):
        s = make_stream()
        assert s.finish(now=10.0) == 10.0
        with pytest.raises(RuntimeError):
            s.finish(now=10.0)  # double finish

    def test_finish_early_rejected(self):
        s = make_stream()
        with pytest.raises(RuntimeError):
            s.finish(now=9.0)

    def test_extend_after_finish_rejected(self):
        s = make_stream()
        s.finish(now=10.0)
        with pytest.raises(RuntimeError):
            s.extend_to_units(20.0, now=10.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            make_stream(planned_units=-1.0)


class TestBandwidthMetrics:
    def test_totals(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 10, is_root=True)
        m.record_stream(1, 4, is_root=False)
        assert m.total_units == 13
        assert m.streams_served == 1.3
        assert m.streams_started == 2
        assert m.roots_started == 1

    def test_client_average(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 10, is_root=True)
        m.record_client()
        m.record_client()
        assert m.average_bandwidth() == 5.0
        assert BandwidthMetrics(L=10).average_bandwidth() == 0.0

    def test_reversed_interval_rejected(self):
        m = BandwidthMetrics(L=10)
        with pytest.raises(ValueError):
            m.record_stream(5, 4, is_root=True)

    def test_peak_concurrency(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 10, True)
        m.record_stream(2, 5, False)
        m.record_stream(3, 4, False)
        assert m.peak_concurrency() == 3

    def test_peak_half_open_boundaries(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 5, True)
        m.record_stream(5, 10, True)  # starts exactly when first ends
        assert m.peak_concurrency() == 1

    def test_concurrency_profile(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 3, True)
        m.record_stream(1, 4, False)
        prof = m.concurrency_profile(0, 5, resolution=1.0)
        assert list(prof) == [1, 2, 2, 1, 0]

    def test_profile_validation(self):
        m = BandwidthMetrics(L=10)
        with pytest.raises(ValueError):
            m.concurrency_profile(5, 5)

    def test_summary_keys(self):
        m = BandwidthMetrics(L=10)
        m.record_stream(0, 10, True)
        m.record_client()
        s = m.summary()
        assert s["total_units"] == 10.0
        assert s["peak_concurrency"] == 1.0
        assert s["clients_served"] == 1.0

    def test_empty_metrics_vectorised_paths(self):
        m = BandwidthMetrics(L=10)
        assert m.peak_concurrency() == 0
        assert list(m.concurrency_profile(0, 5)) == [0, 0, 0, 0, 0]


class TestArrayBackedMetrics:
    """``from_arrays`` metrics read back exactly as recorded ones would."""

    @staticmethod
    def _arrays(seed, n=200):
        """Unsorted starts and continuous lengths (sums round)."""
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 50.0, size=n)
        return starts, starts + rng.uniform(0.0, 12.0, size=n)

    def test_intervals_read_back_in_end_start_order(self):
        # a coarse grid: many streams share an end but not a start
        rng = np.random.default_rng(1)
        starts = rng.integers(0, 40, size=200) * 0.5
        ends = starts + rng.integers(0, 4, size=200) * 0.5
        m = BandwidthMetrics.from_arrays(10, starts, ends, np.arange(200) < 7, 300)
        pairs = sorted(zip(starts.tolist(), ends.tolist()), key=lambda p: (p[1], p[0]))
        assert m.intervals == pairs
        assert (m.streams_started, m.roots_started, m.clients_served) == (200, 7, 300)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_total_is_the_sequential_sum_in_interval_order(self, seed):
        starts, ends = self._arrays(seed)
        m = BandwidthMetrics.from_arrays(10, starts, ends, starts < 0, 0)
        total = 0
        for s, e in m.intervals:
            total += e - s
        assert m.total_units == total
        assert m.streams_served == total / 10

    def test_same_summaries_as_recorded_metrics(self):
        starts, ends = self._arrays(4)
        fast = BandwidthMetrics.from_arrays(10, starts, ends, starts < 0, 0)
        slow = BandwidthMetrics(L=10)
        for s, e in fast.intervals:
            slow.record_stream(s, e, is_root=False)
        assert fast.total_units == slow.total_units
        assert fast.peak_concurrency() == slow.peak_concurrency()
        assert np.array_equal(
            fast.concurrency_profile(0.0, 60.0), slow.concurrency_profile(0.0, 60.0)
        )

    def test_recording_after_arrays_appends(self):
        m = BandwidthMetrics.from_arrays(
            10, np.array([2.0, 0.0]), np.array([3.0, 5.0]), np.array([True, False]), 2
        )
        m.record_stream(4.0, 4.5, is_root=True)
        assert m.intervals == [(2.0, 3.0), (0.0, 5.0), (4.0, 4.5)]
        assert m.total_units == 6.5
        assert (m.streams_started, m.roots_started) == (3, 2)


class TestVectorisedEquivalence:
    """The numpy interval paths must match the retired per-stream loops."""

    @staticmethod
    def _reference_peak(intervals):
        events = []
        for s, e in intervals:
            if e > s:
                events.append((s, 1))
                events.append((e, -1))
        events.sort(key=lambda p: (p[0], p[1]))  # ends before starts at ties
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    @staticmethod
    def _reference_profile(intervals, t0, t1, resolution):
        import numpy as np

        nbins = int(np.ceil((t1 - t0) / resolution))
        diff = np.zeros(nbins + 1, dtype=np.int64)
        for s, e in intervals:
            lo = int(np.ceil((max(s, t0) - t0) / resolution))
            hi = int(np.ceil((min(e, t1) - t0) / resolution))
            if hi > lo:
                diff[lo] += 1
                diff[hi] -= 1
        return np.cumsum(diff[:-1])

    def test_random_interval_sets(self):
        import random

        import numpy as np

        rng = random.Random(99)
        for _ in range(50):
            m = BandwidthMetrics(L=10)
            for _ in range(rng.randint(0, 60)):
                s = rng.randint(0, 40) * 0.5
                m.record_stream(s, s + rng.randint(0, 20) * 0.5, rng.random() < 0.3)
            assert m.peak_concurrency() == self._reference_peak(m.intervals)
            prof = m.concurrency_profile(0.0, 25.0, 0.75)
            want = self._reference_profile(m.intervals, 0.0, 25.0, 0.75)
            assert np.array_equal(prof, want)
