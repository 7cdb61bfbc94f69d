"""``assign_channels_flat`` vs. the greedy heap oracle, the
``ChannelAssignment`` bugfixes (horizon-clipped utilisation, indexed
``channel_of``), and the bin-occupancy ``interval_profile`` against the
vectorised ``peak_concurrency`` and the frozen event-sweep peak."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.full_cost import build_optimal_forest
from repro.core.online import build_online_flat_forest
from repro.simulation.channels import (
    StreamInterval,
    assign_channels,
    assign_channels_flat,
    assign_forest_channels,
    flat_forest_intervals,
    forest_intervals,
    interval_profile,
    min_forest_channels,
    peak_concurrency,
)


def iv(label, start, end):
    return StreamInterval(label=label, start=start, end=end)


def sweep_peak(starts, ends):
    """The pre-vectorisation event-sweep peak (oracle).

    Keep in sync with ``reference_aggregate_peak`` in
    ``benchmarks/bench_general.py`` (same frozen sweep; benchmarks are
    not importable from here without path games, so the few lines are
    duplicated deliberately).
    """
    events = [(s, 1) for s in starts] + [(e, -1) for e in ends]
    events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at ties
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


#: integer endpoints — duplicate start/end times everywhere (the heap's
#: tie-break order is exercised hard)
tied_intervals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=0,
    max_size=40,
)

#: float endpoints — realistically tie-free
loose_intervals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=12.0, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)


class TestAgainstHeapOracle:
    @settings(max_examples=120, deadline=None)
    @given(tied_intervals)
    def test_channel_for_channel_with_ties(self, raw):
        self._assert_matches(raw)

    @settings(max_examples=120, deadline=None)
    @given(loose_intervals)
    def test_channel_for_channel_float_times(self, raw):
        self._assert_matches(raw)

    @staticmethod
    def _assert_matches(raw):
        starts = np.array([s for s, _ in raw], dtype=np.float64)
        ends = np.array([s + d for s, d in raw], dtype=np.float64)
        ch = assign_channels_flat(starts, ends)
        oracle = assign_channels(
            [iv(i, s, e) for i, (s, e) in enumerate(zip(starts, ends))]
        )
        oracle.validate()
        assert ch.shape == starts.shape
        for i in range(len(raw)):
            assert int(ch[i]) == oracle.channel_of(i)
        if len(raw):
            assert int(ch.max()) + 1 == oracle.num_channels
            assert oracle.num_channels == peak_concurrency(starts, ends)

    def test_empty(self):
        assert assign_channels_flat([], []).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_channels_flat([0.0], [0.0])  # empty interval
        with pytest.raises(ValueError):
            assign_channels_flat([0.0, 1.0], [2.0])  # length mismatch
        with pytest.raises(ValueError):
            assign_channels_flat([0.0], [float("nan")])


class TestForestRoundTrip:
    @pytest.mark.parametrize("L,n", [(15, 8), (15, 57), (10, 100)])
    def test_schedule_identical_to_heap_path(self, L, n):
        forest = build_optimal_forest(L, n)
        via_heap = assign_channels(forest_intervals(forest, L))
        via_flat = assign_forest_channels(forest, L)
        assert via_flat.channels == via_heap.channels

    def test_flat_round_trip_through_channel_of(self):
        # The per-stream index array and the rendered assignment agree via
        # the label -> channel dict.
        L, n = 500, 5000
        flat = build_online_flat_forest(L, n)
        labels, starts, ends = flat_forest_intervals(flat, L)
        ch = assign_channels_flat(starts, ends)
        assignment = assign_forest_channels(flat, L)
        for label, c in zip(labels.tolist(), ch.tolist()):
            assert assignment.channel_of(label) == c
        assert assignment.num_channels == min_forest_channels(flat, L)


class TestChannelAssignmentFixes:
    def test_channel_of_indexed_lookup(self):
        a = assign_channels([iv(1, 0, 5), iv(2, 5, 9), iv(3, 2, 4)])
        # stream 3 overlaps 1 -> channel 1; stream 2 reuses the earliest
        # freed channel, which is 1 (free at 4) rather than 0 (free at 5).
        for _ in range(2):  # second pass hits the cached dict
            assert a.channel_of(1) == 0
            assert a.channel_of(3) == a.channel_of(2) == 1
        with pytest.raises(KeyError):
            a.channel_of(99)

    def test_utilisation_clips_to_horizon(self):
        # Regression: streams outliving the horizon used to push the busy
        # fraction above 1.0.
        a = assign_channels([iv(1, 0, 20)])
        assert a.utilisation(10.0) == 1.0
        a2 = assign_channels([iv(1, 0, 20), iv(2, 5, 40)])
        assert a2.utilisation(10.0) == 0.75  # ch0 busy 10/10, ch1 busy 5/10

    def test_utilisation_clips_negative_start(self):
        a = assign_channels([iv(1, -5.0, 5.0)])
        assert a.utilisation(10.0) == 0.5

    @settings(max_examples=60, deadline=None)
    @given(tied_intervals, st.integers(min_value=1, max_value=40))
    def test_utilisation_never_exceeds_one(self, raw, horizon):
        a = assign_channels([iv(i, s, s + d) for i, (s, d) in enumerate(raw)])
        assert 0.0 <= a.utilisation(float(horizon)) <= 1.0


class TestLazyArrayAssignment:
    """``assign_forest_channels`` is array-backed: no ``StreamInterval``
    objects exist until ``.channels`` is read, and every query must match
    the object-list oracle (:func:`assign_channels`)."""

    def _pair(self, L=15, n=57):
        forest = build_optimal_forest(L, n)
        flat = assign_forest_channels(forest, L)
        oracle = assign_channels(forest_intervals(forest, L))
        return flat, oracle, forest, L

    def test_no_objects_before_channels_is_read(self):
        flat, _oracle, _forest, _L = self._pair()
        assert flat._channels is None  # still lazy
        assert flat.num_channels > 0  # answered from arrays
        assert flat._channels is None

    def test_channel_of_matches_oracle(self):
        flat, oracle, forest, L = self._pair()
        for label in flat_forest_intervals(forest, L)[0].tolist():
            assert flat.channel_of(label) == oracle.channel_of(label)
        assert flat._channels is None  # lookups never materialised objects
        with pytest.raises(KeyError):
            flat.channel_of(-123.0)

    def test_utilisation_matches_oracle(self):
        flat, oracle, _forest, _L = self._pair()
        for horizon in (10.0, 57.0, 200.0):
            assert flat.utilisation(horizon) == pytest.approx(
                oracle.utilisation(horizon), rel=1e-12
            )
        assert flat.utilisation(0.0) == 0.0
        assert flat._channels is None

    def test_materialised_channels_equal_oracle(self):
        flat, oracle, _forest, _L = self._pair()
        assert flat.channels == oracle.channels  # property builds lazily
        assert flat._channels is not None
        assert flat.render() == oracle.render()

    def test_validate_on_arrays_accepts_greedy_and_rejects_overlap(self):
        from repro.simulation.channels import ChannelAssignment

        flat, _oracle, _forest, _L = self._pair()
        flat.validate()  # greedy plan is overlap-free, still lazy
        assert flat._channels is None

        bad = ChannelAssignment.from_arrays(
            labels=np.array([1.0, 2.0]),
            starts=np.array([0.0, 3.0]),
            ends=np.array([5.0, 8.0]),
            channel=np.array([0, 0]),
        )
        with pytest.raises(AssertionError, match="overlap"):
            bad.validate()

    def test_empty_assignment(self):
        from repro.simulation.channels import ChannelAssignment

        empty = ChannelAssignment.from_arrays(
            labels=np.empty(0),
            starts=np.empty(0),
            ends=np.empty(0),
            channel=np.empty(0, dtype=np.intp),
        )
        assert empty.num_channels == 0
        assert empty.utilisation(10.0) == 0.0
        assert empty.channels == []


class TestIntervalProfile:
    """Bin-occupancy semantics: a stream touching a bin counts for the
    whole bin, so the profile can exceed — never undercut — the peak."""

    def test_short_stream_counts_in_profile(self):
        # Regression: ceil on both bin edges made any stream shorter than
        # the resolution vanish from the profile entirely.
        starts, ends = np.array([0.2]), np.array([0.8])
        prof = interval_profile(starts, ends, 0.0, 1.0, resolution=1.0)
        assert prof.tolist() == [1]
        assert prof.max() >= peak_concurrency(starts, ends)

    def test_profile_over_approximates_peak(self):
        starts, ends = np.array([0.0, 1.6]), np.array([1.5, 3.0])  # never concurrent
        prof = interval_profile(starts, ends, 0.0, 3.0, resolution=1.0)
        assert peak_concurrency(starts, ends) == 1
        assert prof.max() == 2  # both touch bin [1, 2)

    def test_profile_exact_on_bin_aligned_ends(self):
        # DG envelope endpoints are whole slots: at slot resolution every
        # bin edge is an event time, so the profile is exact.
        _labels, starts, ends = build_online_flat_forest(8, 32).intervals(8)
        prof = interval_profile(starts, ends, 0.0, float(ends.max()), 1.0)
        assert prof.max() == peak_concurrency(starts, ends)

    def test_profile_validation(self):
        empty = np.empty(0)
        with pytest.raises(ValueError):
            interval_profile(empty, empty, 10.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            interval_profile(empty, empty, 0.0, 5.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=1, max_value=80),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.1, max_value=7.0, allow_nan=False),
    )
    def test_profile_max_dominates_peak_randomized(self, raw, resolution):
        starts = np.array([s / 3.0 for s, _ in raw])
        ends = np.array([(s + d) / 3.0 for s, d in raw])
        t1 = float(ends.max()) + resolution
        prof = interval_profile(starts, ends, 0.0, t1, resolution=resolution)
        peak = peak_concurrency(starts, ends)
        assert prof.max() >= peak
        assert peak == sweep_peak(starts.tolist(), ends.tolist())
