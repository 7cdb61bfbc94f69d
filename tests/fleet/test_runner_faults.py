"""Runner hardening: pool crash recovery and feed repair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.burnin import WorkerKill, installed_task_fault
from repro.fleet import pool_map, sanitize_times
from tests.conftest import fuzz_examples

#: one feed entry: NaN, +-inf, +-0.0, the window's edges or any value near it
_feed_value = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 9.5, 10.0]),
    st.floats(-1.0, 11.0),
)


def _square(x: int) -> int:
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("task error")
    return x


class TestPoolMapCrashRecovery:
    def test_killed_worker_retried_in_process(self, tmp_path):
        kill = WorkerKill(task_index=3, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            results = list(pool_map(_square, list(range(10)), workers=2))
        assert kill.fired()
        assert results == [x * x for x in range(10)]

    def test_kill_at_first_task(self, tmp_path):
        kill = WorkerKill(task_index=0, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            results = list(pool_map(_square, list(range(6)), workers=2))
        assert kill.fired()
        assert results == [x * x for x in range(6)]

    def test_kill_at_last_task(self, tmp_path):
        kill = WorkerKill(task_index=5, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            results = list(pool_map(_square, list(range(6)), workers=2))
        assert kill.fired()
        assert results == [x * x for x in range(6)]

    def test_serial_path_runs_hook_without_kill(self, tmp_path):
        kill = WorkerKill(task_index=2, marker_dir=str(tmp_path))
        with installed_task_fault(kill):
            results = list(pool_map(_square, list(range(6)), workers=0))
        # parent-process guard: serial execution must never die
        assert not kill.fired()
        assert results == [x * x for x in range(6)]

    def test_ordinary_task_exceptions_still_propagate(self):
        with pytest.raises(ValueError, match="task error"):
            list(pool_map(_raise_on_three, list(range(6)), workers=2))


class TestSanitizeTimes:
    def test_clean_trace_untouched(self):
        clean = np.array([0.0, 1.5, 7.25])
        out, repaired = sanitize_times(clean, 10.0)
        assert np.array_equal(out, clean) and repaired == 0

    def test_all_failure_modes_repaired(self):
        times = np.array(
            [5.0, np.nan, np.inf, -np.inf, -1.0, 12.0, 5.0, 2.0, 10.0]
        )
        out, repaired = sanitize_times(times, 10.0)
        assert np.array_equal(out, [2.0, 5.0])
        assert repaired == 7

    def test_empty_input(self):
        out, repaired = sanitize_times(np.empty(0), 10.0)
        assert out.size == 0 and repaired == 0

    @pytest.mark.parametrize(
        "feed", ["clean", "shuffled", "duplicated", "nan", "out-of-window"]
    )
    def test_one_object_form_equals_sort_and_collapse(self, feed):
        """A strictly increasing feed skips the sort; every feed still
        gives ``np.unique`` of its in-window entries, bit for bit, with
        the same repaired count."""
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 10.0, 500))
        times[0] = -0.0  # a signed zero is in the window and kept as it is
        if feed == "shuffled":
            rng.shuffle(times)
        elif feed == "duplicated":
            times = np.insert(times, [7, 90, 91], times[[7, 90, 90]])
        elif feed == "nan":
            times[[3, 200]] = np.nan
        elif feed == "out-of-window":
            times = np.concatenate(([-1.0], times, [10.0, np.inf]))
        out, repaired = sanitize_times(times, 10.0)
        ok = np.isfinite(times) & (times >= 0.0) & (times < 10.0)
        want = np.unique(times[ok])
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        assert repaired == times.size - want.size
        assert out is not times and not np.shares_memory(out, times)

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(
        st.lists(st.lists(_feed_value, max_size=12), min_size=1, max_size=5),
        st.data(),
    )
    def test_repair_equals_np_unique_per_title(self, feeds, data):
        """Ragged and one-title repairs equal ``np.unique`` of each title's
        in-window entries bit for bit (signed zeros included) on feeds with
        NaN, +-inf, +-0.0, duplicates and reversals."""
        feeds = [
            f[::-1] if data.draw(st.booleans(), label=f"reverse {k}") else f
            for k, f in enumerate(feeds)
        ]
        times = np.array([t for f in feeds for t in f], dtype=np.float64)
        offsets = np.cumsum([0] + [len(f) for f in feeds])
        out, repaired, bounds = sanitize_times(times, 10.0, offsets)
        for k, feed in enumerate(feeds):
            ts = np.array(feed, dtype=np.float64)
            want = np.unique(ts[np.isfinite(ts) & (ts >= 0.0) & (ts < 10.0)])
            got = out[bounds[k] : bounds[k + 1]]
            assert got.tobytes() == want.tobytes()
            assert repaired[k] == ts.size - want.size
            alone, alone_repaired = sanitize_times(ts, 10.0)
            assert alone.tobytes() == want.tobytes() and alone_repaired == repaired[k]

    @pytest.mark.parametrize(
        "offsets",
        [[0, 5], np.array([0.0, 4.0]), [0, 3, 1, 4], [1, 4], [0, -1, 4]],
        ids=["past-the-end", "float", "decreasing", "not-from-zero", "negative"],
    )
    def test_malformed_offsets_rejected(self, offsets):
        """Offsets that do not run non-decreasing from 0 to the feed's
        size raise ``ValueError``, as every ragged entry point does."""
        with pytest.raises(ValueError, match="offsets must run non-decreasing"):
            sanitize_times(np.array([1.0, 2.0, 3.0, 4.0]), 10.0, offsets)

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(st.lists(_feed_value, max_size=12), st.data())
    def test_hostile_offsets_repair_or_raise_value_error(self, feed, data):
        """On any offsets — well-formed cuts, or integer and float arrays
        of any values, order and shape — the repair equals ``np.unique``
        of each title's in-window entries, or the call raises
        ``ValueError``; never another exception."""
        times = np.array(feed, dtype=np.float64)
        n = times.size
        cuts = st.lists(st.integers(0, n), max_size=4).map(lambda c: [0, *sorted(c), n])
        hostile = hnp.arrays(
            st.sampled_from([np.int8, np.int64, np.uint8, np.uint64, np.float64]),
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
            elements=st.integers(0, n + 2) | st.sampled_from([0, n]),
        )
        offsets = data.draw(
            st.one_of(
                cuts.map(np.array),
                st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-2, n + 2),
                         max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
                st.lists(st.floats() | st.sampled_from([0.0, float(n)]),
                         max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
                hostile,
            ),
            label="offsets",
        )
        try:
            out, repaired, bounds = sanitize_times(times, 10.0, offsets)
        except ValueError:
            return
        cut = offsets.tolist()
        assert len(bounds) == len(cut) and len(repaired) == len(cut) - 1
        for k, (lo, hi) in enumerate(zip(cut[:-1], cut[1:])):
            ts = times[lo:hi]
            want = np.unique(ts[np.isfinite(ts) & (ts >= 0.0) & (ts < 10.0)])
            assert out[bounds[k] : bounds[k + 1]].tobytes() == want.tobytes()
            assert repaired[k] == ts.size - want.size
