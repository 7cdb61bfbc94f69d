"""Runner hardening: pool crash recovery and feed repair."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.burnin import WorkerKill, installed_task_fault
from repro.fleet import pool_map, sanitize_times


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 9.5, 10.0]),
                    st.floats(-1.0, 11.0),
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        ),
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
