"""Runner hardening: pool crash recovery and feed repair."""

from __future__ import annotations

import numpy as np
import pytest

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
