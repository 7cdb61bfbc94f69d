"""Committed-stream channel emission for the live tier.

The offline tiers assign channels after the fact with the heap greedy
(:func:`repro.simulation.channels.assign_channels`) or its array twin
(:func:`~repro.simulation.channels.assign_channels_flat`).  The live
daemon must emit a stream's channel the moment the stream is committed —
long before the full interval set exists — so :class:`ChannelPlanner`
runs the *same* greedy incrementally: streams are fed in start order
(which is exactly the order trees commit in: a tree's members all start
at or before its cutoff, and the next tree's root starts strictly after
it), and each stream either reuses the channel that freed up earliest
(free-time ties broken FIFO by release order, matching the oracle's
sequence-numbered heap) or opens a new one.

Because the greedy is online in start order *by definition*, the
incremental assignment is not merely close to the batch one — it is the
identical array, which ``burnin.contracts.check_live_report`` asserts
stream for stream against ``assign_channels_flat`` over the daemon's
final committed intervals, along with ``channels == peak_concurrency``
(the greedy's optimality).

The planner's whole state is one free time and one release sequence
number per channel plus two counters; :meth:`ChannelPlanner.state` and
:meth:`ChannelPlanner.resume` carry it through the daemon's resume token.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple, Union

import numpy as np

__all__ = ["ChannelPlanner"]


class ChannelPlanner:
    """Incremental first-free channel assignment (see module docstring)."""

    def __init__(self) -> None:
        # (becomes free at, release sequence, channel idx) — identical
        # key to the assign_channels heap, so pop order matches exactly.
        self._free: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._channels = 0
        self._last_start = -np.inf

    @property
    def channels(self) -> int:
        """Channels opened so far (== peak concurrency of the streams fed)."""
        return self._channels

    def state(self) -> Tuple[np.ndarray, np.ndarray, int, float]:
        """``(free_at, release_seq, seq, last_start)`` for :meth:`resume`.

        Every opened channel sits in the free heap exactly once (each
        assignment pops or opens a channel and pushes it straight back),
        so the heap is two arrays indexed by channel: when each channel
        frees up and its release sequence number.
        """
        free_at = np.empty(self._channels, dtype=np.float64)
        release_seq = np.empty(self._channels, dtype=np.int64)
        for t, rel, idx in self._free:
            free_at[idx] = t
            release_seq[idx] = rel
        return free_at, release_seq, self._seq, self._last_start

    @classmethod
    def resume(
        cls,
        free_at: np.ndarray,
        release_seq: np.ndarray,
        seq: int,
        last_start: float,
    ) -> "ChannelPlanner":
        """Rebuild a planner from :meth:`state` output.

        Heap keys are unique (release sequence numbers never repeat), so
        the sorted key list — itself a valid heap — pops in exactly the
        order the original heap would.
        """
        if free_at.shape != release_seq.shape or free_at.ndim != 1:
            raise ValueError("free_at and release_seq must be 1-D arrays of equal length")
        if not np.isfinite(free_at).all():
            raise ValueError("channel free times must be finite")
        # Distinctness on a sorted copy: the first np.unique call imports
        # numpy.ma, which takes tens of milliseconds.
        ordered = np.sort(release_seq)
        if ordered.size and (
            int(ordered[0]) < 0
            or int(ordered[-1]) >= seq
            or bool((ordered[1:] == ordered[:-1]).any())
        ):
            raise ValueError(
                f"release sequence numbers must be distinct and in [0, {seq})"
            )
        planner = cls()
        planner._free = sorted(
            zip(free_at.tolist(), release_seq.tolist(), range(free_at.size))
        )
        planner._seq = seq
        planner._channels = int(free_at.size)
        planner._last_start = last_start
        return planner

    def assign(
        self,
        starts: Union[np.ndarray, List[float]],
        ends: Union[np.ndarray, List[float]],
    ) -> np.ndarray:
        """Channel indices for one committed batch of streams.

        ``starts`` must continue the global nondecreasing start order
        across calls — the planner refuses out-of-order feeds (they
        would silently diverge from the batch greedy).
        """
        s = np.ascontiguousarray(starts, dtype=np.float64)
        e = np.ascontiguousarray(ends, dtype=np.float64)
        if s.ndim != 1 or e.ndim != 1 or s.size != e.size:
            raise ValueError("starts and ends must be 1-D arrays of equal length")
        if s.size == 0:
            return np.empty(0, dtype=np.intp)
        if not (np.isfinite(s).all() and np.isfinite(e).all()):
            raise ValueError("stream intervals must be finite")
        if np.any(e <= s):
            raise ValueError("empty or reversed stream interval")
        if s[0] < self._last_start or np.any(s[1:] < s[:-1]):
            raise ValueError(
                "streams must be fed in nondecreasing start order "
                f"(got {float(s.min())} after {self._last_start})"
            )
        out = np.empty(s.size, dtype=np.intp)
        free = self._free
        for i, (start, end) in enumerate(zip(s.tolist(), e.tolist())):
            if free and free[0][0] <= start:
                _t, _rel, idx = heapq.heappop(free)
            else:
                idx = self._channels
                self._channels += 1
            out[i] = idx
            heapq.heappush(free, (end, self._seq, idx))
            self._seq += 1
        self._last_start = float(s[-1])
        return out
