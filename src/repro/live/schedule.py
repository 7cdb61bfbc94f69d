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

One planner serves a whole catalog: each title has its own heap and
counters, and the daemon makes one :meth:`ChannelPlanner.assign` call per
committing epoch, with that epoch's streams laid titles end to end.  The
call validates the batch once and runs every committing title's greedy
in one Python loop.  ``ChannelPlanner()`` is the one-title planner.

Each title's state is one free time and one release sequence number per
channel plus two counters; :meth:`ChannelPlanner.state` and
:meth:`ChannelPlanner.resume` carry it through the daemon's resume token.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.validation import check_offsets

__all__ = ["ChannelPlanner"]


class ChannelPlanner:
    """Incremental first-free channel assignment for ``titles`` titles
    (see module docstring)."""

    def __init__(self, titles: int = 1) -> None:
        # Per title, a heap of (becomes free at, release sequence, channel
        # idx) — identical key to the assign_channels heap, so pop order
        # matches exactly.
        self._free: List[List[Tuple[float, int, int]]] = [[] for _ in range(titles)]
        self._seq = [0] * titles
        self._channels = [0] * titles
        self._last_start = np.full(titles, -np.inf)

    @property
    def channels(self) -> int:
        """Channels opened so far over every title (for one title, the
        peak concurrency of the streams fed)."""
        return sum(self._channels)

    def state(self, title: int = 0) -> Tuple[np.ndarray, np.ndarray, int, float]:
        """``(free_at, release_seq, seq, last_start)`` of one title, for
        :meth:`resume`.

        Every opened channel sits in its title's free heap exactly once
        (each assignment pops or opens a channel and pushes it straight
        back), so the heap is two arrays indexed by channel: when each
        channel frees up and its release sequence number.
        """
        free_at = np.empty(self._channels[title], dtype=np.float64)
        release_seq = np.empty(self._channels[title], dtype=np.int64)
        for t, rel, idx in self._free[title]:
            free_at[idx] = t
            release_seq[idx] = rel
        return free_at, release_seq, self._seq[title], float(self._last_start[title])

    def resume(
        self,
        title: int,
        free_at: np.ndarray,
        release_seq: np.ndarray,
        seq: int,
        last_start: float,
    ) -> None:
        """Set one title's state from :meth:`state` output.

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
        self._free[title] = sorted(
            zip(free_at.tolist(), release_seq.tolist(), range(free_at.size))
        )
        self._seq[title] = seq
        self._channels[title] = int(free_at.size)
        self._last_start[title] = last_start

    def assign(
        self,
        starts: Union[np.ndarray, List[float]],
        ends: Union[np.ndarray, List[float]],
        offsets: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Channel indices for one committed batch of streams.

        With ``offsets`` (one bound per title and one more), title ``k``'s
        streams are ``starts[offsets[k]:offsets[k + 1]]``; without, the
        planner has one title and the batch is all of it.  Each title's
        starts must continue its nondecreasing start order across calls —
        the planner refuses out-of-order feeds (they would silently diverge
        from the batch greedy), and a refused batch changes no state.
        """
        s = np.ascontiguousarray(starts, dtype=np.float64)
        e = np.ascontiguousarray(ends, dtype=np.float64)
        if s.ndim != 1 or e.ndim != 1 or s.size != e.size:
            raise ValueError("starts and ends must be 1-D arrays of equal length")
        titles = len(self._free)
        if offsets is None:
            if titles != 1:
                raise ValueError(f"a {titles}-title planner needs offsets")
            offsets = (0, s.size)
        bounds = check_offsets(offsets, s.size)
        if bounds.size != titles + 1:
            raise ValueError(f"offsets must hold {titles + 1} bounds")
        if s.size == 0:
            return np.empty(0, dtype=np.intp)
        if not (np.isfinite(s).all() and np.isfinite(e).all()):
            raise ValueError("stream intervals must be finite")
        if (e <= s).any():
            raise ValueError("empty or reversed stream interval")
        fed_titles = np.flatnonzero(bounds[1:] > bounds[:-1])
        heads, tails = bounds[fed_titles], bounds[fed_titles + 1]
        # each start against the one before it in its title: the previous
        # stream of the batch, or the title's last start of earlier calls
        before = np.empty_like(s)
        before[1:] = s[:-1]
        before[heads] = self._last_start[fed_titles]
        late = np.flatnonzero(s < before)
        if late.size:
            i = int(late[0])
            raise ValueError(
                "streams must be fed in nondecreasing start order "
                f"(got {float(s[i])} after {float(before[i])})"
            )
        out: List[int] = []
        emit, push, replace = out.append, heapq.heappush, heapq.heapreplace
        fed, freed = s.tolist(), e.tolist()
        for k, lo, hi in zip(fed_titles.tolist(), heads.tolist(), tails.tolist()):
            free, seq, opened = self._free[k], self._seq[k], self._channels[k]
            for start, end in zip(fed[lo:hi], freed[lo:hi]):
                if free and free[0][0] <= start:
                    # pop-then-push in one sift; keys are unique, so every
                    # later pop is the one the two calls would give
                    idx = free[0][2]
                    replace(free, (end, seq, idx))
                else:
                    idx = opened
                    opened += 1
                    push(free, (end, seq, idx))
                emit(idx)
                seq += 1
            self._seq[k], self._channels[k] = seq, opened
        self._last_start[fed_titles] = s[tails - 1]
        return np.array(out, dtype=np.intp)
