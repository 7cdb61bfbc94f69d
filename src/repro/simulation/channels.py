"""Channel assignment: packing streams onto physical multicast channels.

The paper's model speaks of "channels on which the transmissions are
broadcast" with *dynamic* allocation (Section 1): a stream occupies a
channel from its start until it truncates.  Given a merge forest (or any
set of stream intervals) this module assigns streams to the minimum
number of channels — streams are intervals, so greedy first-fit on sorted
start times is optimal and the channel count equals the peak overlap
(interval-graph colouring) — and renders per-channel schedules.

This is the bridge between the abstract "total bandwidth" objective the
paper optimises and the "how many transmitters do I need" question the
multiplex extension (Section 5 future work) asks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.merge_tree import MergeForest, _as_int_if_exact
from ..fastpath.flat_forest import FlatForest, as_flat_forest

__all__ = [
    "StreamInterval",
    "ChannelAssignment",
    "assign_channels",
    "assign_channels_flat",
    "forest_intervals",
    "flat_forest_intervals",
    "interval_profile",
    "peak_concurrency",
    "min_forest_channels",
    "assign_forest_channels",
]


@dataclass(frozen=True)
class StreamInterval:
    """A stream's occupancy of a channel: half-open [start, end)."""

    label: float
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"stream {self.label}: empty or reversed interval "
                f"[{self.start}, {self.end})"
            )

    @property
    def units(self) -> float:
        return self.end - self.start


class ChannelAssignment:
    """Streams mapped to numbered channels.

    Two storage modes, one API.  The heap oracle (:func:`assign_channels`)
    builds the per-channel ``StreamInterval`` lists directly; the flat
    constructors (:meth:`from_arrays`, used by
    :func:`assign_forest_channels`) keep only parallel numpy arrays —
    labels, starts, ends, per-stream channel index — and materialise the
    object lists lazily behind the :attr:`channels` property, so
    provisioning sweeps that only read ``num_channels`` / ``channel_of``
    / ``utilisation`` never allocate a single interval object.

    Treated as immutable once built (the constructors in this module
    finish all appends before handing the object out); ``channel_of``
    relies on that to index labels once instead of rescanning every
    channel per query.
    """

    def __init__(
        self, channels: Optional[List[List[StreamInterval]]] = None
    ) -> None:
        self._channels: Optional[List[List[StreamInterval]]] = (
            channels if channels is not None else []
        )
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._n_channels: Optional[int] = None
        #: lazy label -> channel index, built on first ``channel_of`` call
        self._label_index: Optional[Dict[float, int]] = None

    @classmethod
    def from_arrays(
        cls,
        labels: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        channel: np.ndarray,
    ) -> "ChannelAssignment":
        """Array-backed assignment (``channel[i]`` hosts stream ``i``)."""
        out = cls()
        out._channels = None
        out._arrays = (
            np.asarray(labels, dtype=np.float64),
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
            np.asarray(channel, dtype=np.intp),
        )
        out._n_channels = int(channel.max()) + 1 if len(channel) else 0
        return out

    @property
    def channels(self) -> List[List[StreamInterval]]:
        """Per-channel interval lists, each in start order (lazy)."""
        if self._channels is None:
            labels, starts, ends, ch = self._arrays
            built: List[List[StreamInterval]] = [
                [] for _ in range(self._n_channels)
            ]
            order = np.lexsort((ends, starts))
            lab, st, en = labels.tolist(), starts.tolist(), ends.tolist()
            for i in order.tolist():
                built[int(ch[i])].append(
                    StreamInterval(
                        label=_as_int_if_exact(lab[i]), start=st[i], end=en[i]
                    )
                )
            self._channels = built
        return self._channels

    @property
    def num_channels(self) -> int:
        if self._channels is None:
            return self._n_channels
        return len(self._channels)

    def channel_of(self, label: float) -> int:
        if self._label_index is None:
            if self._channels is None:
                labels, _s, _e, ch = self._arrays
                self._label_index = dict(
                    zip(labels.tolist(), ch.tolist())
                )
            else:
                self._label_index = {
                    s.label: idx
                    for idx, ch in enumerate(self._channels)
                    for s in ch
                }
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"stream {label} not assigned") from None

    def utilisation(self, horizon: float) -> float:
        """Busy fraction across all channels over [0, horizon).

        Streams routinely outlive the horizon (they run to the media
        end), so each interval is clipped to ``[0, horizon)`` before
        summing — the fraction is always in ``[0, 1]``.
        """
        if horizon <= 0 or self.num_channels == 0:
            return 0.0
        if self._channels is None:
            _labels, starts, ends, _ch = self._arrays
            busy = float(
                np.sum(
                    np.maximum(
                        0.0,
                        np.minimum(ends, horizon) - np.maximum(starts, 0.0),
                    )
                )
            )
        else:
            busy = sum(
                max(0.0, min(s.end, horizon) - max(s.start, 0.0))
                for ch in self._channels
                for s in ch
            )
        return busy / (self.num_channels * horizon)

    def validate(self) -> None:
        """No two streams on one channel may overlap."""
        if self._channels is None:
            labels, starts, ends, ch = self._arrays
            order = np.lexsort((starts, ch))
            same = ch[order][1:] == ch[order][:-1]
            clash = same & (starts[order][1:] < ends[order][:-1])
            if clash.any():
                j = int(np.nonzero(clash)[0][0])
                a, b = order[j], order[j + 1]
                raise AssertionError(
                    f"channel {int(ch[a])}: {labels[a]} and {labels[b]} overlap"
                )
            return
        for idx, ch_list in enumerate(self._channels):
            ordered = sorted(ch_list, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end:
                    raise AssertionError(
                        f"channel {idx}: {a.label} and {b.label} overlap"
                    )

    def render(self) -> str:
        lines = []
        for idx, ch in enumerate(self.channels):
            parts = ", ".join(
                f"{s.label}@[{s.start:g},{s.end:g})"
                for s in sorted(ch, key=lambda s: s.start)
            )
            lines.append(f"channel {idx}: {parts}")
        return "\n".join(lines)


def assign_channels(intervals: Sequence[StreamInterval]) -> ChannelAssignment:
    """Greedy first-free assignment; optimal for intervals.

    Sort by start time and reuse the channel that freed up earliest
    (min-heap keyed on free time); the channel count equals the peak
    number of concurrently live streams.  Free-time ties are broken FIFO
    — the channel that was *released* first is reused first (heap entries
    carry a release sequence number), which rotates evenly through a
    transmitter pool and gives the greedy a deterministic pop order that
    :func:`assign_channels_flat` reproduces with pure array ops.
    O(n log n).
    """
    assignment = ChannelAssignment()
    if not intervals:
        return assignment
    # (becomes free at, release sequence, channel idx)
    free_heap: List[Tuple[float, int, int]] = []
    for seq, stream in enumerate(sorted(intervals, key=lambda s: (s.start, s.end))):
        if free_heap and free_heap[0][0] <= stream.start:
            _t, _seq, idx = heapq.heappop(free_heap)
        else:
            idx = len(assignment.channels)
            assignment.channels.append([])
        assignment.channels[idx].append(stream)
        heapq.heappush(free_heap, (stream.end, seq, idx))
    return assignment


def assign_channels_flat(
    starts: Union[np.ndarray, Sequence[float]],
    ends: Union[np.ndarray, Sequence[float]],
) -> np.ndarray:
    """Per-stream channel indices, equal to the greedy heap stream for stream.

    The array analogue of :func:`assign_channels` (which stays as the
    oracle): given half-open occupancy intervals ``[starts[i], ends[i])``
    it returns ``ch`` with ``ch[i]`` the exact channel index the heap
    greedy assigns to stream ``i``.  ``ch.max() + 1`` equals
    :func:`peak_concurrency` of the intervals.

    Why it is the same assignment.  In start order (ties by end, then
    input order — the oracle's sort is stable), stream ``k`` reuses a
    channel iff one has been freed (``#{ends <= start_k}`` exceeds the
    reuses so far), which happens exactly when the running live count
    does *not* reach a new maximum — so the new-channel decisions are a
    running-max computation.  Freed channels are popped in globally
    sorted ``(end, release sequence)`` order: a release with a smaller
    key is available no later than any larger one, and the oracle's heap
    breaks free-time ties FIFO, so the pop sequence is precisely the
    stable end-sort of the streams.  The j-th reusing stream therefore
    inherits the channel of the j-th stream in stable end order, and the
    inheritance chains (a reused channel is itself whatever its releaser
    inherited) resolve by pointer doubling — every predecessor starts
    strictly earlier, so O(log n) vectorised passes reach the chain
    roots, the channel-opening streams.  O(n log n), no Python loop.
    """
    s = np.ascontiguousarray(starts, dtype=np.float64)
    e = np.ascontiguousarray(ends, dtype=np.float64)
    if s.ndim != 1 or e.ndim != 1 or s.size != e.size:
        raise ValueError("starts and ends must be 1-D arrays of equal length")
    n = s.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if not (np.isfinite(s).all() and np.isfinite(e).all()):
        raise ValueError("stream intervals must be finite")
    if np.any(e <= s):
        raise ValueError("empty or reversed stream interval")

    order = np.lexsort((e, s))  # stable (start, end) sort, like the oracle
    ss, ee = s[order], e[order]
    # Freed channels before each start: all n ends may count — a stream
    # with end <= ss[k] necessarily started (strictly) earlier.
    avail = np.searchsorted(np.sort(e), ss, side="right")
    live = np.arange(1, n + 1) - avail
    running = np.maximum.accumulate(live)
    prev_max = np.concatenate(([0], running[:-1]))
    new_mask = live > prev_max  # stream opens channel #(live-1)
    new_ids = np.cumsum(new_mask) - 1  # valid at new-channel positions
    rel_order = np.argsort(ee, kind="stable")  # heap pop order (FIFO ties)
    jrank = np.cumsum(~new_mask) - 1  # valid at reusing positions

    # pred[k]: the stream whose channel k inherits (itself when it opens
    # a new channel); chase chains to their roots by pointer doubling.
    pred = np.arange(n)
    reusing = ~new_mask
    pred[reusing] = rel_order[jrank[reusing]]
    while True:
        nxt = pred[pred]
        if np.array_equal(nxt, pred):
            break
        pred = nxt
    ch_sorted = new_ids[pred]

    ch = np.empty(n, dtype=np.intp)
    ch[order] = ch_sorted
    return ch


def forest_intervals(
    forest: Union[MergeForest, FlatForest], L: float
) -> List[StreamInterval]:
    """The stream intervals a merge forest occupies (Lemma 1 lengths).

    Accepts either representation; lengths come from the vectorised
    fast path (``FlatForest.intervals``) in both cases.
    """
    labels, starts, ends = flat_forest_intervals(forest, L)
    return [
        StreamInterval(label=_as_int_if_exact(label), start=start, end=end)
        for label, start, end in zip(labels.tolist(), starts.tolist(), ends.tolist())
    ]


def flat_forest_intervals(
    forest: Union[MergeForest, FlatForest], L: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval arrays ``(labels, starts, ends)`` without object wrappers.

    The large-n entry point: at n ~ 10^5 building StreamInterval objects
    dominates, so channel math (see :func:`peak_concurrency`) consumes
    these arrays directly.
    """
    return as_flat_forest(forest).intervals(L)


def interval_profile(
    starts: np.ndarray,
    ends: np.ndarray,
    t0: float,
    t1: float,
    resolution: float,
) -> np.ndarray:
    """Per-bin live-interval counts on ``[t0, t1)`` (bin-occupancy rule).

    Bin ``b`` covers ``[t0 + b*r, t0 + (b+1)*r)`` and counts every
    interval live during *any part* of it — ``floor`` for the low edge,
    ``ceil`` for the high edge — so a stream touching a bin is charged
    for the whole bin and the profile max never under-reports the true
    peak.  One ``np.add.at`` difference-array pass; the kernel behind
    ``fleet.FleetReport.profile``.
    """
    if t1 <= t0 or resolution <= 0:
        raise ValueError("need t1 > t0 and positive resolution")
    nbins = int(np.ceil((t1 - t0) / resolution))
    diff = np.zeros(nbins + 1, dtype=np.int64)
    lo_t = np.maximum(starts, t0)
    hi_t = np.minimum(ends, t1)
    visible = hi_t > lo_t
    lo = np.floor((lo_t[visible] - t0) / resolution).astype(np.int64)
    hi = np.ceil((hi_t[visible] - t0) / resolution).astype(np.int64)
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi, -1)
    return np.cumsum(diff[:-1])


def peak_concurrency(starts: np.ndarray, ends: np.ndarray) -> int:
    """Peak number of concurrently live half-open intervals, vectorised.

    Equals the optimal channel count (interval-graph colouring): at the
    k-th start (sorted), ``k + 1`` streams have started and
    ``#{ends <= start}`` have freed their channel.  O(n log n) in numpy.
    """
    if len(starts) == 0:
        return 0
    s = np.sort(np.asarray(starts, dtype=np.float64))
    e = np.sort(np.asarray(ends, dtype=np.float64))
    live = np.arange(1, s.size + 1) - np.searchsorted(e, s, side="right")
    return int(live.max())


def min_forest_channels(forest: Union[MergeForest, FlatForest], L: float) -> int:
    """Minimum channel count for a forest, without building a schedule.

    Agrees with ``assign_forest_channels(...).num_channels`` (greedy
    first-fit is optimal for intervals, and :func:`assign_channels_flat`
    opens exactly ``peak_concurrency`` channels) but never materialises a
    schedule — the fast path for provisioning sweeps over large forests.
    """
    _labels, starts, ends = flat_forest_intervals(forest, L)
    return peak_concurrency(starts, ends)


def assign_forest_channels(
    forest: Union[MergeForest, FlatForest], L: float
) -> ChannelAssignment:
    """Channel plan for a merge forest; count == peak concurrency.

    The schedule comes from the vectorised :func:`assign_channels_flat`
    and is returned array-backed: no ``StreamInterval`` object exists
    until someone reads :attr:`ChannelAssignment.channels` (rendering,
    serialization), which materialises the lists in the same order the
    heap greedy appends them.  ``channel_of`` / ``utilisation`` /
    ``validate`` run on the arrays directly.
    """
    labels, starts, ends = flat_forest_intervals(forest, L)
    ch = assign_channels_flat(starts, ends)
    assignment = ChannelAssignment.from_arrays(labels, starts, ends, ch)
    # Keep the pre-refactor self-check: the array-mode validate is one
    # vectorised lexsort pass and still materialises no objects.
    assignment.validate()
    return assignment
