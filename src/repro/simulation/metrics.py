"""Bandwidth metrics for simulation runs.

The paper's headline metric is *total server bandwidth* in stream-slot
units (equivalently "number of complete media streams served" = units/L,
the Fig. 1 y-axis; or average bandwidth = units/n).  The simulator also
reports what the analytic formulas cannot: the concurrent-stream (channel)
profile over time and its peak, which Section 5 flags as the quantity that
matters for servers carrying many media objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fastpath import replay

__all__ = ["BandwidthMetrics"]


@dataclass(eq=False)
class BandwidthMetrics:
    """Per-stream usage intervals and their summaries.

    The event simulator records one stream at a time
    (:meth:`record_stream`); the batched engine hands over whole
    start/end arrays (:meth:`from_arrays`).  Array-backed metrics keep
    those arrays: the ``(end, start)`` order is sorted on first read, and
    the :attr:`intervals` list the event oracle compares against is only
    built if someone reads it.
    """

    L: float
    streams_started: int = 0
    roots_started: int = 0
    clients_served: int = 0

    def __post_init__(self) -> None:
        #: recorded (start, end) pairs; None while array-backed and unread
        self._intervals: Optional[List[Tuple[float, float]]] = []
        #: (starts, ends) of an array-backed run, None once recorded into
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ordered = False

    @classmethod
    def from_arrays(
        cls,
        L: float,
        starts: np.ndarray,
        ends: np.ndarray,
        is_root: np.ndarray,
        clients_served: int,
    ) -> "BandwidthMetrics":
        """Metrics over whole stream arrays, kept as they are until read.

        Read back, the intervals come in ``(end, start)`` order: the
        deterministic stand-in for the event simulator's finish order.
        """
        metrics = cls(
            L, int(starts.size), int(np.count_nonzero(is_root)), clients_served
        )
        metrics._intervals = None
        metrics._arrays = (starts, ends)
        return metrics

    @property
    def intervals(self) -> List[Tuple[float, float]]:
        """``(start, end)`` pairs: in finish order when recorded stream by
        stream, in ``(end, start)`` order when array-backed."""
        if self._intervals is None:
            starts, ends = self.interval_arrays()
            self._intervals = list(zip(starts.tolist(), ends.tolist()))
        return self._intervals

    def record_stream(self, start: float, end: float, is_root: bool) -> None:
        if end < start:
            raise ValueError(f"stream interval reversed: [{start}, {end}]")
        self.intervals.append((start, end))
        self._arrays = None
        self.streams_started += 1
        if is_root:
            self.roots_started += 1

    def record_client(self) -> None:
        self.clients_served += 1

    # -- summaries ----------------------------------------------------------

    @property
    def total_units(self) -> float:
        """Total bandwidth in slot units (the paper's Fcost).

        Summed in :attr:`intervals` order, one interval at a time
        (``np.add.accumulate`` adds sequentially), so the float total is
        the same however the metrics were filled.  It is summed
        ``replay.WALK_BLOCK`` streams at a time, each block's first length
        carrying the running total in: the same additions as one pass,
        without a stream-sized temporary.
        """
        starts, ends = self.interval_arrays()
        if not starts.size:
            return 0
        total = 0.0
        for lo in range(0, starts.size, replay.WALK_BLOCK):
            block = slice(lo, lo + replay.WALK_BLOCK)
            lengths = ends[block] - starts[block]
            lengths[0] += total
            total = float(np.add.accumulate(lengths)[-1])
        return int(total) if total.is_integer() else total

    @property
    def streams_served(self) -> float:
        """Bandwidth in complete-media units: ``total_units / L`` (Fig. 1)."""
        return self.total_units / self.L

    def average_bandwidth(self) -> float:
        """Units per served client (``Fcost / n``)."""
        if self.clients_served == 0:
            return 0.0
        return self.total_units / self.clients_served

    def interval_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The intervals as ``(starts, ends)`` float arrays, in
        :attr:`intervals` order."""
        if self._arrays is None:
            arr = np.asarray(self._intervals, dtype=np.float64).reshape(-1, 2)
            return arr[:, 0], arr[:, 1]
        if not self._ordered:
            starts, ends = self._arrays
            order = np.lexsort((starts, ends))
            # One sorted copy at a time: the unsorted ends go before the
            # starts are gathered.
            self._arrays = None
            ends = ends[order]
            self._arrays = (starts[order], ends)
            self._ordered = True
        return self._arrays

    def concurrency_profile(
        self, t0: float, t1: float, resolution: float = 1.0
    ) -> np.ndarray:
        """Concurrent active streams sampled on ``[t0, t1)``.

        Sample points are the left edges of bins of width ``resolution``;
        a stream [s, e) counts at sample t iff s <= t < e.  One
        difference-array pass over the stacked interval arrays — the
        former per-stream Python loop is retired.
        """
        if t1 <= t0 or resolution <= 0:
            raise ValueError("need t1 > t0 and positive resolution")
        nbins = int(np.ceil((t1 - t0) / resolution))
        diff = np.zeros(nbins + 1, dtype=np.int64)
        starts, ends = self.interval_arrays()
        lo = np.ceil((np.maximum(starts, t0) - t0) / resolution).astype(np.int64)
        hi = np.ceil((np.minimum(ends, t1) - t0) / resolution).astype(np.int64)
        visible = hi > lo
        np.add.at(diff, lo[visible], 1)
        np.add.at(diff, hi[visible], -1)
        return np.cumsum(diff[:-1])

    def peak_concurrency(self) -> int:
        """Maximum number of simultaneously active streams (exact).

        Routed through the vectorised half-open interval sweep of
        :func:`repro.simulation.channels.peak_concurrency` (a stream
        ending exactly when another starts does not overlap it, matching
        the retired event sort that put ends before starts at ties).
        """
        from .channels import peak_concurrency

        starts, ends = self.interval_arrays()
        return peak_concurrency(starts, ends)

    def summary(self) -> Dict[str, float]:
        return {
            "total_units": float(self.total_units),
            "streams_served": float(self.streams_served),
            "streams_started": float(self.streams_started),
            "roots_started": float(self.roots_started),
            "clients_served": float(self.clients_served),
            "avg_bandwidth_per_client": float(self.average_bandwidth()),
            "peak_concurrency": float(self.peak_concurrency()),
        }
