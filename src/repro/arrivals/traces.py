"""Arrival traces: containers and slotting (batching) transforms.

The paper's evaluation (Section 4.2) feeds three workload shapes to the
algorithms: constant-rate arrivals, Poisson arrivals, and the special
delay-guaranteed case of one (imaginary) client per slot.  The on-line
policies consume arrivals in two forms:

* raw real-valued arrival times (immediate-service dyadic);
* *slotted* times — each client waits until the end of its slot of length
  ``D`` (the guaranteed start-up delay), so a slot with ``>= 1`` arrivals
  becomes one imaginary client at the slot end (batched dyadic / DG).

``ArrivalTrace`` is an immutable container with those transforms plus the
usual summary statistics.  Its times are one read-only float64 array —
the columnar form every layer from generator to report consumes without
a per-client Python object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

__all__ = ["ArrivalTrace"]


@dataclass(frozen=True, eq=False)
class ArrivalTrace:
    """A strictly increasing sequence of client arrival times.

    ``horizon`` is the (exclusive) end of the observation window; arrivals
    must fall in ``[0, horizon)``.  Times are floats in *slot units*: slot
    ``t`` covers ``[t, t + 1)``.

    ``times`` may be passed as any one-dimensional sequence of numbers and
    is stored as a read-only float64 array.  A float64 ndarray argument
    is not copied: the trace keeps a read-only view of it, so the caller
    must not write to that array afterwards.
    """

    times: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}"
            )
        ts = np.asarray(self.times, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(
                f"arrival times must be one-dimensional, got shape {ts.shape}"
            )
        if ts.flags.writeable:
            ts = ts.view()
            ts.flags.writeable = False
        object.__setattr__(self, "times", ts)
        # One vectorised pass; every comparison is False on NaN, so a
        # non-finite entry fails one of the two tests below.
        if not (ts[1:] > ts[:-1]).all():
            if not np.isfinite(ts).all():
                raise ValueError("arrival times must be finite")
            raise ValueError("arrival times must be strictly increasing")
        if ts.size and not (ts[0] >= 0 and ts[-1] < self.horizon):
            if not np.isfinite(ts[[0, -1]]).all():
                raise ValueError("arrival times must be finite")
            raise ValueError(
                f"arrivals must lie in [0, {self.horizon}); "
                f"got range [{ts[0]}, {ts[-1]}]"
            )

    @staticmethod
    def from_times(times: Iterable[float], horizon: float) -> "ArrivalTrace":
        return ArrivalTrace(times=np.fromiter(times, dtype=np.float64), horizon=horizon)

    # -- basics ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrivalTrace):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(
            self.times, other.times
        )

    def __hash__(self) -> int:
        return hash((self.horizon, self.times.tobytes()))

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self):
        """Python floats, for the per-client oracle loops."""
        return iter(self.times.tolist())

    def is_empty(self) -> bool:
        return self.times.size == 0

    def mean_interarrival(self) -> float:
        """Mean gap between consecutive arrivals (nan when < 2 arrivals)."""
        n = self.times.size
        if n < 2:
            return math.nan
        return float(self.times[-1] - self.times[0]) / (n - 1)

    def rate(self) -> float:
        """Arrivals per unit time over the horizon."""
        return self.times.size / self.horizon

    # -- slotting ----------------------------------------------------------------

    def num_slots(self) -> int:
        """Number of slots covering the horizon."""
        return int(math.ceil(self.horizon))

    def slot_counts(self) -> np.ndarray:
        """Clients per slot; slot ``t`` covers ``[t, t + 1)``.  An arrival
        ``t < horizon`` lies in slot ``floor(t) < ceil(horizon)``."""
        idx = self.times.astype(np.int64)
        return np.bincount(idx, minlength=self.num_slots()).astype(np.int64, copy=False)

    def slotted(self, keep_empty: bool = False) -> List[int]:
        """Batch arrivals to slot ends.

        Returns the sorted list of *slot indices* ``t`` such that the slot
        ``[t, t + 1)`` must be served: with ``keep_empty=False`` only slots
        containing at least one arrival (the batched-dyadic view); with
        ``keep_empty=True`` every slot in the horizon (the Delay
        Guaranteed view, which starts a stream at the end of every slot
        regardless).  The imaginary client for slot ``t`` arrives at the
        slot's end, ``t + 1``.
        """
        if keep_empty:
            return list(range(self.num_slots()))
        return np.flatnonzero(self.slot_counts()).tolist()

    def slot_end_times(self, keep_empty: bool = False) -> List[float]:
        """End times of the served slots (the batched clients' start times)."""
        return [float(t + 1) for t in self.slotted(keep_empty)]

    # -- surgery -----------------------------------------------------------------

    def restrict(self, start: float, end: float) -> "ArrivalTrace":
        """Sub-trace of arrivals in ``[start, end)``, re-anchored at 0."""
        if not 0 <= start < end <= self.horizon:
            raise ValueError(f"bad window [{start}, {end}) for horizon {self.horizon}")
        ts = self.times
        kept = ts[(ts >= start) & (ts < end)] - start
        return ArrivalTrace(times=kept, horizon=end - start)

    def merged_with(self, other: "ArrivalTrace") -> "ArrivalTrace":
        """Union of two traces on the max horizon (duplicates collapse)."""
        return ArrivalTrace(
            times=np.union1d(self.times, other.times),
            horizon=max(self.horizon, other.horizon),
        )
