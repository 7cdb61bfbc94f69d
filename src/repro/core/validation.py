"""Shared arrival-time validation.

Every DP and forest builder in the repo requires strictly increasing
arrival times.  The naive check ``any(b <= a for a, b in zip(ts, ts[1:]))``
is *not* total: every comparison against a NaN is False, so a NaN (or a
pair of them) sails through "strictly increasing" validation and then
silently corrupts the dynamic programs downstream (min() over NaN
candidates propagates NaN into every cell).  Infinities pass the
comparison chain too and overflow the cost arithmetic.

This module is the single choke point: one pass that rejects non-finite
values *and* non-monotone neighbours, shared by ``repro.core.general``,
``repro.fastpath.general`` and ``repro.baselines.dyadic`` (the three
entry points that accept raw user-supplied arrival sequences).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "check_strictly_increasing",
    "check_finite_value",
    "check_count",
    "check_offsets",
    "non_increasing_within",
]


def check_finite_value(t: float, what: str = "arrival time") -> None:
    """Reject NaN and +-inf (one value; used by on-line push paths)."""
    if not math.isfinite(t):
        raise ValueError(f"{what} must be finite, got {t!r}")


def check_count(value, what: str) -> None:
    """Reject anything but an integer >= 1 (numpy's pass, ``bool`` does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")


def check_strictly_increasing(
    times: Sequence[float], what: str = "arrival times"
) -> None:
    """Reject non-finite values and non-increasing neighbours in one pass.

    NaN never compares, so the monotonicity check alone would accept it;
    the finiteness test must come first for every element.
    """
    prev = None
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"{what} must be finite, got {t!r}")
        if prev is not None and t <= prev:
            raise ValueError(f"{what} must be strictly increasing")
        prev = t


def check_offsets(offsets, n: int) -> np.ndarray:
    """Object bounds over ``n`` values laid end to end (object ``k`` is
    ``values[offsets[k]:offsets[k + 1]]``): 1-D integers running
    non-decreasing from 0 to ``n``.  Returned as an intp array."""
    offsets = np.asarray(offsets)
    if (
        offsets.ndim != 1
        or offsets.size == 0
        or offsets.dtype.kind not in "iu"
        or offsets[0] != 0
        or offsets[-1] != n
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise ValueError("offsets must run non-decreasing from 0 to the number of values")
    return offsets.astype(np.intp, copy=False)


def non_increasing_within(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mask over ``values[1:]``: True where a value does not exceed the
    one before it in the same object (each object's first value is free).
    NaN compares False, so callers check finiteness separately."""
    bad = values[1:] <= values[:-1]
    inner = offsets[1:-1]
    bad[inner[(inner > 0) & (inner < values.size)] - 1] = False
    return bad
