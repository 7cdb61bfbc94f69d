"""Frozen per-element loops the vectorised arrival code is pinned to.

``poisson_loop`` is the per-gap Poisson generator and
``strictly_increasing_loop`` the per-time nudging merge of the scenario
library, both as they were before vectorisation.  The tests compare the
vectorised versions with them value for value (bytes) and, for the
generator, draw for draw.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def poisson_loop(
    mean_interarrival: float, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-gap ``t += g`` with one-step nudges for ties."""
    times = []
    t = 0.0
    expected = max(16, int(horizon / mean_interarrival * 1.2) + 16)
    while True:
        gaps = rng.exponential(mean_interarrival, size=expected)
        for g in gaps:
            t += g
            if t >= horizon:
                return np.array(times, dtype=np.float64)
            if times and t <= times[-1]:
                t = np.nextafter(times[-1], np.inf)
                if t >= horizon:
                    return np.array(times, dtype=np.float64)
            times.append(t)


def strictly_increasing_loop(times: Iterable[float], horizon: float) -> np.ndarray:
    """Sorted times inside [0, horizon), each tie nudged one step up."""
    out = []
    for t in sorted(times):
        if t < 0 or t >= horizon:
            continue
        if out and t <= out[-1]:
            t = float(np.nextafter(out[-1], np.inf))
            if t >= horizon:
                continue
        out.append(float(t))
    return np.array(out, dtype=np.float64)
