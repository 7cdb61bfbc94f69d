"""Workload generators for the paper's simulations (Section 4.2).

Two client-arrival patterns drive Figs. 11-12: *constant rate* arrivals
with fixed inter-arrival gap ``lam`` and *Poisson* arrivals where ``lam`` is
the mean inter-arrival time (the paper's "intensity" axis plots ``lam`` as a
percentage of the media length).  The delay-guaranteed analyses use the
degenerate one-client-per-slot pattern.

All stochastic generators take an explicit ``numpy`` Generator or seed so
experiments are reproducible; nothing reads global RNG state.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from .traces import ArrivalTrace

__all__ = [
    "constant_rate",
    "poisson",
    "every_slot",
    "bursty",
    "rng_from",
]

SeedLike = Union[None, int, np.random.Generator]


def rng_from(seed: SeedLike) -> np.random.Generator:
    """Coerce None/int/Generator into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def constant_rate(
    interarrival: float, horizon: float, offset: float = 0.0
) -> ArrivalTrace:
    """Arrivals at ``offset, offset + lam, offset + 2 lam, ...`` in [0, horizon).

    ``interarrival`` is the constant gap ``lam``; the paper sweeps it from
    near 0% to 5% of the media length.
    """
    if interarrival <= 0:
        raise ValueError(f"interarrival must be positive, got {interarrival}")
    if not 0 <= offset < horizon:
        raise ValueError(f"offset {offset} outside [0, {horizon})")
    count = int(np.floor((horizon - offset) / interarrival))
    times = offset + interarrival * np.arange(count + 1)
    return ArrivalTrace(times=times[times < horizon], horizon=horizon)


def poisson(
    mean_interarrival: float, horizon: float, seed: SeedLike = None
) -> ArrivalTrace:
    """Poisson process with mean gap ``lam`` on ``[0, horizon)``.

    Gaps are i.i.d. exponential with mean ``mean_interarrival``; ties (which
    have probability zero but can appear after float rounding) are nudged by
    the smallest representable step so the trace stays strictly increasing.

    Arrival ``i`` is ``t += gap`` added sequentially.  Each block of gaps
    is one ``np.cumsum`` carrying the running time in its first cell
    (``np.cumsum`` adds in order, so the sums are bit-identical to the
    per-gap loop), and the per-gap loop runs only from a block's first
    tie: the same values, the same block draws and the same generator
    state afterwards.
    """
    if mean_interarrival <= 0:
        raise ValueError(
            f"mean_interarrival must be positive, got {mean_interarrival}"
        )
    rng = rng_from(seed)
    parts: List[np.ndarray] = []
    t = 0.0
    first = True  # no arrival yet, so the first gap cannot tie
    # Draw in blocks to amortise RNG overhead without materialising more
    # than needed (expected count = horizon / mean).
    block = max(16, int(horizon / mean_interarrival * 1.2) + 16)
    while True:
        gaps = rng.exponential(mean_interarrival, size=block)
        acc = np.empty(block + 1, dtype=np.float64)
        acc[0] = t
        acc[1:] = gaps
        np.cumsum(acc, out=acc)  # acc[i + 1]: the running time after gap i
        tied = acc[1:] <= acc[:-1]
        tied[0] &= not first
        k = int(np.argmax(tied))
        if not tied[k]:
            k = block
        rising = acc[1 : k + 1]
        cross = int(np.searchsorted(rising, horizon))
        parts.append(rising[:cross])
        if cross < k:
            break
        if k == block:
            t = acc[-1]
            first = False
            continue
        # A gap too small to move the running time: from here the per-gap
        # loop, which nudges a tie one step past the previous arrival.
        tail = []
        prev = t = acc[k]
        for g in gaps[k:]:
            t += g
            if t <= prev:
                t = np.nextafter(prev, np.inf)
            if t >= horizon:
                break
            tail.append(t)
            prev = t
        parts.append(np.array(tail, dtype=np.float64))
        if t >= horizon:
            break
        first = False
    times = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return ArrivalTrace(times=times, horizon=horizon)


def every_slot(n: int, slot: float = 1.0) -> ArrivalTrace:
    """One client at the start of each of ``n`` slots (the DG special case).

    The delay-guaranteed analyses treat a client arriving anywhere inside a
    slot as served at the slot end; this canonical trace puts one client at
    each slot start ``0, slot, 2*slot, ...``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ArrivalTrace(times=np.arange(n) * slot, horizon=n * slot)


def bursty(
    mean_interarrival: float,
    horizon: float,
    burst_size: int,
    burst_spread: float,
    seed: SeedLike = None,
) -> ArrivalTrace:
    """Clustered arrivals: Poisson burst anchors, each with a local cluster.

    An extension workload (not in the paper) used by robustness tests:
    anchors follow a Poisson process with mean gap
    ``mean_interarrival * burst_size``; each anchor spawns ``burst_size``
    clients uniformly inside ``[anchor, anchor + burst_spread)``.
    """
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    if burst_spread <= 0:
        raise ValueError(f"burst_spread must be positive, got {burst_spread}")
    rng = rng_from(seed)
    anchors = poisson(mean_interarrival * burst_size, horizon, rng)
    times: list[float] = []
    for anchor in anchors:
        times.extend(anchor + rng.uniform(0, burst_spread, size=burst_size))
    times = sorted(t for t in times if t < horizon)
    # enforce strict monotonicity after the union
    out: list[float] = []
    for t in times:
        if out and t <= out[-1]:
            t = np.nextafter(out[-1], np.inf)
            if t >= horizon:
                continue
        out.append(float(t))
    return ArrivalTrace(times=tuple(out), horizon=horizon)
