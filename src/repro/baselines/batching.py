"""Batching baselines (Section 1 and Section 4.2).

*Pure batching*: clients wait until the end of their slot (length = the
guaranteed start-up delay) and the server broadcasts the **whole** stream
once per served slot — the natural best batching can do under a delay
guarantee.  Section 4.2 distinguishes:

* the *batching* comparator starts a stream at a slot end only if at least
  one client arrived during the slot, whereas
* the *Delay Guaranteed* algorithm starts one every slot regardless.

*Batched dyadic* slots the arrivals the same way and then runs dyadic
stream merging over the non-empty slot ends (the "batched dyadic" curve in
Figs. 11-12).
"""

from __future__ import annotations

from typing import Optional

from ..arrivals.traces import ArrivalTrace
from ..core.merge_tree import MergeForest
from .dyadic import DyadicParams, dyadic_forest

__all__ = [
    "pure_batching_cost",
    "batched_dyadic_forest",
    "batched_dyadic_cost",
]


def pure_batching_cost(trace: ArrivalTrace, L: int) -> float:
    """Total bandwidth of pure batching: ``L`` per non-empty slot.

    In the delay-guaranteed every-slot case this is ``n * L``
    (Theorem 14's comparison point).
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    return len(trace.slotted()) * L


def batched_dyadic_forest(
    trace: ArrivalTrace, L: int, params: Optional[DyadicParams] = None
) -> MergeForest:
    """Dyadic merge forest over the ends of the non-empty slots.

    Slot ``t`` produces an imaginary client at its end, ``t + 1``; the
    dyadic window is ``beta * L`` in the same units, matching the
    immediate-service variant.
    """
    if params is None:
        params = DyadicParams()
    ends = trace.slot_end_times()
    if not ends:
        raise ValueError("trace has no arrivals; nothing to serve")
    return dyadic_forest(ends, L, params)


def batched_dyadic_cost(
    trace: ArrivalTrace, L: int, params: Optional[DyadicParams] = None
) -> float:
    """Total bandwidth (slot units) of the batched dyadic algorithm."""
    return batched_dyadic_forest(trace, L, params).full_cost(L)
