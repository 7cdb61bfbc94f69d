"""Delay-bandwidth capacity planning for a catalog (Section 5 made exact).

The paper closes on the provisioning trade-off: with the Delay Guaranteed
algorithm "by increasing the guaranteed delay, we can ensure that we
never go over the fixed maximum bandwidth and still never have to decline
a client request".  The DG envelope is workload-independent, so for a
fixed channel budget the smallest feasible delay is a pure search
problem; this module runs it with bisection instead of a linear scan over
the candidate grid (the tests keep the unmemoised scan as their oracle).

Peaks are taken straight from the memoised slot-unit envelopes: every
object in a fleet shares one slot (the delay guarantee) and the DG
envelope endpoints are whole slots, so the peak is the same on the slot
and the minute timeline and nothing is rescaled.  Whole-slot endpoints
also mean no sort is needed: :func:`aggregate_peak` adds each *distinct*
envelope, times the number of objects sharing it, into one int64
difference array over the slots, so titles of one duration cost one
envelope's worth of work per delay probe, not one per title.

Monotonicity caveat: the fleet DG peak is nonincreasing in the delay up
to the ``L = round(duration / delay)`` rounding, which can produce
plateaus but — on the geometric grids used here — no practically
observed inversions.  The bisection assumes the predicate
``peak(delay) <= budget`` is monotone on the grid; the returned delay is
always *verified* feasible (the predicate was evaluated on it), so a
rare inversion can only make the answer conservative, never infeasible.

Load shedding has no such caveat.  Dropping a title removes its
intervals and never adds one, so the admitted set's peak is exactly
nonincreasing in the number of least-popular titles dropped, and
:func:`admission_report` bisects the drop count: O(log n) peak
evaluations give the same plan as dropping one title at a time (the
tests keep that loop as their oracle).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.online import build_online_flat_forest
from ..multiplex.catalog import Catalog, MediaObject

__all__ = [
    "default_delay_grid",
    "dg_envelope",
    "dg_envelopes",
    "aggregate_peak",
    "dg_fleet_peak",
    "min_fleet_delay",
    "min_object_delay",
    "FrontierPoint",
    "capacity_frontier",
    "AdmissionReport",
    "admission_report",
    "render_frontier",
]

#: one object's DG stream intervals, ``(labels, starts, ends)`` in slots
Envelope = Tuple[np.ndarray, np.ndarray, np.ndarray]


def default_delay_grid(
    lo: float = 0.25, hi: float = 32.0, points: int = 22
) -> List[float]:
    """A geometric candidate-delay grid in minutes (lo and hi included)."""
    if not 0 < lo < hi < math.inf:
        raise ValueError("need 0 < lo < hi, both finite")
    if points < 2:
        raise ValueError("need points >= 2: lo and hi are both included")
    return [float(d) for d in np.geomspace(lo, hi, points)]


def _candidate_delays(delays: Optional[Sequence[float]]) -> List[float]:
    """The sorted candidate grid (the default grid when None), validated:
    at least one delay, every one positive and finite."""
    grid = sorted(delays if delays is not None else default_delay_grid())
    if not grid:
        raise ValueError("need at least one candidate delay")
    if not all(0 < d < math.inf for d in grid):
        raise ValueError(f"candidate delays must be positive and finite, got {grid}")
    return grid


@lru_cache(maxsize=1024)
def dg_envelope(L: int, n_slots: int) -> Envelope:
    """The DG stream-interval envelope in slot units, memoised.

    The envelope — ``(labels, starts, ends)`` of the static tiled
    Fibonacci forest — depends only on ``(L, n_slots)``; a frontier
    bisection probes many delays over one catalog, and every object
    whose ``(units, slots)`` pair repeats (identical durations, repeated
    delay probes, neighbouring budgets re-bracketing the same grid
    points) reuses the arrays instead of rebuilding the forest.  The
    returned arrays are marked read-only; callers that want minutes
    scale into fresh arrays.
    """
    forest = build_online_flat_forest(L, n_slots)
    labels, starts, ends = forest.intervals(L)
    for a in (labels, starts, ends):
        a.setflags(write=False)
    return labels, starts, ends


def dg_envelopes(
    objects: Iterable[MediaObject], delay_minutes: float, horizon_minutes: float
) -> List[Envelope]:
    """Each object's DG envelope at one delay, in slot units of that delay.

    A stream starts every ``delay_minutes`` over ``horizon / delay``
    slots, whatever the workload; the forests come from the
    :func:`dg_envelope` memo.
    """
    if horizon_minutes <= 0:
        raise ValueError("horizon must be positive")
    n_slots = max(1, int(np.ceil(horizon_minutes / delay_minutes)))
    return [dg_envelope(obj.units(delay_minutes), n_slots) for obj in objects]


def _whole_slots(values: np.ndarray) -> np.ndarray:
    """Endpoints as int64 slot indices; ValueError unless the cast is exact."""
    slots = values.astype(np.int64)
    if not np.array_equal(slots, values):
        raise ValueError("envelope endpoints must be whole slots")
    return slots


def aggregate_peak(envelopes: Sequence[Envelope]) -> int:
    """Peak number of simultaneously live streams across envelopes.

    The envelopes share one timeline of whole, non-negative slots.  Each
    distinct envelope (by identity: the memo hands every object with the
    same ``(L, n_slots)`` the same tuple; equal copies are just counted
    apart) adds its occupancy, times its multiplicity, into one int64
    difference array.  Half-open intervals: a stream ending at slot t
    frees its channel before one starting at t takes it, as in
    :func:`~repro.simulation.channels.peak_concurrency`.  0 when empty.
    """
    multiplicity = Counter(map(id, envelopes))
    distinct = {id(env): env for env in envelopes}
    slots = [
        (multiplicity[key], _whole_slots(env[1]), _whole_slots(env[2]))
        for key, env in distinct.items()
    ]
    if not slots:
        return 0
    size = 1 + max(int(max(s.max(), e.max())) for _, s, e in slots)
    diff = np.zeros(size, dtype=np.int64)
    for count, starts, ends in slots:
        diff += count * (
            np.bincount(starts, minlength=size) - np.bincount(ends, minlength=size)
        )
    return int(np.cumsum(diff).max())


def dg_fleet_peak(catalog: Catalog, delay_minutes: float, horizon_minutes: float) -> int:
    """Fleet-wide DG envelope peak — deterministic, workload-independent."""
    return aggregate_peak(dg_envelopes(catalog, delay_minutes, horizon_minutes))


def _bisect_smallest_feasible(
    grid: Sequence[float], feasible
) -> Optional[int]:
    """Index of the first grid entry with ``feasible(grid[i])`` true.

    Classic predicate bisection (monotone assumption, see module
    docstring): at most ``ceil(log2(len(grid))) + 2`` predicate
    evaluations.
    """
    lo, hi = 0, len(grid) - 1
    if not feasible(grid[hi]):
        return None
    if feasible(grid[lo]):
        return lo
    # invariant: grid[lo] infeasible, grid[hi] feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid
    return hi


def min_fleet_delay(
    catalog: Catalog,
    horizon_minutes: float,
    budget_channels: int,
    delays: Optional[Sequence[float]] = None,
) -> Optional[float]:
    """Smallest candidate delay whose fleet DG envelope fits the budget.

    O(log) peak evaluations over the sorted grid (the same answer as a
    linear scan on any grid where the peak is monotone); returns None
    when even the largest candidate does not fit.
    """
    if budget_channels < 1:
        raise ValueError("budget must be >= 1 channel")
    grid = _candidate_delays(delays)
    idx = _bisect_smallest_feasible(
        grid,
        lambda d: dg_fleet_peak(catalog, d, horizon_minutes) <= budget_channels,
    )
    return None if idx is None else grid[idx]


def min_object_delay(
    obj: MediaObject,
    horizon_minutes: float,
    budget_channels: int,
    delays: Optional[Sequence[float]] = None,
) -> Optional[float]:
    """Smallest candidate delay for *one* object under a per-object budget."""
    if budget_channels < 1:
        raise ValueError("budget must be >= 1 channel")
    grid = _candidate_delays(delays)
    idx = _bisect_smallest_feasible(
        grid,
        lambda d: aggregate_peak(dg_envelopes([obj], d, horizon_minutes))
        <= budget_channels,
    )
    return None if idx is None else grid[idx]


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the budget ↦ delay frontier."""

    budget_channels: int
    delay_minutes: Optional[float]  # None: infeasible even at the max delay
    peak_channels: Optional[int]  # realised peak at that delay

    @property
    def feasible(self) -> bool:
        return self.delay_minutes is not None


def capacity_frontier(
    catalog: Catalog,
    horizon_minutes: float,
    budgets: Sequence[int],
    delays: Optional[Sequence[float]] = None,
) -> List[FrontierPoint]:
    """The frontier curve: per budget, the smallest feasible DG delay.

    Budgets are processed in decreasing order so each bisection can reuse
    the previous answer as a lower bracket (a smaller budget never admits
    a smaller delay), trimming envelope builds on dense budget sweeps.
    """
    budgets = sorted({int(b) for b in budgets}, reverse=True)
    if budgets and budgets[-1] < 1:
        raise ValueError("budget must be >= 1 channel")
    grid = _candidate_delays(delays)
    peaks: dict = {}

    def peak(d: float) -> int:
        if d not in peaks:
            peaks[d] = dg_fleet_peak(catalog, d, horizon_minutes)
        return peaks[d]

    points: List[FrontierPoint] = []
    lo_idx = 0  # delays before the previous answer are already infeasible
    for budget in budgets:
        sub = grid[lo_idx:]
        idx = _bisect_smallest_feasible(sub, lambda d: peak(d) <= budget)
        if idx is None:
            points.append(FrontierPoint(budget, None, None))
            lo_idx = len(grid) - 1  # every smaller budget is infeasible too
        else:
            d = sub[idx]
            points.append(FrontierPoint(budget, d, peak(d)))
            lo_idx = grid.index(d)
    return sorted(points, key=lambda p: p.budget_channels)


@dataclass(frozen=True)
class AdmissionReport:
    """What to do when the budget is infeasible even at the largest delay.

    Objects are dropped least-popular-first until the remaining fleet
    envelope fits; ``served_weight_fraction`` is the share of request
    probability the admitted set still covers.
    """

    budget_channels: int
    delay_minutes: float
    feasible: bool
    admitted: Tuple[str, ...]
    dropped: Tuple[str, ...]
    peak_channels: int
    served_weight_fraction: float

    def render(self) -> str:
        status = "feasible" if self.feasible else "requires load shedding"
        lines = [
            f"admission report — budget={self.budget_channels} channels: {status}",
            f"  delay={self.delay_minutes:g} min  peak={self.peak_channels}"
            f"  admitted={len(self.admitted)}  dropped={len(self.dropped)}"
            f"  served weight={self.served_weight_fraction:.1%}",
        ]
        if self.dropped:
            lines.append("  dropped: " + ", ".join(self.dropped[:10]) + (
                " ..." if len(self.dropped) > 10 else ""
            ))
        return "\n".join(lines)


def admission_report(
    catalog: Catalog,
    horizon_minutes: float,
    budget_channels: int,
    delays: Optional[Sequence[float]] = None,
) -> AdmissionReport:
    """Feasibility verdict for a budget, with a shedding plan if needed.

    If some candidate delay fits the whole catalog, report it (feasible,
    nothing dropped).  Otherwise pin the delay at the grid maximum and
    drop least-popular objects (ties in catalog order) until the
    remaining envelope fits — the DG guarantee then still holds for
    every *admitted* request.  The drop count is bisected, since the
    admitted peak never rises as titles are dropped (module docstring).
    The capacity invariant ``peak <= budget`` holds for the admitted set
    unconditionally: if even the most popular object alone exceeds the
    budget at the maximum delay, *everything* is shed — an empty admitted
    set and an honest report beat a violated guarantee (the burn-in
    contract layer asserts this under flash-crowd overload).
    """
    grid = _candidate_delays(delays)
    d = min_fleet_delay(catalog, horizon_minutes, budget_channels, grid)
    if d is not None:
        return AdmissionReport(
            budget_channels=budget_channels,
            delay_minutes=d,
            feasible=True,
            admitted=tuple(o.name for o in catalog),
            dropped=(),
            peak_channels=dg_fleet_peak(catalog, d, horizon_minutes),
            served_weight_fraction=1.0,
        )
    d_max = grid[-1]
    objects = catalog.objects
    envelopes = dg_envelopes(objects, d_max, horizon_minutes)
    shed_order = sorted(range(len(objects)), key=lambda i: objects[i].weight)
    peaks: Dict[int, int] = {}

    def fits(k: int) -> bool:  # after dropping the k least popular
        peaks[k] = aggregate_peak([envelopes[i] for i in shed_order[k:]])
        return peaks[k] <= budget_channels

    k = _bisect_smallest_feasible(range(len(objects) + 1), fits)
    shed = set(shed_order[:k])
    admitted = [o for i, o in enumerate(objects) if i not in shed]
    return AdmissionReport(
        budget_channels=budget_channels,
        delay_minutes=d_max,
        feasible=False,
        admitted=tuple(o.name for o in admitted),
        dropped=tuple(objects[i].name for i in shed_order[:k]),
        peak_channels=peaks[k],
        served_weight_fraction=float(sum(o.weight for o in admitted)),
    )


def render_frontier(points: Sequence[FrontierPoint]) -> str:
    """Text table of a budget ↦ delay frontier."""
    lines = ["capacity frontier (DG envelope):", "  budget  min delay   peak"]
    for p in points:
        if p.feasible:
            lines.append(
                f"  {p.budget_channels:>6d}  {p.delay_minutes:>8.3g} m  {p.peak_channels:>5d}"
            )
        else:
            lines.append(f"  {p.budget_channels:>6d}  infeasible      -")
    return "\n".join(lines)
