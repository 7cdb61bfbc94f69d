"""Multi-object workloads: one global request process split by popularity.

Requests arrive as a single Poisson process (rate = 1 / mean inter-arrival
minutes); each request picks an object i.i.d. from the catalog's Zipf
weights.  The per-object sub-traces are then themselves Poisson (thinning
property), which the tests confirm statistically.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property
from typing import Dict, Iterator, Sequence

import numpy as np

from ..arrivals.generators import SeedLike, poisson, rng_from
from ..arrivals.traces import ArrivalTrace
from ..core.validation import check_offsets
from ..scale.kernels import SortedTable
from .catalog import Catalog

__all__ = ["Workload", "split_requests", "catalog_workload"]

_EMPTY = np.empty(0, dtype=np.float64)


class Workload(Mapping):
    """A catalog's arrival minutes end to end in one read-only float64
    array: title ``k`` of ``names`` is ``times[offsets[k]:offsets[k + 1]]``,
    and ``workload[name]`` an :class:`ArrivalTrace` view of it on
    ``horizon``.  One that :meth:`of` made of an operator feed holds the
    feed as given, for :func:`~repro.fleet.runner.sanitize_times`."""

    def __init__(self, names: Sequence[str], times, offsets, horizon: float):
        self.names, self.horizon = tuple(names), horizon
        self.times = np.asarray(times, dtype=np.float64).view()
        self.offsets = check_offsets(offsets, self.times.size).view()
        if self.offsets.size != len(self.names) + 1:
            raise ValueError(f"{len(self.names)} titles need {len(self.names) + 1} offsets")
        self.times.flags.writeable = self.offsets.flags.writeable = False

    @classmethod
    def of(cls, names: Sequence[str], mapping, horizon: float = math.inf) -> "Workload":
        """The workload of a title -> times ``mapping`` in ``names`` order:
        the mapping itself if it is a :class:`Workload` over ``names``, else
        a copy on ``horizon`` (unbounded by default: read only its ``times``).
        Absent titles are empty; a key not in ``names``, or a value that is
        neither an :class:`ArrivalTrace` nor a 1-D array of real numbers,
        raises ``ValueError`` naming the title."""
        names = tuple(names)
        if isinstance(mapping, Workload) and mapping.names == names:
            return mapping
        known = set(names)
        for key in mapping:
            if key not in known:
                raise ValueError(f"workload key {key!r} is not in the catalog")
        columns = [_column(name, mapping.get(name, _EMPTY)) for name in names]
        offsets = np.cumsum([0] + [c.size for c in columns])
        return cls(names, np.concatenate(columns), offsets, horizon)

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {name: k for k, name in enumerate(self.names)}

    def __getitem__(self, name: str) -> ArrivalTrace:
        k = self._index[name]
        return ArrivalTrace(self.times[self.offsets[k] : self.offsets[k + 1]], self.horizon)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


def _column(name: str, value) -> np.ndarray:
    """One title's times (a trace's or an array's) as a 1-D real array."""
    try:
        array = np.asarray(getattr(value, "times", value))
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"arrivals of {name!r} are not an array: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"arrivals of {name!r} must be real numbers, got {array.dtype}")
    if array.ndim != 1:
        raise ValueError(f"arrivals of {name!r} must be 1-D, got shape {array.shape}")
    return array


def split_requests(
    trace: ArrivalTrace, catalog: Catalog, seed: SeedLike = None
) -> Workload:
    """Assign each request in ``trace`` to a catalog object by popularity.

    Returns the catalog's :class:`Workload` on the same horizon (a title
    may be empty).  The RNG draw is ``rng.choice(len(catalog), size=len(trace),
    p=weights)``'s own arithmetic (:func:`_choice`) with the final
    bisection looked up, so the generator consumes the same stream and
    seeds reproduce byte-identical workloads.  The reference test keeps
    ``rng.choice`` itself, so a numpy whose ``choice`` changes fails that
    test instead of silently moving the goldens.  The bucketing is a
    stable argsort/group-count pass — within each object the stable sort
    preserves arrival order, so each title stays strictly increasing.
    The grouped array is the workload's ``times``: no per-title object.
    """
    rng = rng_from(seed)
    picks = _choice(rng, catalog.weights(), len(trace))
    # keys of 16 bits or fewer take numpy's (stable) radix sort
    order = np.argsort(
        picks.astype(np.min_scalar_type(len(catalog))), kind="stable"
    )
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(picks, minlength=len(catalog))))
    )
    return Workload([obj.name for obj in catalog], trace.times[order], offsets, trace.horizon)


def _choice(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(p.size, size=size, p=p)`` step for step: its checks and
    messages, its cdf and its ``size`` uniforms, with the cdf's
    ``searchsorted`` done by :class:`SortedTable` (numpy sums ``p`` with
    Kahan's loop, this pairwise; both sit far inside the tolerance)."""
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring "
            "for more information."
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return SortedTable(cdf).index(rng.random(size))


def catalog_workload(
    catalog: Catalog,
    mean_interarrival_minutes: float,
    horizon_minutes: float,
    seed: SeedLike = None,
) -> Workload:
    """Generate the global request stream and split it per object.

    Times are in *minutes* (callers rescale to slots per their delay).
    """
    rng = rng_from(seed)
    global_trace = poisson(mean_interarrival_minutes, horizon_minutes, seed=rng)
    return split_requests(global_trace, catalog, seed=rng)
