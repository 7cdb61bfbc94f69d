"""Multi-object workloads: one global request process split by popularity.

Requests arrive as a single Poisson process (rate = 1 / mean inter-arrival
minutes); each request picks an object i.i.d. from the catalog's Zipf
weights.  The per-object sub-traces are then themselves Poisson (thinning
property), which the tests confirm statistically.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..arrivals.generators import SeedLike, poisson, rng_from
from ..arrivals.traces import ArrivalTrace
from ..scale.kernels import SortedTable
from .catalog import Catalog

__all__ = ["split_requests", "catalog_workload"]


def split_requests(
    trace: ArrivalTrace, catalog: Catalog, seed: SeedLike = None
) -> Dict[str, ArrivalTrace]:
    """Assign each request in ``trace`` to a catalog object by popularity.

    Returns a per-object trace on the same horizon (possibly empty).
    The RNG draw is ``rng.choice(len(catalog), size=len(trace),
    p=weights)``'s own arithmetic (:func:`_choice`) with the final
    bisection looked up, so the generator consumes the same stream and
    seeds reproduce byte-identical workloads.  The reference test keeps
    ``rng.choice`` itself, so a numpy whose ``choice`` changes fails that
    test instead of silently moving the goldens.  The bucketing is a
    stable argsort/group-count pass — within each object the stable sort
    preserves arrival order, so each sub-trace stays strictly increasing.
    The sub-traces are slices of one grouped array, with no per-request
    Python object.
    """
    rng = rng_from(seed)
    picks = _choice(rng, catalog.weights(), len(trace))
    # keys of 16 bits or fewer take numpy's (stable) radix sort
    order = np.argsort(
        picks.astype(np.min_scalar_type(len(catalog))), kind="stable"
    )
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(picks, minlength=len(catalog))))
    )
    grouped = trace.times[order]
    return {
        obj.name: ArrivalTrace(
            times=grouped[bounds[k] : bounds[k + 1]], horizon=trace.horizon
        )
        for k, obj in enumerate(catalog)
    }


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
) -> Dict[str, ArrivalTrace]:
    """Generate the global request stream and split it per object.

    Times are in *minutes* (callers rescale to slots per their delay).
    """
    rng = rng_from(seed)
    global_trace = poisson(mean_interarrival_minutes, horizon_minutes, seed=rng)
    return split_requests(global_trace, catalog, seed=rng)
