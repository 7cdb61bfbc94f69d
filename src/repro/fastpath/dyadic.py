"""Flat (alpha, beta)-dyadic merging — the array twin of ``baselines.dyadic``.

The recursive specification :func:`~repro.baselines.dyadic.dyadic_forest`
and the stack machine :class:`~repro.baselines.dyadic.DyadicOnline` both
materialise a :class:`~repro.core.merge_tree.MergeNode` per arrival, which
makes the dyadic comparator the slowest per-object step in catalog
provisioning runs (``fleet.run_fleet``) and in the dyadic simulation
policies.  This module and :mod:`repro.fastpath.incremental` re-express
both constructions on parent-index arrays:

* :func:`dyadic_flat_forest` — the batch construction, vectorised level
  by level: every tree level of every window is classified into dyadic
  intervals in one numpy pass (one ``searchsorted`` against the
  per-``alpha`` table of scalar ``alpha ** -i`` edges, built once down to
  ``MIN_RELATIVE_GAP``; it returns the index the scalar
  :func:`~repro.baselines.dyadic.dyadic_interval_index` reaches with its
  log estimate and +-1 corrections), run boundaries mark the new
  children, and the remainder of each run drops into its child's window
  for the next pass, carrying its time, window start and cutoff along.
  O(total tree depth) numpy work, no per-node Python objects.  Its ragged
  form builds many objects' forests in one pass (the fleet runner's
  shards): only root finding is per object, and even that runs one
  round of searches for all objects at a time.
* :class:`~repro.fastpath.incremental.IncrementalFlatForest` — the one
  flat incremental stack machine; ``push`` is the same O(amortised 1)
  walk as ``DyadicOnline.push`` minus every ``MergeNode`` allocation, and
  its catalog-wide epoch batches are built with the ragged form below,
  each tree once, when it commits.

Exactness contract (same shape as ``fastpath.general``): every interval
classification evaluates the exact float expressions of the reference —
``g = (t - x) / (y - x)`` against a table of ``alpha ** (-i)`` powers
computed by the *scalar* interpreter, and child windows
``x + (y - x) / alpha ** (i - 1)`` — so the resulting parent arrays are
**bit-identical** to ``dyadic_forest`` / ``DyadicOnline`` on every input
both accept, including arrivals exactly on interval edges or on the
cutoff.  ``tests/fastpath/test_dyadic_flat.py`` asserts node-for-node
equality on adversarial edge-grid traces for alpha from ``MIN_ALPHA``
to 7.5, and ragged == one call per object on random catalogs.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.dyadic import MIN_RELATIVE_GAP, DyadicParams, check_stream_length
from ..core.validation import check_offsets, non_increasing_within
from .flat_forest import FlatForest

__all__ = ["dyadic_flat_forest"]


@functools.lru_cache(maxsize=64)
def _power_tables(alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(edges, powers)``: the interval table of ``alpha``, built once.

    ``edges`` holds the left-edge ratios ``alpha ** -i`` for ``i = K, ...,
    1, 0`` in ascending order, where ``K`` is the first index with
    ``alpha ** -K <= MIN_RELATIVE_GAP`` (so every admissible offset has
    its interval in the table: 107 entries at ``alpha = 1.3``, at most
    2,778 at ``MIN_ALPHA``); ``powers[i] = alpha ** i`` over the same
    range.  Both use CPython's scalar ``**``, the operator the reference
    classifier uses (``np.power``'s SIMD path may differ in the last ULP),
    so edge-of-interval classifications stay bit-identical.
    """
    neg = [1.0]
    while neg[-1] > MIN_RELATIVE_GAP:
        neg.append(alpha ** (-len(neg)))
    edges = np.asarray(neg[::-1], dtype=np.float64)
    powers = np.asarray([alpha ** i for i in range(len(neg))], dtype=np.float64)
    return edges, powers


def _roots(ts: np.ndarray, offsets: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Root mask: per object, a new root at each arrival past the current
    root's cutoff ``root + window`` (the rule of ``dyadic_forest``).

    One object takes one ``searchsorted`` per root.  Several objects take
    one per *round*: every object's next root at once, searched among
    ``(object, time)`` keys held as complex numbers, which numpy orders
    lexicographically, so the search stays within the object and every
    comparison is the exact float one.
    """
    n = ts.size
    is_root = np.zeros(n, dtype=bool)
    if offsets.size == 2:
        w = window[0]
        i = 0
        while i < n:
            is_root[i] = True
            i = int(np.searchsorted(ts, ts[i] + w, side="right"))
        return is_root
    counts = np.diff(offsets)
    keys = np.empty(n, dtype=np.complex128)
    keys.real = np.repeat(np.arange(counts.size), counts)
    keys.imag = ts
    obj = np.flatnonzero(counts)
    cur = offsets[obj]
    end = offsets[obj + 1]
    query = np.empty(obj.size, dtype=np.complex128)
    while cur.size:
        is_root[cur] = True
        query = query[: cur.size]
        query.real = obj
        query.imag = ts[cur] + window[obj]
        cur = np.searchsorted(keys, query, side="right")
        live = cur < end
        cur, obj, end = cur[live], obj[live], end[live]
    return is_root


def _dyadic_parents(
    ts: np.ndarray, offsets: np.ndarray, window: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(parent, z)`` of the dyadic forests of every object in ``ts``.

    Objects occupy ``ts[offsets[k]:offsets[k + 1]]`` with root windows
    ``window[k]``; parents are indices into ``ts``.  After the roots, the
    level loop runs once for all objects: it works on (owner, member)
    pairs, and owners never span objects.
    """
    n = ts.size
    parent = np.full(n, -1, dtype=np.intp)
    is_root = _roots(ts, offsets, window)
    roots = np.flatnonzero(is_root)
    if roots.size == n:  # every tree is a lone root
        return parent, ts.copy()
    # A root's window holds every arrival up to the next root: the next
    # object's first arrival is a root too, so windows end at objects'
    # ends.  A window's subtree is its member slice, and a run's subtree
    # is the run itself, so z is the last member; no reverse pass.
    root_end = np.append(roots[1:], n)
    z = ts.copy()
    z[roots] = ts[root_end - 1]
    root_of = (np.cumsum(is_root) - 1)[~is_root]
    m = np.flatnonzero(~is_root)
    owner = roots[root_of]
    x = ts[owner]
    t = ts[m]
    obj_of_root = np.searchsorted(offsets, roots, side="right") - 1
    cutoff = (ts[roots] + window[obj_of_root])[root_of]
    edges, powers = _power_tables(alpha)

    # Each level carries every unplaced member's time t, window start x
    # and cutoff, compressing them as members become children.
    while m.size:
        g = (t - x) / (cutoff - x)
        small = g < MIN_RELATIVE_GAP
        if small.any():
            j = int(np.argmax(small))
            raise ValueError(
                f"arrival {t[j]} is within {g[j]:.3e} of its window start "
                f"{x[j]} (relative); below the {MIN_RELATIVE_GAP} resolution limit"
            )
        # Interval index: the least i >= 1 with alpha ** -i <= g.
        idx = np.maximum(edges.size - np.searchsorted(edges, g, side="right"), 1)
        # Runs of consecutive members with the same (owner, interval):
        # the first member of a run becomes a child; the rest fall into
        # that child's window.
        first = np.empty(m.size, dtype=bool)
        first[0] = True
        np.not_equal(owner[1:], owner[:-1], out=first[1:])
        first[1:] |= idx[1:] != idx[:-1]
        heads = np.flatnonzero(first)
        child = m[heads]
        parent[child] = owner[heads]
        z[child] = t[np.append(heads[1:] - 1, m.size - 1)]
        # Child window right edge: x + span / alpha ** (idx - 1).
        xh = x[heads]
        child_hi = xh + (cutoff[heads] - xh) / powers[idx[heads] - 1]
        rest = ~first
        run = (np.cumsum(first) - 1)[rest]
        owner = child[run]
        x = t[heads][run]
        cutoff = child_hi[run]
        m = m[rest]
        t = t[rest]
    return parent, z


def dyadic_flat_forest(
    arrivals: Union[np.ndarray, Sequence[float]],
    L: Union[float, np.ndarray],
    params: DyadicParams = DyadicParams(),
    offsets: Optional[np.ndarray] = None,
) -> FlatForest:
    """Dyadic merge forest as a :class:`FlatForest`, vectorised (O(n)-ish).

    Structure is bit-identical to
    ``FlatForest.from_forest(dyadic_forest(arrivals, L, params))`` — the
    recursive builder stays in ``baselines.dyadic`` as the oracle.

    Ragged form: with ``offsets``, ``arrivals`` holds several objects'
    arrival sequences end to end (object ``k`` is
    ``arrivals[offsets[k]:offsets[k + 1]]``, strictly increasing; empty
    objects allowed) and ``L`` is one stream length or one per object.
    The result is every object's forest laid end to end
    (:meth:`FlatForest.concatenated`), parents indexing the whole array;
    object ``k``'s slice equals the one-object call on its arrivals, with
    its parents shifted by ``offsets[k]``.
    """
    ts = np.ascontiguousarray(arrivals, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("arrivals must be a 1-D sequence")
    n = ts.size
    if n == 0:
        raise ValueError("need at least one arrival")
    if not np.isfinite(ts).all():
        bad = ts[~np.isfinite(ts)][0]
        raise ValueError(f"arrivals must be finite, got {bad!r}")
    if offsets is None:
        check_stream_length(L)
        if np.any(ts[1:] <= ts[:-1]):
            raise ValueError("arrivals must be strictly increasing")
        window = np.array([params.window(L)])
        parent, z = _dyadic_parents(ts, np.array([0, n]), window, params.alpha)
        return FlatForest(ts, parent, z=z)

    offsets = check_offsets(offsets, n)
    if non_increasing_within(ts, offsets).any():
        raise ValueError("arrivals must be strictly increasing within each object")
    lengths = np.broadcast_to(np.asarray(L, dtype=np.float64), (offsets.size - 1,))
    if not (np.isfinite(lengths).all() and (lengths > 0).all()):
        raise ValueError(f"L must be positive and finite, got {L}")
    # The scalar window expression, elementwise: beta * L.
    window = params.beta * lengths
    parent, z = _dyadic_parents(ts, offsets, window, params.alpha)
    return FlatForest.concatenated(ts, parent, z)
