"""Flat (alpha, beta)-dyadic merging — the array twin of ``baselines.dyadic``.

The recursive specification :func:`~repro.baselines.dyadic.dyadic_forest`
and the stack machine :class:`~repro.baselines.dyadic.DyadicOnline` both
materialise a :class:`~repro.core.merge_tree.MergeNode` per arrival, which
makes the dyadic comparator the slowest per-object step in catalog
provisioning runs (``fleet.run_fleet``).  This module re-expresses the
construction on parent-index arrays:

* :func:`dyadic_flat_forest` — the batch construction, vectorised level
  by level.  A level splits every window into its dyadic interval runs
  (the interval of an offset is one exact lookup in the per-``alpha``
  :class:`~repro.scale.kernels.SortedTable` of scalar ``alpha ** -i``
  edges, built once down to ``MIN_RELATIVE_GAP``, the same answer as a
  ``searchsorted`` against them; it returns the index the scalar
  :func:`~repro.baselines.dyadic.dyadic_interval_index` reaches with its
  log estimate and +-1 corrections): the first member of a run becomes a
  child, and the rest of the run is that child's window at the next
  level.  It runs in two phases.  Phase 1, while windows are large (the
  first levels of a hot title), touches only the heads: it classifies
  each window's first and last member and finds every interval boundary
  in between by searching for the edge's time and walking the guess to
  the exact position.  Phase 2, from the first level whose windows hold
  no more than ``SPLIT_RATIO`` members per boundary (from the start on
  catalog shards and live epochs), classifies every member, carrying its
  time, window start and cutoff along.  A level compacts by index: one
  ``np.flatnonzero`` finds the members that are not heads, every carried
  array is gathered by those positions, and a member's run follows from
  its position alone (the r-th member kept, at position p, has p - r
  heads at or before it).  A hot title's levels keep a third to nine
  tenths of their members, two thirds weighted by size, and there a
  boolean selection or a ``cumsum`` of the head mask costs up to four
  times the index and its gathers.  It runs over consecutive windows
  in blocks of at most ``MEMBER_BLOCK`` members (a larger window alone),
  each block through all its remaining levels, so a hot title's phase-2
  arrays are bounded by a block; a call with at most one block of
  members is one block, with no extra numpy calls.  Windows never share
  a member, so blocking changes no placement.  A block stops at its
  first resolution offence, and the call raises the earliest offence by
  (level, index) over all blocks: the one the loop over every window at
  once would meet, message and all.  O(total tree depth) numpy work, no
  per-node Python objects.  Its ragged form builds many objects'
  forests in one pass (the fleet runner's shards): only root finding is
  per object, and even that runs one round of searches for all objects
  at a time.
* :class:`~repro.fastpath.incremental.IncrementalFlatForest` — the live
  tier's open windows; its catalog-wide epoch batches are built with the
  ragged form, each tree once, when it commits.

Exactness contract (same shape as ``fastpath.general``): every interval
classification evaluates the exact float expressions of the reference —
``g = (t - x) / (y - x)`` against a table of ``alpha ** (-i)`` powers
computed by the *scalar* interpreter, and child windows
``x + (y - x) / alpha ** (i - 1)`` — so the resulting parent arrays are
**bit-identical** to ``dyadic_forest`` and to the ``DyadicOnline``
placements of the event policies on every input both accept, including arrivals exactly on interval edges or on the
cutoff.  Phase 1 rests on one more fact: within a window ``g`` never
decreases as ``t`` grows, under IEEE rounding too (subtracting a fixed
number and dividing by a fixed positive one are both monotone), so the
interval index is a non-increasing step function of member position.
Its first member therefore holds the window's smallest ``g`` (where the
resolution check runs), and a boundary is the first member whose ``g``
reaches a table edge; the searched edge time is only a guess, moved one
member at a time by that comparison until it holds exactly.
``tests/fastpath/test_dyadic_flat.py`` asserts node-for-node equality
on adversarial edge-grid traces for alpha from ``MIN_ALPHA`` to 7.5, and
ragged == one call per object on random catalogs, each with phase 1
forced at every level (``SPLIT_RATIO = 0``) and as shipped, the ragged
equivalence and the resolution messages also in member blocks of 1 and 7.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.dyadic import MIN_RELATIVE_GAP, DyadicParams, check_stream_length
from ..core.validation import check_offsets, non_increasing_within
from ..scale.kernels import SortedTable
from .flat_forest import FlatForest

__all__ = ["dyadic_flat_forest"]

#: Phase 1 places one interval boundary for about as much as 4-5 member
#: classifications cost phase 2, so it runs while a level holds more than
#: this many members per boundary (see :func:`_dyadic_parents`).
SPLIT_RATIO = 8

#: A phase-1 level's fixed cost, in boundaries: its few dozen numpy calls.
#: A level of at most ``SPLIT_RATIO * SPLIT_LEVEL_COST`` members goes to
#: phase 2 before any window endpoint is evaluated.
SPLIT_LEVEL_COST = 128

#: Phase 2 runs over consecutive windows in blocks of at most this many
#: members (a larger window is a block of its own), so its per-member
#: arrays are bounded by a block, not by the hottest title.
MEMBER_BLOCK = 1 << 15


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


@functools.lru_cache(maxsize=64)
def _edge_table(alpha: float) -> SortedTable:
    """The ``edges`` of :func:`_power_tables` as a :class:`SortedTable`,
    kept per ``alpha`` so that its bucket table is built once."""
    return SortedTable(_power_tables(alpha)[0])


def _object_keys(ts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``(object, time)`` keys as complex numbers, which numpy orders
    lexicographically: one sorted array over a ragged call, in which a
    search stays within its object and every comparison is the exact
    float one."""
    counts = np.diff(offsets)
    keys = np.empty(ts.size, dtype=np.complex128)
    keys.real = np.repeat(np.arange(counts.size), counts)
    keys.imag = ts
    return keys


def _roots(
    ts: np.ndarray, offsets: np.ndarray, window: np.ndarray, keys: Optional[np.ndarray]
) -> np.ndarray:
    """Root mask: per object, a new root at each arrival past the current
    root's cutoff ``root + window`` (the rule of ``dyadic_forest``).

    One object (``keys`` is None) takes one ``searchsorted`` per root.
    Several objects take one per *round*: every object's next root at
    once, searched among the :func:`_object_keys`.
    """
    n = ts.size
    is_root = np.zeros(n, dtype=bool)
    if keys is None:
        w = window[0]
        i = 0
        while i < n:
            is_root[i] = True
            i = int(np.searchsorted(ts, ts[i] + w, side="right"))
        return is_root
    obj = np.flatnonzero(np.diff(offsets))
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


def _interval(g: np.ndarray, edges: SortedTable) -> np.ndarray:
    """Interval index of relative offsets ``g``: the least ``i >= 1`` with
    ``alpha ** -i <= g``."""
    return np.maximum(edges.table.size - edges.index(g), 1)


def _resolution_error(t: float, g: float, x: float) -> ValueError:
    """The oracle's rejection of an arrival ``t`` whose offset ``g`` from
    its window start ``x`` lies below ``MIN_RELATIVE_GAP``."""
    return ValueError(
        f"arrival {t} is within {g:.3e} of its window start "
        f"{x} (relative); below the {MIN_RELATIVE_GAP} resolution limit"
    )


def _split_level(ts, keys, members, o, e, x, c, edges, powers, parent, z):
    """Phase 1: one level placed from its windows' interval boundaries.

    Window ``k`` is owner ``o[k]``, members ``o[k] + 1 .. e[k] - 1``,
    start ``x[k]`` and cutoff ``c[k]``; ``members`` counts them all.
    Writes the heads' ``parent`` and ``z`` and returns the next level's
    ``(members, o, e, x, c)``, or None, placing nothing, when the level
    holds no more than ``SPLIT_RATIO`` members per boundary (its fixed
    cost counted in).
    """
    busy = e - o > 1  # a root window may hold no member
    if not busy.all():
        o, e, x, c = o[busy], e[busy], x[busy], c[busy]
    span = c - x
    first, last = o + 1, e - 1
    t_first = ts[first]
    g_first = (t_first - x) / span
    small = g_first < MIN_RELATIVE_GAP
    if small.any():
        j = int(np.argmax(small))  # the first offence in index order
        raise _resolution_error(t_first[j], g_first[j], x[j])
    idx_first = _interval(g_first, edges)
    steps = idx_first - _interval((ts[last] - x) / span, edges)
    n_steps = int(steps.sum())
    if members <= SPLIT_RATIO * (n_steps + SPLIT_LEVEL_COST):
        return None
    # Step j of a window goes from interval i to i - 1 (i = idx_first - j):
    # its boundary is the first member with g >= alpha ** -(i - 1).  Guess
    # it by searching for the edge time, then walk the guess to the exact
    # position, comparing the reference g against the same table edge.
    rank = np.arange(n_steps)
    lower = np.repeat(idx_first + np.cumsum(steps) - steps - 1, steps) - rank
    threshold = edges.table[edges.table.size - 1 - lower]
    xb, sb = np.repeat(x, steps), np.repeat(span, steps)
    edge_time = xb + threshold * sb
    if keys is None:
        pos = np.searchsorted(ts, edge_time, side="left")
    else:
        query = np.empty(n_steps, dtype=np.complex128)
        query.real = keys.real[np.repeat(o, steps)]
        query.imag = edge_time
        pos = np.searchsorted(keys, query, side="left")
    pos = np.minimum(np.maximum(pos, np.repeat(first + 1, steps)), np.repeat(last, steps))
    move = rank
    while move.size:
        p = pos[move]
        xm, sm, thr = xb[move], sb[move], threshold[move]
        shift = ((ts[p] - xm) / sm < thr).astype(np.intp)
        shift -= (ts[p - 1] - xm) / sm >= thr
        moved = shift != 0
        move = move[moved]
        pos[move] += shift[moved]
    # Heads in window order: each window's first member, then its
    # boundaries, non-decreasing.  Equal boundaries are one head, whose
    # interval is that of the last step to reach it.
    heads = np.empty(o.size + n_steps, dtype=np.intp)
    idx = np.empty_like(heads)
    at_first = np.zeros(heads.size, dtype=bool)
    at_first[np.cumsum(steps + 1) - steps - 1] = True
    heads[at_first], idx[at_first] = first, idx_first
    heads[~at_first], idx[~at_first] = pos, lower
    last_of = np.empty(heads.size, dtype=bool)
    last_of[-1] = True
    np.not_equal(heads[1:], heads[:-1], out=last_of[:-1])
    heads, idx = heads[last_of], idx[last_of]
    win = np.repeat(np.arange(o.size), steps + 1)[last_of]
    # A run ends before the next head, or at its window's last member.
    run_end = np.minimum(np.append(heads[1:], ts.size), e[win]) - 1
    parent[heads] = o[win]
    z[heads] = ts[run_end]
    xh = x[win]
    child_hi = xh + span[win] / powers[idx - 1]
    busy = run_end > heads
    members -= heads.size
    heads = heads[busy]
    return members, heads, run_end[busy] + 1, ts[heads], child_hi[busy]


def _member_blocks(counts: np.ndarray, members: int) -> List[Tuple[int, int]]:
    """Phase 2's blocks ``(lo, hi)`` of consecutive windows, where window
    ``k`` holds ``counts[k]`` members: each block holds at most
    ``MEMBER_BLOCK`` members, or is one larger window alone."""
    if members <= MEMBER_BLOCK:
        return [(0, counts.size)]
    ends = np.cumsum(counts)
    blocks = []
    lo = 0
    while lo < counts.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + MEMBER_BLOCK, side="right"))
        hi = max(hi, lo + 1)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _member_loop(ts, o, x, c, counts, edges, powers, parent, z):
    """Phase 2 over windows ``o``, ``x``, ``c`` holding ``counts`` members:
    every remaining level of their subtrees, written into ``parent`` and
    ``z``.  Returns None, or stops at the first resolution offence by
    (level, index) and returns it as ``(level, index, t, g, x)``."""
    # Each level carries every unplaced member's time t, window start x
    # and cutoff, gathering the members that did not become children.
    owner = np.repeat(o, counts)
    # The k-th member overall, in window w, is o[w] + 1 + (k - start[w]).
    start = np.cumsum(counts) - counts
    m = np.arange(owner.size) + np.repeat(o + 1 - start, counts)
    x = np.repeat(x, counts)
    cutoff = np.repeat(c, counts)
    t = ts[m]
    level = 0
    while m.size:
        g = (t - x) / (cutoff - x)
        small = g < MIN_RELATIVE_GAP
        if small.any():
            j = int(np.argmax(small))
            return level, int(m[j]), t[j], g[j], x[j]
        idx = _interval(g, edges)
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
        # The r-th member kept, at position p, has p - r heads at or
        # before it: its run is head p - r - 1.
        stay = np.flatnonzero(~first)
        run = stay - np.arange(stay.size) - 1
        owner = child[run]
        x = t[heads][run]
        cutoff = child_hi[run]
        m = m[stay]
        t = t[stay]
        level += 1
    return None


def _dyadic_parents(
    ts: np.ndarray, offsets: np.ndarray, window: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(parent, z)`` of the dyadic forests of every object in ``ts``.

    Objects occupy ``ts[offsets[k]:offsets[k + 1]]`` with root windows
    ``window[k]``; parents are indices into ``ts``.  After the roots, the
    level loop runs once for all objects: it works on windows, and
    windows never span objects.  Phase 1 (:func:`_split_level`) places
    levels from their windows' ends and boundaries while they hold more
    than ``SPLIT_RATIO`` members per boundary; the first level that does
    not goes to phase 2, the member loop (:func:`_member_loop`, one
    block of windows at a time), which finishes the forest.
    """
    n = ts.size
    parent = np.full(n, -1, dtype=np.intp)
    keys = None if offsets.size == 2 else _object_keys(ts, offsets)
    is_root = _roots(ts, offsets, window, keys)
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
    # Root windows: owner o, members o + 1 .. e - 1, start x, cutoff c.
    o, e, x = roots, root_end, ts[roots]
    c = x + window[np.searchsorted(offsets, roots, side="right") - 1]
    edges, powers = _edge_table(alpha), _power_tables(alpha)[1]
    members = n - roots.size

    # Phase 1 while windows are large: split them at their boundaries.
    while members > SPLIT_RATIO * SPLIT_LEVEL_COST:
        split = _split_level(ts, keys, members, o, e, x, c, edges, powers, parent, z)
        if split is None:
            break
        members, o, e, x, c = split

    # Phase 2, one block of windows at a time: windows never share a
    # member, so a block runs all its levels alone.  Every block starts at
    # the same level, so the earliest offence by (level, index) over all
    # blocks is the one the loop over every window at once would meet.
    counts = e - o - 1
    offence = None
    for lo, hi in _member_blocks(counts, members):
        found = _member_loop(
            ts, o[lo:hi], x[lo:hi], c[lo:hi], counts[lo:hi], edges, powers, parent, z
        )
        if found is not None and (offence is None or found[:2] < offence[:2]):
            offence = found
    if offence is not None:
        raise _resolution_error(*offence[2:])
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
        # built from checked arrivals: not validated again, like the ragged form
        return FlatForest.concatenated(ts, parent, z)

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
