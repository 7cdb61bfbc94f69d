"""Closed-form optimal merge cost and the O(n) off-line algorithm (Section 3.1).

The optimal merge cost for ``n`` consecutive arrivals has the elegant
Fibonacci closed form of Eq. (6) / Theorem 3:

    M(n) = (k - 1) n - F_{k+2} + 2        where  F_k <= n <= F_{k+1},

and the set ``I(n)`` of arrivals that can be the last to merge with the root
of an optimal tree is one of three Fibonacci intervals depending on where
``m = n - F_k`` falls (Theorem 3).  The max of ``I(n)`` obeys the simple
recurrence of Theorem 7,

    r(i) = r(i-1) + 1   if F_k < i <= F_k + F_{k-2}
    r(i) = r(i-1)       if F_k + F_{k-2} < i <= F_{k+1}

which yields an O(n) construction of an optimal merge tree.  For ``n`` a
Fibonacci number the optimal tree is unique — the *Fibonacci merge tree*
(Fig. 7).

This module provides the closed forms (scalar and numpy-vectorised), the
interval characterisation, the O(n) builder, and the exhaustive tools
behind the uniqueness/multiplicity claims of Figs. 6-7: an exact histogram
of merge costs over every preorder tree (:func:`merge_cost_counts`, which
counts without building a tree) and a brute-force tree enumerator, kept as
its oracle and as the source of Fig. 6's two trees.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import fibonacci as fibmod
from .fibonacci import bracket_index, fib
from .merge_tree import MergeNode, MergeTree

__all__ = [
    "merge_cost",
    "merge_cost_array",
    "root_merge_interval",
    "interval_case",
    "last_merge_table",
    "build_optimal_tree",
    "build_optimal_parent_array",
    "fibonacci_tree",
    "MAX_ENUMERATION_N",
    "merge_cost_counts",
    "enumerate_merge_trees",
    "enumerate_optimal_trees",
    "count_optimal_trees",
]


def merge_cost(n: int) -> int:
    """``M(n)`` in O(log n) via Eq. (6): ``(k-1)n - F_{k+2} + 2``.

    ``M(1) = 0``; requires ``n >= 1``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = bracket_index(n)
    return (k - 1) * n - fib(k + 2) + 2


def merge_cost_array(ns: Sequence[int]) -> np.ndarray:
    """Vectorised ``M(n)`` over an array of sizes (for parameter sweeps).

    Uses a searchsorted against the Fibonacci table instead of a Python loop,
    per the repo's numpy-vectorisation guideline for sweep-heavy paths.
    """
    arr = np.asarray(ns, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(arr < 1):
        raise ValueError("all sizes must be >= 1")
    n_max = int(arr.max())
    fibs = fibmod.fib_upto(max(n_max, 2))  # fibs[k] == F_k for k < len
    # bracket index: largest k with F_k <= n. Skip the duplicate F_1=1 by
    # searching over fibs[2:], so k = 2 + rightmost index with value <= n.
    tail = np.asarray(fibs[2:], dtype=np.int64)
    k = 2 + np.searchsorted(tail, arr, side="right") - 1
    # F_{k+2} = F_{k+1} + F_k; build a lookup long enough for k+2.
    k_max = int(k.max())
    lookup = np.asarray(
        [fib(i) for i in range(k_max + 3)], dtype=np.int64
    )
    return (k - 1) * arr - lookup[k + 2] + 2


def interval_case(n: int) -> Tuple[int, int, int]:
    """Return ``(k, m, i)``: the Theorem 3 decomposition of ``n``.

    ``n = F_k + m`` with ``0 <= m <= F_{k-1}`` and ``m`` in case interval
    ``m_i(k)``.  At interval endpoints the case is ambiguous (the paper's
    redundancy); we return the smallest applicable ``i``, except ``m = 0``
    which is reported as case 1 of bracket ``k`` (equivalently case 3 of
    bracket ``k-1``).
    """
    if n < 2:
        raise ValueError(f"interval_case requires n >= 2, got {n}")
    k = bracket_index(n)
    m = n - fib(k)
    if m <= fib(k - 3):
        return k, m, 1
    if m <= fib(k - 2):
        return k, m, 2
    return k, m, 3


def root_merge_interval(n: int) -> Tuple[int, int]:
    """``I(n)`` as an inclusive interval ``(lo, hi)`` (Theorem 3, Fig. 8).

    The members of ``I(n)`` are the arrivals that can be the last merge to
    the root in an optimal merge tree for ``[0, n-1]``.  Defined for
    ``n >= 2``.
    """
    k, m, case = interval_case(n)
    if case == 1:
        return fib(k - 1), fib(k - 1) + m
    if case == 2:
        return fib(k - 2) + m, fib(k - 1) + m
    return fib(k - 2) + m, fib(k)


def last_merge_table(n: int) -> List[int]:
    """``r(i) = max I(i)`` for ``i = 1..n`` in O(n) (Theorem 7 recurrence).

    ``r(1) = 0`` by convention (a single arrival has no merge).  The list is
    indexed so ``table[i] == r(i)`` with ``table[0]`` unused (set to 0).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = [0] * (n + 1)
    if n >= 2:
        table[2] = 1
    k = 3  # bracket such that F_k < i <= F_{k+1} for the current i
    for i in range(3, n + 1):
        while i > fib(k + 1):
            k += 1
        # Now F_k < i <= F_{k+1}.
        if i <= fib(k) + fib(k - 2):
            table[i] = table[i - 1] + 1
        else:
            table[i] = table[i - 1]
    return table


def build_optimal_tree(n: int, start: int = 0) -> MergeTree:
    """Construct an optimal merge tree for ``n`` arrivals in O(n) (Theorem 7).

    Arrivals are ``start, start+1, ..., start+n-1``.  The recursive rule: let
    ``r = r(size)``; build the tree for the first ``r`` arrivals and for the
    remaining ``size - r``, then attach the second root as a new last child
    of the first root.  Always picks ``max I(size)``, so for Fibonacci ``n``
    this is exactly the (unique) Fibonacci merge tree.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = last_merge_table(n)

    # Explicit stack instead of recursion: n can be large (recursion depth
    # for the Fibonacci split is O(log n), but left-heavy sizes near
    # interval edges can chain; the iterative form is uniformly safe).
    def build(offset: int, size: int) -> MergeNode:
        if size == 1:
            return MergeNode(offset)
        h = table[size]
        left = build(offset, h)
        right = build(offset + h, size - h)
        right.parent = left
        left.children.append(right)
        return left

    import sys

    old_limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(old_limit, 4 * n + 100))
        root = build(start, n)
    finally:
        sys.setrecursionlimit(old_limit)
    return MergeTree(root)


def build_optimal_parent_array(n: int) -> np.ndarray:
    """Parent-index array of the Theorem 7 optimal tree, no objects built.

    Entry ``i`` is the index of the parent of arrival ``i`` (``-1`` for
    the root at index 0) in the same tree :func:`build_optimal_tree`
    produces.  O(n) time and memory with an explicit work stack — the
    flat-array input the fastpath :class:`~repro.fastpath.FlatForest`
    constructors consume at scales where a MergeNode graph would thrash.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = last_merge_table(n)
    parent = np.full(n, -1, dtype=np.intp)
    stack: List[Tuple[int, int]] = [(0, n)]
    while stack:
        offset, size = stack.pop()
        if size == 1:
            continue
        h = table[size]
        # The right part's root (offset + h) merges into the left root.
        parent[offset + h] = offset
        stack.append((offset, h))
        stack.append((offset + h, size - h))
    return parent


def fibonacci_tree(k: int, start: int = 0) -> MergeTree:
    """The unique optimal merge tree for ``n = F_k`` arrivals (Fig. 7).

    Recursive structure: the right-most subtree of the tree for ``F_k`` is
    the tree for ``F_{k-2}`` and the rest is the tree for ``F_{k-1}``.
    Requires ``k >= 2`` (``F_2 = 1``).
    """
    if k < 2:
        raise ValueError(f"fibonacci_tree needs k >= 2, got {k}")
    return build_optimal_tree(fib(k), start=start)


# ---------------------------------------------------------------------------
# exhaustive enumeration (validation of Figs. 6-7 and Theorem 3)
# ---------------------------------------------------------------------------
#
# Every merge tree with the preorder property over arrivals 0..n-1 splits
# uniquely at its root's last child h (1 <= h <= n-1): a left part, the
# tree over 0..h-1 under root 0, and a right part, the subtree over
# h..n-1 rooted at h.  Conversely any pair of such trees joins back into
# one, so there are C_{n-1} trees (Catalan).  ``enumerate_merge_trees``
# builds them all; ``merge_cost_counts`` only counts them, per cost.


#: Largest ``n`` the exhaustive tools accept.  ``C_12 = 208012`` trees is
#: the last size that enumerates in seconds; one step further quintuples
#: the work, and nothing downstream needs it — optimal trees for any ``n``
#: come from the O(n) Theorem 7 builder / the DPs.
MAX_ENUMERATION_N: int = 13


def _check_enumerable(n: int) -> None:
    """The one size limit of the exhaustive tools (same error for each)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise ValueError(
            f"exhaustive tree enumeration at n={n} would range over the "
            f"Catalan number C_{n - 1} > 208012 candidate trees — an "
            f"exponential blow-up; the cap is n <= {MAX_ENUMERATION_N}.  "
            "For larger n use build_optimal_tree (Theorem 7, O(n)) or the "
            "repro.core.dp programs, which cover every optimum without "
            "enumeration."
        )


def merge_cost_counts(n: int) -> Dict[int, int]:
    """How many preorder merge trees over ``n`` arrivals have each merge cost.

    Returns ``{cost: count}`` over all ``C_{n-1}`` trees
    :func:`enumerate_merge_trees` yields, without building one.  With
    ``H(1) = {0: 1}``, the split at the root's last child ``h`` gives

        H(n)[a + b + 2n - h - 2] += H(h)[a] * H(n - h)[b],   h = 1 .. n-1,

    the cost recurrence of Eq. (5) carried over whole distributions.  It
    is exact because ``Mcost`` sums ``2 z - x - p`` over non-root nodes
    (``z`` the last descendant, ``p`` the parent):

    * a left-part node keeps its subtree and its parent, so its ``z`` and
      ``p`` are unchanged and the left part contributes its own cost ``a``;
    * a right-part node's term is invariant under translation, so the
      right part, shifted by ``h``, contributes its own cost ``b``;
    * node ``h`` itself has ``z = n - 1`` and ``p = 0``: it contributes
      ``2(n - 1) - h - 0``.

    So each tree is counted exactly once, at its exact integer cost (Python
    ints throughout).  Same size limit and error as the enumerator
    (:data:`MAX_ENUMERATION_N`), although ``n = 13`` takes milliseconds.
    """
    _check_enumerable(n)
    hist: List[Dict[int, int]] = [{}, {0: 1}]
    for size in range(2, n + 1):
        counts: Dict[int, int] = {}
        for h in range(1, size):
            shift = 2 * size - h - 2
            right = hist[size - h].items()
            for a, ca in hist[h].items():
                for b, cb in right:
                    cost = a + b + shift
                    counts[cost] = counts.get(cost, 0) + ca * cb
        hist.append(counts)
    return hist[n]


def enumerate_merge_trees(n: int, start: int = 0) -> Iterator[MergeTree]:
    """Yield every merge tree with the preorder property over ``n`` arrivals.

    These are exactly the candidates for optimality ([6] shows every optimal
    tree has the preorder property).  The count is the Catalan number
    ``C_{n-1}``, so ``n`` is capped at :data:`MAX_ENUMERATION_N`.  The
    brute-force oracle of :func:`merge_cost_counts`.
    """
    _check_enumerable(n)

    def gen(offset: int, size: int) -> Iterator[MergeNode]:
        if size == 1:
            yield MergeNode(offset)
            return
        # Choose h = size of the part before the last root child.
        for h in range(1, size):
            for left in gen(offset, h):
                for right in gen(offset + h, size - h):
                    root = _copy_node(left)
                    child = _copy_node(right)
                    child.parent = root
                    root.children.append(child)
                    yield root

    for root in gen(start, n):
        yield MergeTree(root)


def _copy_node(node: MergeNode) -> MergeNode:
    copy = MergeNode(node.arrival)
    for child in node.children:
        cc = _copy_node(child)
        cc.parent = copy
        copy.children.append(cc)
    return copy


def enumerate_optimal_trees(n: int, start: int = 0) -> List[MergeTree]:
    """All optimal merge trees for ``n`` arrivals (exhaustive; small n only).

    Fig. 6 shows the two optimal trees for n = 4; Fig. 7 the unique trees for
    Fibonacci n.  This function reproduces both.
    """
    best = merge_cost(n)
    return [
        t for t in enumerate_merge_trees(n, start=start) if t.merge_cost() == best
    ]


def count_optimal_trees(n: int) -> int:
    """Number of distinct optimal merge trees for ``n`` arrivals (small n).

    Read off the cost histogram: the count at its smallest cost.
    """
    counts = merge_cost_counts(n)
    return counts[min(counts)]
