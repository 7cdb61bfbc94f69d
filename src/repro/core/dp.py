"""O(n^2) dynamic programs for optimal merge costs (the [6] baseline).

The paper's O(n) algorithm (Theorem 7) improves on the quadratic dynamic
program implied by the general-arrivals solution of Bar-Noy & Ladner [6].
This module implements that quadratic reference for both client models:

* receive-two, Eq. (5):   ``M(n)  = min_h { M(h) + M(n-h) + 2n - h - 2 }``
* receive-all, Eq. (19):  ``Mw(n) = min_h { Mw(h) + Mw(n-h) } + n - 1``

with ``M(1) = Mw(1) = 0`` and ``h`` ranging over ``1..n-1`` (``h`` is the
index of the last arrival to merge directly with the root; the left subtree
holds arrivals ``0..h-1`` and the right subtree ``h..n-1``).

Besides costs, the DP exposes the argmin sets ``I(n)`` (used to validate the
Fibonacci interval characterisation of Theorem 3 / Fig. 8) and reconstructs
explicit optimal :class:`~repro.core.merge_tree.MergeTree` objects, giving an
independent oracle for the closed-form and O(n) constructions.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..fastpath import general as fast_general
from .merge_tree import MergeNode, MergeTree

__all__ = [
    "merge_cost_table",
    "merge_cost",
    "argmin_sets",
    "argmin_set",
    "build_optimal_tree_dp",
    "receive_all_cost_table",
    "receive_all_cost",
    "receive_all_argmin_sets",
    "build_optimal_tree_dp_receive_all",
    "general_arrivals_cost",
    "general_arrivals_cost_reference",
]


def merge_cost_table(n: int) -> List[int]:
    """Return ``[M(0), M(1), ..., M(n)]`` via the Eq. (5) recurrence.

    ``M(0)`` is defined as 0 for convenience (an empty tree costs nothing).
    Runs in O(n^2) time, O(n) space.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    table = [0] * (n + 1)
    for size in range(2, n + 1):
        best = min(
            table[h] + table[size - h] + 2 * size - h - 2
            for h in range(1, size)
        )
        table[size] = best
    return table


def merge_cost(n: int) -> int:
    """``M(n)`` by dynamic programming (O(n^2))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return merge_cost_table(n)[n]


def argmin_sets(n: int) -> List[List[int]]:
    """Return ``I(1), ..., I(n)`` as a list indexed by size (index 0 unused).

    ``I(size)`` is the set of ``h`` achieving the minimum in Eq. (5) — the
    arrivals that can be the last to merge to the root of an optimal merge
    tree for ``[0, size-1]``.  ``I(1)`` is the empty list.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = merge_cost_table(n)
    sets: List[List[int]] = [[] for _ in range(n + 1)]
    for size in range(2, n + 1):
        best = table[size]
        sets[size] = [
            h
            for h in range(1, size)
            if table[h] + table[size - h] + 2 * size - h - 2 == best
        ]
    return [sets[i] for i in range(1, n + 1)]


def argmin_set(n: int) -> List[int]:
    """``I(n)`` for a single ``n`` (O(n^2))."""
    return argmin_sets(n)[n - 1]


def _build_tree(
    start: int,
    size: int,
    split: Callable[[int], int],
) -> MergeNode:
    """Recursive Theorem-7-style constructor given a split choice function.

    Builds the optimal tree for arrivals ``start .. start+size-1`` where
    ``split(size)`` gives the relative index of the last arrival to merge
    with the root.
    """
    if size == 1:
        return MergeNode(start)
    h = split(size)
    if not 1 <= h <= size - 1:
        raise ValueError(f"split({size}) = {h} out of range")
    left = _build_tree(start, h, split)
    right = _build_tree(start + h, size - h, split)
    right.parent = left
    left.children.append(right)
    return left


def build_optimal_tree_dp(n: int, start: int = 0, prefer_max: bool = True) -> MergeTree:
    """Reconstruct an optimal receive-two merge tree from the DP (O(n^2)).

    ``prefer_max`` picks the largest argmin ``h`` at every level (matching
    the paper's ``r(i) = max I(i)`` convention); otherwise the smallest.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = merge_cost_table(n)

    def split(size: int) -> int:
        candidates = (
            h
            for h in range(1, size)
            if table[h] + table[size - h] + 2 * size - h - 2 == table[size]
        )
        return max(candidates) if prefer_max else min(candidates)

    return MergeTree(_build_tree(start, n, split))


# ---------------------------------------------------------------------------
# receive-all model
# ---------------------------------------------------------------------------


def receive_all_cost_table(n: int) -> List[int]:
    """Return ``[Mw(0), ..., Mw(n)]`` via the Eq. (19) recurrence."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    table = [0] * (n + 1)
    for size in range(2, n + 1):
        best = min(table[h] + table[size - h] for h in range(1, size))
        table[size] = best + size - 1
    return table


def receive_all_cost(n: int) -> int:
    """``Mw(n)`` by dynamic programming (O(n^2))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return receive_all_cost_table(n)[n]


def receive_all_argmin_sets(n: int) -> List[List[int]]:
    """Argmin sets for Eq. (19), indexed like :func:`argmin_sets`.

    The paper proves (below Eq. (20)) that the minimum is achieved exactly
    at ``h = floor(size/2)`` and ``h = ceil(size/2)``; these sets let tests
    confirm that claim.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = receive_all_cost_table(n)
    sets: List[List[int]] = [[] for _ in range(n + 1)]
    for size in range(2, n + 1):
        best = table[size] - (size - 1)
        sets[size] = [
            h for h in range(1, size) if table[h] + table[size - h] == best
        ]
    return [sets[i] for i in range(1, n + 1)]


def build_optimal_tree_dp_receive_all(n: int, start: int = 0) -> MergeTree:
    """Reconstruct an optimal receive-all merge tree from the DP."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    table = receive_all_cost_table(n)

    def split(size: int) -> int:
        target = table[size] - (size - 1)
        return max(
            h for h in range(1, size) if table[h] + table[size - h] == target
        )

    return MergeTree(_build_tree(start, n, split))


# ---------------------------------------------------------------------------
# general (non-uniform) arrivals — the full [6] quadratic DP
# ---------------------------------------------------------------------------


def general_arrivals_cost(arrivals: Sequence[float]) -> float:
    """Optimal merge cost for arbitrary sorted arrival times (from [6]).

    Delegates to the Knuth-optimized O(n^2) implementation in
    :func:`repro.fastpath.general.general_arrivals_cost`, which returns
    bit-identical values to the O(n^3) reference DP kept below as
    :func:`general_arrivals_cost_reference` (the correctness oracle the
    fastpath equivalence tests compare against).
    """
    return fast_general.general_arrivals_cost(arrivals)


def general_arrivals_cost_reference(arrivals: Sequence[float]) -> float:
    """The O(n^3) reference DP for the general-arrivals merge cost.

    Generalises Eq. (5) via Lemma 2: for arrivals ``t_i < ... < t_j`` with
    ``x = t_h`` the last direct merge to the root,

        M[i][j] = min_h { M[i][h-1] + M[h][j] + (2 t_j - t_h - t_i) }.

    Used to cross-check slotted results and to score baseline merge trees
    (e.g. dyadic) against the true optimum on irregular workloads.
    O(n^3) time — reference oracle only, keep inputs small.
    """
    ts = list(arrivals)
    if not ts:
        return 0
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("arrival times must be strictly increasing")
    n = len(ts)
    # cost[i][j]: optimal merge cost of arrivals i..j rooted at i.
    cost = [[0.0] * n for _ in range(n)]
    for width in range(1, n):
        for i in range(0, n - width):
            j = i + width
            cost[i][j] = min(
                cost[i][h - 1] + cost[h][j] + (2 * ts[j] - ts[h] - ts[i])
                for h in range(i + 1, j + 1)
            )
    value = cost[0][n - 1]
    return int(value) if float(value).is_integer() else value
