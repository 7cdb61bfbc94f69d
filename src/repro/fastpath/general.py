"""General-arrivals optimal merging with the Knuth speed-up — full solution.

The Bar-Noy & Ladner [6] interval DP (Lemma 2),

    M[i][j] = min_{i < h <= j} { M[i][h-1] + M[h][j] + (2 t_j - t_h - t_i) },

costs O(n^3) when every cell scans every split — that is the reference
oracle kept as :func:`repro.core.dp.general_arrivals_cost_reference` /
:func:`repro.core.general.optimal_forest_general_reference`.  The
per-split weight ``2 t_j - t_h - t_i`` decomposes as a cell weight
``w(i, j) = 2 t_j - t_i`` (which satisfies the quadrangle inequality and
is monotone on the lattice of intervals) minus ``t_h``, so the canonical
optimal split is monotone in both endpoints à la Knuth/Yao:

    K[i][j-1] <= K[i][j] <= K[i+1][j].

Restricting each cell's scan to that window makes every anti-diagonal
O(n) amortised and the whole table O(n^2).  The windows are tiny (O(1)
amortised), so a plain Python inner loop beats a vectorised one here —
per-cell numpy slicing overhead dominates windows of a few elements.

This module carries the *whole* general-arrivals solution, not just the
cost (PR 1 stopped at the cost):

* :func:`general_merge_tables` — the O(n^2) Knuth tables ``(cost, split)``
  with the reference's **largest-argmin** split convention, so
  reconstruction reproduces the reference trees node for node;
* :func:`optimal_flat_forest_general` — the span-constrained
  root-placement prefix DP over those tables, plus an iterative
  (explicit-stack) reconstruction straight into
  :class:`~repro.fastpath.flat_forest.FlatForest` parent arrays — no
  :class:`~repro.core.merge_tree.MergeNode` recursion anywhere;
* :func:`general_arrivals_cost` — the cost-only entry point.

Exactness contract: every candidate evaluates the exact float expression
of the reference DP, in the same association order.  On arrival times
that are exactly representable in binary floating point — integers,
slot-end grids, any dyadic-rational timeline — all arithmetic is exact,
Knuth/Yao monotonicity holds for the computed values, and the tables,
forests and costs are **bit-identical** to the cubic reference
(``tests/fastpath/test_general_forest.py`` asserts node-for-node
equality on randomized exact-grid traces).  On non-representable inputs
(e.g. a 1e-3 grid) an exact-rational tie between two splits can round
differently per candidate, so agreement there is mathematical rather
than bitwise — observed relative deviations are at the few-ULP level and
the tests bound them at 1e-9.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.validation import check_strictly_increasing
from .flat_forest import FlatForest

__all__ = [
    "general_arrivals_cost",
    "general_merge_tables",
    "general_forest_bounds",
    "optimal_flat_forest_general",
    "optimal_flat_tree_general",
]


def _knuth_tables(ts: List[float]) -> Tuple[List[List[float]], List[List[int]]]:
    """O(n^2) DP tables ``(cost, split)`` for validated increasing ``ts``.

    ``cost[i][j]`` is the optimal merge cost of arrivals ``i..j`` rooted
    at ``i``; ``split[i][j]`` the largest optimal ``h`` (the reference's
    ``<=`` tie-break), scanned only over the Knuth window
    ``[split[i][j-1], split[i+1][j]]``.
    """
    n = len(ts)
    cost = [[0.0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        # Same expression as the reference (h = j = i + 1).
        cost[i][i + 1] = 2 * ts[i + 1] - ts[i + 1] - ts[i]
        split[i][i + 1] = i + 1
    for width in range(2, n):
        for i in range(n - width):
            j = i + width
            lo = split[i][j - 1]
            hi = split[i + 1][j]
            row = cost[i]
            best = row[lo - 1] + cost[lo][j] + (2 * ts[j] - ts[lo] - ts[i])
            best_h = lo
            for h in range(lo + 1, hi + 1):
                v = row[h - 1] + cost[h][j] + (2 * ts[j] - ts[h] - ts[i])
                if v <= best:  # <=: prefer the largest h, like the reference
                    best = v
                    best_h = h
            cost[i][j] = best
            split[i][j] = best_h
    return cost, split


def general_merge_tables(
    arrivals: Sequence[float],
) -> Tuple[List[List[float]], List[List[int]]]:
    """Validated public wrapper around the Knuth ``(cost, split)`` tables.

    Drop-in for ``repro.core.general._merge_tables`` at O(n^2) instead of
    O(n^3); the split convention (largest optimal ``h``) matches, so the
    reference reconstruction applied to these tables yields its trees.
    """
    ts = [float(t) for t in arrivals]
    check_strictly_increasing(ts)
    return _knuth_tables(ts)


def general_arrivals_cost(arrivals: Sequence[float]) -> float:
    """Optimal merge cost for sorted arrival times in O(n^2) time/space.

    Exact drop-in for the reference cubic DP: same validation (plus
    non-finite rejection), same values, same int-collapsing of integral
    results.  See the module docstring for the exactness contract.
    """
    ts = [float(t) for t in arrivals]
    n = len(ts)
    if n == 0:
        return 0
    check_strictly_increasing(ts)
    if n == 1:
        return 0
    cost, _split = _knuth_tables(ts)
    value = cost[0][n - 1]
    return int(value) if float(value).is_integer() else value


def general_forest_bounds(
    ts: Sequence[float], cost: List[List[float]], L: float
) -> List[Tuple[int, int]]:
    """Span-constrained root placement over prefixes (Section 3.2 for [6]).

        best(j) = min_{i <= j} best(i - 1) + L + cost(i, j)   (t_i a root)

    subject to ``t_j - t_i <= L - 1``.  Returns the inclusive index
    bounds ``(i, j)`` of each tree, left to right — the same scan order,
    comparisons and tie-breaks as the cubic reference, so identical cost
    tables imply identical boundaries.  O(n * window) <= O(n^2).
    """
    n = len(ts)
    INF = float("inf")
    best = [0.0] * (n + 1)  # best[j]: optimal cost of serving ts[:j]
    choice: List[int] = [0] * (n + 1)  # root index for the last tree
    for j in range(1, n + 1):
        best_val, best_i = INF, -1
        for i in range(j - 1, -1, -1):
            if ts[j - 1] - ts[i] > L - 1:
                break  # spans only grow as i decreases
            c = best[i] + L + cost[i][j - 1]
            if c < best_val:
                best_val, best_i = c, i
        if best_i < 0:
            raise ValueError(
                f"no feasible forest: gap before arrival {ts[j - 1]} "
                f"exceeds L - 1 = {L - 1}"
            )
        best[j] = best_val
        choice[j] = best_i
    bounds: List[Tuple[int, int]] = []
    j = n
    while j > 0:
        i = choice[j]
        bounds.append((i, j - 1))
        j = i
    bounds.reverse()
    return bounds


def _fill_parents(
    parent: np.ndarray, split: List[List[int]], lo: int, hi: int
) -> None:
    """Parent pointers for the tree over arrivals ``lo..hi`` rooted at ``lo``.

    Iterative version of the reference ``_reconstruct``: the segment
    ``(i, j)`` splits at ``h = split[i][j]`` into ``(i, h-1)`` rooted at
    ``i`` and ``(h, j)`` rooted at ``h``, with ``h`` a child of ``i`` —
    an explicit work stack instead of recursion, O(1) amortised per node.
    """
    if lo == hi:
        return
    stack = [(lo, hi)]
    while stack:
        i, j = stack.pop()
        if i == j:
            continue
        h = split[i][j]
        parent[h] = i
        stack.append((i, h - 1))
        stack.append((h, j))


def optimal_flat_forest_general(arrivals: Sequence[float], L: float):
    """Optimal merge forest for arbitrary arrivals as a ``FlatForest``.

    Minimises ``s * L + sum of merge costs`` subject to every tree
    spanning at most ``L - 1`` — the same solution the cubic
    :func:`repro.core.general.optimal_forest_general_reference` builds,
    in O(n^2) time with no ``MergeNode`` allocation (the parent/z arrays
    are filled directly; ``.to_forest()`` recovers the object form
    losslessly when needed).
    """
    ts = [float(t) for t in arrivals]
    if not ts:
        raise ValueError("need at least one arrival")
    check_strictly_increasing(ts)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    cost, split = _knuth_tables(ts)
    bounds = general_forest_bounds(ts, cost, L)
    parent = np.full(len(ts), -1, dtype=np.intp)
    for lo, hi in bounds:
        _fill_parents(parent, split, lo, hi)
    forest = FlatForest(np.asarray(ts, dtype=np.float64), parent)
    forest.validate_for_length(L)
    return forest


def optimal_flat_tree_general(arrivals: Sequence[float]):
    """One optimal merge tree (all arrivals merge into the first) — flat.

    The unconstrained single-segment case of
    :func:`optimal_flat_forest_general`: no root-placement DP, no span
    check (use the forest builder when ``L`` matters).  O(n^2).
    """
    ts = [float(t) for t in arrivals]
    if not ts:
        raise ValueError("need at least one arrival")
    check_strictly_increasing(ts)
    _cost, split = _knuth_tables(ts)
    parent = np.full(len(ts), -1, dtype=np.intp)
    _fill_parents(parent, split, 0, len(ts) - 1)
    return FlatForest(np.asarray(ts, dtype=np.float64), parent)
