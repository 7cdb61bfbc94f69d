"""Fibonacci-number utilities underpinning the optimal merge-cost formulas.

The closed form for the optimal merge cost (Eq. (6) of the paper) and the
characterisation of optimal root merges (Theorem 3) are stated in terms of
Fibonacci numbers with the indexing convention

    F_0 = 0, F_1 = 1, F_k = F_{k-1} + F_{k-2},

so F_2 = 1, F_3 = 2, F_4 = 3, F_5 = 5, ...  All helpers in this module use
that convention.  Lookups are O(log_phi n) by walking a cached table, which
is the complexity the paper assumes when it states linear-time totals
(see the proof of Theorem 7).
"""

from __future__ import annotations

import math
from typing import List

__all__ = [
    "PHI",
    "PHI_HAT",
    "fib",
    "fib_upto",
    "fib_index",
    "bracket_index",
    "largest_fib_leq",
    "smallest_fib_geq",
    "is_fib",
    "fib_floor_log",
    "tree_size_index",
]

#: The golden ratio, the positive root of x^2 = x + 1.
PHI: float = (1.0 + math.sqrt(5.0)) / 2.0

#: The conjugate root (1 - sqrt 5)/2 of x^2 = x + 1.
PHI_HAT: float = (1.0 - math.sqrt(5.0)) / 2.0

# Grown-on-demand table of Fibonacci numbers, _FIBS[k] == F_k.
_FIBS: List[int] = [0, 1]


def _extend_to_index(k: int) -> None:
    while len(_FIBS) <= k:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])


def _extend_to_value(n: int) -> None:
    while _FIBS[-1] < n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])


def fib(k: int) -> int:
    """Return ``F_k`` (``F_0 = 0``, ``F_1 = F_2 = 1``).

    Raises ``ValueError`` for negative ``k``.
    """
    if k < 0:
        raise ValueError(f"Fibonacci index must be non-negative, got {k}")
    _extend_to_index(k)
    return _FIBS[k]


def fib_upto(n: int) -> List[int]:
    """Return ``[F_0, F_1, ..., F_m]`` where ``F_m`` is the largest ``<= n``.

    For ``n < 0`` returns an empty list.  Duplicated 1s (``F_1`` and ``F_2``)
    are both present, matching the index convention.
    """
    if n < 0:
        return []
    _extend_to_value(n)
    out = []
    for value in _FIBS:
        if value > n:
            break
        out.append(value)
    return out


def fib_index(value: int) -> int:
    """Return the largest ``k`` with ``F_k == value`` for a Fibonacci number.

    ``fib_index(1) == 2`` (ambiguity F_1 = F_2 = 1 resolved upward, which is
    the resolution the paper's redundancy argument uses).  Raises
    ``ValueError`` if ``value`` is not a Fibonacci number.
    """
    if value < 0:
        raise ValueError(f"not a Fibonacci number: {value}")
    _extend_to_value(max(value, 1))
    # Scan from the top of the relevant prefix so the *largest* index wins.
    for k in range(len(_FIBS) - 1, -1, -1):
        if _FIBS[k] == value:
            return k
        if _FIBS[k] < value:
            break
    raise ValueError(f"not a Fibonacci number: {value}")


def bracket_index(n: int) -> int:
    """Return the ``k >= 2`` with ``F_k <= n <= F_{k+1}`` (largest such k).

    This is the index used throughout Theorem 3: for ``n = F_k`` exactly, the
    formula for ``M(n)`` is redundant between ``k`` and ``k+1``; we return the
    larger bracket (``F_k = n`` as the *lower* end), i.e. the unique ``k``
    with ``F_k <= n < F_{k+1}`` for non-Fibonacci ``n`` and ``k`` such that
    ``n = F_k`` otherwise.  Requires ``n >= 1``.
    """
    if n < 1:
        raise ValueError(f"bracket_index requires n >= 1, got {n}")
    _extend_to_value(n + 1)
    # Find largest k with F_k <= n.  Start at k=2 so F_k=1 covers n=1.
    k = 2
    for idx in range(2, len(_FIBS)):
        if _FIBS[idx] <= n:
            k = idx
        else:
            break
    return k


def largest_fib_leq(n: int) -> int:
    """Return the largest Fibonacci number ``<= n`` (``n >= 1``)."""
    return fib(bracket_index(n))


def smallest_fib_geq(n: int) -> int:
    """Return the smallest Fibonacci number ``>= n`` (``n >= 0``)."""
    if n <= 0:
        return 0
    k = bracket_index(n)
    value = fib(k)
    return value if value == n else fib(k + 1)


def is_fib(n: int) -> bool:
    """Return True iff ``n`` is a Fibonacci number."""
    if n < 0:
        return False
    _extend_to_value(max(n, 1))
    return n in _FIBS


def fib_floor_log(n: int) -> float:
    """Return ``log_phi(n)`` for ``n >= 1`` (float)."""
    if n < 1:
        raise ValueError(f"log_phi requires n >= 1, got {n}")
    return math.log(n) / math.log(PHI)


def tree_size_index(L: int) -> int:
    """Return the index ``h`` with ``F_{h+1} < L + 2 <= F_{h+2}``.

    This is the bracketing used by Theorem 12 (optimal number of full
    streams) and by the on-line Delay Guaranteed algorithm, whose static
    merge-tree size is ``F_h``.  Requires ``L >= 1``.

    Examples from the paper: ``L = 1 -> h = 2`` (``F_3 < 3 <= F_4``),
    ``L = 2 -> h = 3``, ``L = 4 -> h = 4``.
    """
    # NaN fails every comparison; an infinite L would grow the table forever.
    if not 1 <= L < math.inf:
        raise ValueError(f"stream length L must be finite and >= 1, got {L}")
    target = L + 2
    _extend_to_value(target)
    # smallest index j with F_j >= target, searching from k=3 upward;
    # then h = j - 2.  (F_{h+2} >= L+2 and F_{h+1} < L+2.)
    j = 3
    while fib(j) < target:
        j += 1
    return j - 2
