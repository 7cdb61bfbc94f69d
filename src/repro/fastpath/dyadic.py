"""Flat (alpha, beta)-dyadic merging — the array twin of ``baselines.dyadic``.

The recursive specification :func:`~repro.baselines.dyadic.dyadic_forest`
and the stack machine :class:`~repro.baselines.dyadic.DyadicOnline` both
materialise a :class:`~repro.core.merge_tree.MergeNode` per arrival, which
makes the dyadic comparator the slowest per-object step in catalog
provisioning runs (``fleet.run_fleet``) and in the dyadic simulation
policies.  This module re-expresses both constructions on
parent-index arrays:

* :func:`dyadic_flat_forest` — the batch construction, vectorised level
  by level: every tree level of every window is classified into dyadic
  intervals in one numpy pass (log + the same +-1 boundary corrections as
  the scalar :func:`~repro.baselines.dyadic.dyadic_interval_index`), run
  boundaries mark the new children, and the remainder of each run drops
  into its child's window for the next pass.  O(total tree depth) numpy
  work, no per-node Python objects.
* :class:`DyadicFlatOnline` — the incremental stack machine with the
  rightmost path held as parallel Python lists and the forest accumulated
  as a parent array; ``push`` is the same O(amortised 1) walk as
  ``DyadicOnline.push`` minus every ``MergeNode`` allocation.

Exactness contract (same shape as ``fastpath.general``): every interval
classification evaluates the exact float expressions of the reference —
``g = (t - x) / (y - x)`` against a table of ``alpha ** (-i)`` powers
computed by the *scalar* interpreter, and child windows
``x + (y - x) / alpha ** (i - 1)`` — so the resulting parent arrays are
**bit-identical** to ``dyadic_forest`` / ``DyadicOnline`` on every input
both accept, including arrivals exactly on interval edges or on the
cutoff.  ``tests/fastpath/test_dyadic_flat.py`` asserts node-for-node
equality on adversarial edge-grid traces for ``alpha = 2`` and
``alpha = phi``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.dyadic import (
    MIN_RELATIVE_GAP,
    DyadicParams,
    dyadic_interval_index,
)
from ..core.validation import check_finite_value
from .flat_forest import FlatForest

__all__ = ["dyadic_flat_forest", "dyadic_flat_cost", "DyadicFlatOnline"]


def _neg_powers(alpha: float, count: int) -> np.ndarray:
    """``[alpha**0, alpha**-1, ..., alpha**-count]`` via the scalar ``**``.

    The scalar reference compares ``g`` against ``alpha ** (-i)`` computed
    by CPython's float power; building the table with the same operator
    (rather than ``np.power``, whose SIMD path may differ in the last ULP)
    keeps edge-of-interval classifications bit-identical.
    """
    return np.asarray([alpha ** (-i) for i in range(count + 1)], dtype=np.float64)


def _pos_powers(alpha: float, count: int) -> np.ndarray:
    """``[alpha**0, alpha**1, ..., alpha**count]`` via the scalar ``**``."""
    return np.asarray([alpha ** i for i in range(count + 1)], dtype=np.float64)


def _interval_indices(
    g: np.ndarray, alpha: float, log_alpha: float, ts: np.ndarray, m: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`dyadic_interval_index` over relative offsets ``g``.

    ``ts[m]`` / ``x`` are only consulted to phrase the resolution-limit
    error exactly like the scalar path.
    """
    small = g < MIN_RELATIVE_GAP
    if np.any(small):
        j = int(np.nonzero(small)[0][0])
        raise ValueError(
            f"arrival {ts[m[j]]} is within {g[j]:.3e} of its window start "
            f"{x[j]} (relative); below the {MIN_RELATIVE_GAP} resolution limit"
        )
    idx = np.maximum(1, np.floor(-np.log(g) / log_alpha).astype(np.int64) + 1)
    # Correct float-log drift exactly as the scalar loops do: enforce
    # alpha^-i <= g (< alpha^-(i-1) unless i = 1) against scalar powers.
    table = _neg_powers(alpha, int(idx.max()) + 1)
    while True:
        over = table[idx] > g
        if not over.any():
            break
        idx[over] += 1
        if int(idx.max()) >= table.size - 1:
            table = _neg_powers(alpha, int(idx.max()) + 2)
    while True:
        under = (idx > 1) & (table[idx - 1] <= g)
        if not under.any():
            break
        idx[under] -= 1
    return idx


def dyadic_flat_forest(
    arrivals: Union[np.ndarray, Sequence[float]],
    L: float,
    params: DyadicParams = DyadicParams(),
) -> FlatForest:
    """Dyadic merge forest as a :class:`FlatForest`, vectorised (O(n)-ish).

    Structure is bit-identical to
    ``FlatForest.from_forest(dyadic_forest(arrivals, L, params))`` — the
    recursive builder stays in ``baselines.dyadic`` as the oracle.
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
    if np.any(ts[1:] <= ts[:-1]):
        raise ValueError("arrivals must be strictly increasing")
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    window = params.window(L)
    alpha = params.alpha
    log_alpha = math.log(alpha)

    parent = np.full(n, -1, dtype=np.intp)
    # Roots: a new root whenever an arrival falls beyond the current
    # root's cutoff; members of each root window seed the level walk.
    root_starts: List[int] = []
    root_ends: List[int] = []
    i = 0
    while i < n:
        j = int(np.searchsorted(ts, ts[i] + window, side="right"))
        root_starts.append(i)
        root_ends.append(j)
        i = j
    starts = np.asarray(root_starts, dtype=np.intp)
    ends = np.asarray(root_ends, dtype=np.intp)
    counts = ends - starts - 1  # members exclude the root itself
    # Member index list: for each root r, indices starts[r]+1 .. ends[r]-1.
    m = np.concatenate(
        [np.arange(s + 1, e, dtype=np.intp) for s, e in zip(root_starts, root_ends)]
    )
    owner = np.repeat(starts, counts)  # owning node index per member
    cutoff = np.repeat(ts[starts] + window, counts)
    # Subtree maxima come for free: a window's subtree is its member
    # slice, and a run's subtree is the run itself, so z is the last
    # member — no reverse pass needed at the end.
    z = ts.copy()
    z[starts] = ts[ends - 1]

    while m.size:
        x = ts[owner]
        g = (ts[m] - x) / (cutoff - x)
        idx = _interval_indices(g, alpha, log_alpha, ts, m, x)
        # Runs of consecutive members with the same (owner, interval):
        # the first member of a run becomes a child; the rest fall into
        # that child's window.
        first = np.empty(m.size, dtype=bool)
        first[0] = True
        first[1:] = (owner[1:] != owner[:-1]) | (idx[1:] != idx[:-1])
        parent[m[first]] = owner[first]
        first_pos = np.nonzero(first)[0]
        last_pos = np.append(first_pos[1:] - 1, m.size - 1)
        z[m[first]] = ts[m[last_pos]]
        # Child window right edge: x + span / alpha ** (idx - 1), with the
        # power from the scalar-computed table (see module docstring).
        pow_table = _pos_powers(alpha, int(idx[first].max()) - 1)
        child_hi = x[first] + (cutoff[first] - x[first]) / pow_table[idx[first] - 1]
        rest = ~first
        run_id = np.cumsum(first) - 1
        owner = m[first][run_id[rest]]
        cutoff = child_hi[run_id[rest]]
        m = m[rest]
    return FlatForest(ts, parent, z=z)


def dyadic_flat_cost(
    arrivals: Union[np.ndarray, Sequence[float]],
    L: float,
    params: DyadicParams = DyadicParams(),
) -> float:
    """Total receive-two bandwidth of the dyadic solution, flat path."""
    return dyadic_flat_forest(arrivals, L, params).full_cost(L)


class _FlatStackEntry:
    __slots__ = ("node", "cutoff", "last_child_interval")

    def __init__(self, node: int, cutoff: float, last_child_interval: Optional[int]):
        self.node = node
        self.cutoff = cutoff
        self.last_child_interval = last_child_interval


class DyadicFlatOnline:
    """Incremental dyadic merging into a parent array — no ``MergeNode``s.

    The drop-in flat twin of :class:`~repro.baselines.dyadic.DyadicOnline`
    for the simulation policies: ``push`` places one strictly-later
    arrival and returns its node index; :meth:`current_path` exposes the
    receiving path (root down to the arrival just placed) that merging
    policies hand to clients and walk for Lemma 1 ancestor extensions.
    Placement decisions replicate ``DyadicOnline.push`` exactly (same
    interval classifier, same window arithmetic), which the fastpath
    equivalence tests assert node for node; ``finish()`` returns the
    accumulated :class:`FlatForest`.
    """

    def __init__(self, L: float, params: DyadicParams = DyadicParams()):
        if L <= 0:
            raise ValueError(f"L must be positive, got {L}")
        self.L = L
        self.params = params
        self.arrivals: List[float] = []
        self.parent: List[int] = []
        self._stack: List[_FlatStackEntry] = []
        self._last_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self.arrivals)

    def push(self, t: float) -> int:
        """Place the arrival at time ``t``; returns its node index."""
        check_finite_value(t, what="arrival")
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(
                f"arrivals must be strictly increasing: {t} after {self._last_time}"
            )
        self._last_time = t
        node = len(self.arrivals)
        if not self._stack or t > self._stack[0].cutoff:
            self.arrivals.append(t)
            self.parent.append(-1)
            self._stack = [_FlatStackEntry(node, t + self.params.window(self.L), None)]
            return node
        depth = 0
        while True:
            entry = self._stack[depth]
            idx = dyadic_interval_index(
                t, self.arrivals[entry.node], entry.cutoff, self.params.alpha
            )
            if entry.last_child_interval is not None and idx == entry.last_child_interval:
                depth += 1  # belongs inside the current last child's window
                continue
            if entry.last_child_interval is not None and idx > entry.last_child_interval:
                raise AssertionError(
                    "dyadic interval index increased along time — "
                    "ordering invariant broken"
                )
            start = self.arrivals[entry.node]
            span = entry.cutoff - start
            hi = start + span / self.params.alpha ** (idx - 1)
            self.arrivals.append(t)
            self.parent.append(entry.node)
            entry.last_child_interval = idx
            del self._stack[depth + 1 :]
            self._stack.append(_FlatStackEntry(node, hi, None))
            return node

    def extend(self, arrivals: Sequence[float]) -> None:
        for t in arrivals:
            self.push(t)

    def current_path(self) -> Tuple[float, ...]:
        """Arrivals along the rightmost path, root first — the receiving
        path of the most recently pushed node."""
        return tuple(self.arrivals[e.node] for e in self._stack)

    def finish(self) -> FlatForest:
        if not self.arrivals:
            raise ValueError("no arrivals were pushed")
        return FlatForest(
            np.asarray(self.arrivals, dtype=np.float64),
            np.asarray(self.parent, dtype=np.intp),
        )
