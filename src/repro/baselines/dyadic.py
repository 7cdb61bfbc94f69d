"""The (alpha, beta)-dyadic stream merging algorithm (Coffman, Jelenkovic,
Momcilovic [9]) — the on-line comparator of Section 4.2.

For a root stream started at ``x``, arrivals up to the cutoff
``y = x + beta * L`` may merge into it.  The window ``[x, y]`` is split into
geometrically shrinking *dyadic intervals* (Fig. 10)

    I_1 = [x + (y-x)/alpha,   y]            (nearest the cutoff)
    I_i = [x + (y-x)/alpha^i, x + (y-x)/alpha^{i-1})   for i >= 2,

the earliest arrival inside each non-empty interval becomes a child of the
root, and the construction recurses inside each interval with the child as
the new root and the interval's right edge as the new cutoff.  Arrivals
after the cutoff start a new root.  The original paper used ``alpha = 2``
and ``beta = 0.5``; Bar-Noy et al. run it with ``alpha = phi`` and
``beta = 0.5`` for Poisson arrivals / ``beta = F_h / L`` for constant-rate
arrivals (Section 4.2).

Because arrivals are processed in increasing time order and interval
indices only decrease along time within a window, the algorithm is
implementable on-line with a stack holding the current rightmost path
(``DyadicOnline``); the batch recursion (:func:`dyadic_forest`) is the
specification.  Both produce identical forests (tested).  Both build
``MergeNode`` objects: ``DyadicOnline`` places the arrivals of the event
simulation's dyadic policies, and both are the *oracles* for the flat
batch builder ``fastpath.dyadic.dyadic_flat_forest``, which the fleet
engine, catalog provisioning sweeps and the live tier run on.

Costs are the receive-two costs of the resulting merge forest: roots pay
``L``, a non-root ``v`` pays ``l(v) = 2 z(v) - v - p(v)`` (Lemma 1, valid
for general arrival times per [6]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.fibonacci import PHI, fib, tree_size_index
from ..core.merge_tree import MergeForest, MergeNode, MergeTree
from ..core.validation import check_finite_value, check_strictly_increasing

__all__ = [
    "MIN_ALPHA",
    "MIN_RELATIVE_GAP",
    "DyadicParams",
    "check_stream_length",
    "dyadic_interval_index",
    "dyadic_tree",
    "dyadic_forest",
    "dyadic_cost",
    "DyadicOnline",
    "paper_beta",
]


#: Smallest allowed relative offset ``(t - x) / (y - x)`` of an arrival
#: inside a dyadic window.  Below this the interval index would exceed any
#: realistic tree depth (and float arithmetic degenerates); real media
#: timelines are nowhere near this resolution.
MIN_RELATIVE_GAP: float = 1e-12

#: Smallest allowed interval ratio ``alpha``.  The interval index of an
#: offset at the resolution limit is about ``log(1/MIN_RELATIVE_GAP) /
#: log(alpha)``: 106 at ``alpha = 1.3``, 2,777 at this floor, and without
#: a floor it grows without bound as ``alpha`` approaches 1 (the flat
#: construction classifies against a table of that many powers).
MIN_ALPHA: float = 1.01


def check_stream_length(L: float) -> None:
    """Reject a non-positive or non-finite stream length ``L``.

    NaN fails every comparison, so ``L <= 0`` alone would let it through
    and every window would become NaN.
    """
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")


@dataclass(frozen=True)
class DyadicParams:
    """Algorithm parameters: interval ratio ``alpha`` and cutoff ``beta``.

    ``alpha >= MIN_ALPHA`` (finite); ``beta in (0, 1]`` is the root-merge
    window as a fraction of the stream length ``L``.  ``beta <= (L-1)/L``
    keeps every tree span within ``L - 1`` (required for the last arrival
    to finish merging); the paper's choices (0.5 or F_h/L) always satisfy
    that for ``L >= 2``.
    """

    alpha: float = PHI
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= MIN_ALPHA):
            raise ValueError(
                f"alpha must be finite and at least {MIN_ALPHA}, got {self.alpha}"
            )
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    def window(self, L: float) -> float:
        """Root-merge window length ``beta * L``."""
        return self.beta * L


def paper_beta(L: int, arrivals: str) -> float:
    """The beta the paper uses per workload type (Section 4.2).

    ``beta = 0.5`` for Poisson arrivals and ``beta = F_h / L`` for
    constant-rate arrivals, where ``F_{h+1} < L + 2 <= F_{h+2}`` — chosen
    because the optimal number of arrivals per tree is roughly ``F_h``
    (Theorem 12).
    """
    if arrivals == "poisson":
        return 0.5
    if arrivals == "constant":
        return fib(tree_size_index(L)) / L
    raise ValueError(f"unknown arrival type {arrivals!r}")


def dyadic_interval_index(t: float, x: float, y: float, alpha: float) -> int:
    """Index ``i >= 1`` of the dyadic interval of ``[x, y]`` containing ``t``.

    ``t`` must satisfy ``x < t <= y``.  Interval 1 is nearest ``y``; the
    left edges are ``x + (y - x) / alpha^i``.  Computed from a logarithm
    and then corrected by +-1 steps so boundary arrivals land in the
    closed-left interval deterministically.
    """
    if not x < t <= y:
        raise ValueError(f"t={t} outside ({x}, {y}]")
    g = (t - x) / (y - x)
    if g < MIN_RELATIVE_GAP:
        raise ValueError(
            f"arrival {t} is within {g:.3e} of its window start {x} "
            f"(relative); below the {MIN_RELATIVE_GAP} resolution limit"
        )
    log_alpha = math.log(alpha)
    i = max(1, int(math.floor(-math.log(g) / log_alpha)) + 1)
    # Correct float-log drift: enforce alpha^-i <= g (< alpha^-(i-1) unless i=1).
    while alpha ** (-i) > g:
        i += 1
    while i > 1 and alpha ** (-(i - 1)) <= g:
        i -= 1
    return i


def _build_subtree(
    root_time: float,
    cutoff: float,
    arrivals: Sequence[float],
    alpha: float,
) -> MergeNode:
    """Recursive specification: subtree rooted at ``root_time`` over
    ``arrivals`` (all in ``(root_time, cutoff]``, increasing)."""
    node = MergeNode(root_time)
    if not arrivals:
        return node
    # Group consecutive arrivals by their dyadic interval index.  Indices
    # are non-increasing over increasing time, so groups are contiguous.
    groups: List[Tuple[int, List[float]]] = []
    for t in arrivals:
        idx = dyadic_interval_index(t, root_time, cutoff, alpha)
        if groups and groups[-1][0] == idx:
            groups[-1][1].append(t)
        else:
            groups.append((idx, [t]))
    # Earliest arrival of each group becomes a child; recurse on the rest.
    # Children must be attached in increasing time = reversed group order
    # (higher interval index = closer to the root's start time = earlier).
    for idx, members in sorted(groups, key=lambda g: -g[0]):
        child_time = members[0]
        span = cutoff - root_time
        hi = root_time + span / alpha ** (idx - 1)
        child = _build_subtree(child_time, hi, members[1:], alpha)
        child.parent = node
        node.children.append(child)
    return node


def dyadic_tree(
    arrivals: Sequence[float], L: float, params: DyadicParams = DyadicParams()
) -> MergeTree:
    """Dyadic merge tree for arrivals that all merge to the first one.

    All arrivals must lie within ``arrivals[0] + beta * L``.
    """
    check_stream_length(L)
    ts = list(arrivals)
    if not ts:
        raise ValueError("need at least one arrival")
    check_strictly_increasing(ts, what="arrivals")
    root, rest = ts[0], ts[1:]
    cutoff = root + params.window(L)
    if rest and rest[-1] > cutoff:
        raise ValueError(
            f"arrival {rest[-1]} beyond the root cutoff {cutoff}; "
            "use dyadic_forest"
        )
    return MergeTree(_build_subtree(root, cutoff, rest, params.alpha))


def dyadic_forest(
    arrivals: Sequence[float], L: float, params: DyadicParams = DyadicParams()
) -> MergeForest:
    """Dyadic merge forest over an arbitrary increasing arrival sequence.

    A new root starts whenever an arrival falls beyond the current root's
    cutoff ``root + beta * L``.
    """
    check_stream_length(L)
    ts = list(arrivals)
    if not ts:
        raise ValueError("need at least one arrival")
    check_strictly_increasing(ts, what="arrivals")
    trees: List[MergeTree] = []
    i = 0
    while i < len(ts):
        root = ts[i]
        cutoff = root + params.window(L)
        j = i + 1
        while j < len(ts) and ts[j] <= cutoff:
            j += 1
        trees.append(
            MergeTree(_build_subtree(root, cutoff, ts[i + 1 : j], params.alpha))
        )
        i = j
    return MergeForest(trees)


def dyadic_cost(
    arrivals: Sequence[float], L: float, params: DyadicParams = DyadicParams()
) -> float:
    """Total receive-two bandwidth of the dyadic solution (in slot units).

    Evaluated on the flat fast path (vectorised construction + ``Fcost``);
    the recursive :func:`dyadic_forest` above is the structural oracle it
    is property-tested against.
    """
    from ..fastpath.dyadic import dyadic_flat_forest

    return dyadic_flat_forest(arrivals, L, params).full_cost(L)


# ---------------------------------------------------------------------------
# On-line (stack) implementation
# ---------------------------------------------------------------------------


@dataclass
class _StackEntry:
    node: MergeNode
    cutoff: float  # right edge of the window this node owns
    last_child_interval: Optional[int]  # dyadic index of the last child


class DyadicOnline:
    """Incremental dyadic merging: feed arrivals one at a time.

    Maintains the rightmost path as a stack.  For each new arrival the
    placement walks down the rightmost path: at node ``v`` (window
    ``[v, cutoff_v]``) the arrival's dyadic interval index either equals the
    index of ``v``'s last child (descend into that child) or is strictly
    smaller (becomes a new last child of ``v``).  Indices along increasing
    time never grow, which is what makes the on-line construction agree
    with the batch recursion.

    ``finish()`` returns the accumulated :class:`MergeForest`.
    """

    def __init__(self, L: float, params: DyadicParams = DyadicParams()):
        check_stream_length(L)
        self.L = L
        self.params = params
        self._roots: List[MergeNode] = []
        self._stack: List[_StackEntry] = []
        self._last_time: Optional[float] = None

    def push(self, t: float) -> MergeNode:
        """Process the arrival at time ``t`` (strictly increasing).

        Returns the newly placed node (its ``parent`` chain gives the
        receiving path, which merging simulators use to extend ancestor
        streams per Lemma 1).
        """
        check_finite_value(t, what="arrival")
        if self._last_time is not None and t <= self._last_time:
            raise ValueError(
                f"arrivals must be strictly increasing: {t} after {self._last_time}"
            )
        self._last_time = t
        if not self._stack or t > self._stack[0].cutoff:
            root = MergeNode(t)
            self._roots.append(root)
            self._stack = [
                _StackEntry(root, t + self.params.window(self.L), None)
            ]
            return root
        # Walk down from the root of the current tree along the stack.
        depth = 0
        while True:
            entry = self._stack[depth]
            idx = dyadic_interval_index(
                t, entry.node.arrival, entry.cutoff, self.params.alpha
            )
            if entry.last_child_interval is not None and idx == entry.last_child_interval:
                depth += 1  # belongs inside the current last child's window
                continue
            if entry.last_child_interval is not None and idx > entry.last_child_interval:
                raise AssertionError(
                    "dyadic interval index increased along time — "
                    "ordering invariant broken"
                )
            # New child of entry.node in interval idx.
            span = entry.cutoff - entry.node.arrival
            hi = entry.node.arrival + span / self.params.alpha ** (idx - 1)
            child = MergeNode(t)
            child.parent = entry.node
            entry.node.children.append(child)
            entry.last_child_interval = idx
            del self._stack[depth + 1 :]
            self._stack.append(_StackEntry(child, hi, None))
            return child

    def extend(self, arrivals: Sequence[float]) -> None:
        for t in arrivals:
            self.push(t)

    def finish(self) -> MergeForest:
        if not self._roots:
            raise ValueError("no arrivals were pushed")
        return MergeForest([MergeTree(r) for r in self._roots])
