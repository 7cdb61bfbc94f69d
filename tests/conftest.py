"""Shared pytest fixtures and hypothesis strategies."""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.merge_tree import MergeNode, MergeTree


# ---------------------------------------------------------------------------
# hypothesis profiles
# ---------------------------------------------------------------------------

#: ``make fuzz`` loads this profile (``--hypothesis-profile=fuzz``) to run
#: the hostile-input fuzzers at a CI size of 10^4 examples each.
settings.register_profile("fuzz", max_examples=10_000, deadline=None)


def fuzz_examples(tier1: int) -> int:
    """Example count of a hostile-input fuzzer: ``tier1`` in the tier-1
    suite, the ``fuzz`` profile's count when that profile is loaded."""
    return max(tier1, settings.default.max_examples)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

#: sizes small enough for the O(n^2) DP oracle
small_n = st.integers(min_value=1, max_value=120)

#: stream lengths for full-cost tests
small_L = st.integers(min_value=1, max_value=60)

#: sizes safe for exhaustive (Catalan) enumeration
tiny_n = st.integers(min_value=1, max_value=8)


@st.composite
def preorder_tree(draw, max_n: int = 24, start: int = 0) -> MergeTree:
    """A uniformly-structured random merge tree with the preorder property.

    Built by the same last-root-child recursion as the optimal trees, but
    with arbitrary split points — yields any preorder-property tree shape.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))

    def build(offset: int, size: int) -> MergeNode:
        if size == 1:
            return MergeNode(offset)
        h = draw(st.integers(min_value=1, max_value=size - 1))
        left = build(offset, h)
        right = build(offset + h, size - h)
        right.parent = left
        left.children.append(right)
        return left

    return MergeTree(build(start, n))


@st.composite
def increasing_times(
    draw, min_size: int = 1, max_size: int = 40, horizon: float = 200.0
) -> List[float]:
    """Strictly increasing arrival times in [0, horizon) on a 1e-3 grid.

    Media timelines have finite resolution; the grid keeps hypothesis away
    from denormal-float gaps that no real workload produces (the dyadic
    baseline rejects sub-1e-12 relative gaps by design).
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    grid = int(horizon * 1000) - 1
    ticks = draw(
        st.lists(
            st.integers(min_value=0, max_value=grid),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return [t / 1000.0 for t in sorted(ticks)]


@st.composite
def increasing_times_exact(
    draw, min_size: int = 1, max_size: int = 40, horizon: float = 200.0
) -> List[float]:
    """Strictly increasing times on a dyadic 1/1024 grid — float-exact.

    Every value (and every sum/difference the merge-cost DPs form from
    them at these magnitudes) is exactly representable in binary64, so
    reference and fastpath arithmetic are both exact and bit-identical
    results can be asserted outright.  Use :func:`increasing_times` (the
    1e-3 grid) when testing tolerance-level agreement on timelines whose
    decimals do not have finite binary expansions.
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    grid = int(horizon * 1024) - 1
    ticks = draw(
        st.lists(
            st.integers(min_value=0, max_value=grid),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return [t / 1024.0 for t in sorted(ticks)]


# ---------------------------------------------------------------------------
# plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def paper_tree8() -> MergeTree:
    """The unique optimal merge tree for n = 8 (paper Figs. 3-4)."""
    from repro.core.offline import build_optimal_tree

    return build_optimal_tree(8)
