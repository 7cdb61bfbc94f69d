"""Unit tests for repro.core.fibonacci."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import fibonacci as fm


class TestFib:
    def test_base_values(self):
        assert [fm.fib(k) for k in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fm.fib(-1)

    @given(st.integers(min_value=2, max_value=300))
    def test_recurrence(self, k):
        assert fm.fib(k) == fm.fib(k - 1) + fm.fib(k - 2)

    def test_large_value_exact(self):
        # F_100 from the literature — exact integer arithmetic required.
        assert fm.fib(100) == 354224848179261915075


class TestFibUpto:
    def test_small(self):
        assert fm.fib_upto(1) == [0, 1, 1]
        assert fm.fib_upto(8) == [0, 1, 1, 2, 3, 5, 8]

    def test_negative(self):
        assert fm.fib_upto(-3) == []

    @given(st.integers(min_value=0, max_value=10_000))
    def test_all_leq(self, n):
        vals = fm.fib_upto(n)
        assert all(v <= n for v in vals)
        if vals:
            # the next Fibonacci number must exceed n
            k = len(vals) - 1
            assert fm.fib(k + 1) > n or fm.fib(k) == n


class TestFibIndex:
    def test_duplicate_one_resolves_up(self):
        assert fm.fib_index(1) == 2

    def test_known(self):
        assert fm.fib_index(0) == 0
        assert fm.fib_index(8) == 6
        assert fm.fib_index(55) == 10

    @pytest.mark.parametrize("bad", [4, 6, 7, 9, 100, -1])
    def test_non_fib_rejected(self, bad):
        with pytest.raises(ValueError):
            fm.fib_index(bad)


class TestBracketIndex:
    @given(st.integers(min_value=1, max_value=100_000))
    def test_bracket_invariant(self, n):
        k = fm.bracket_index(n)
        assert fm.fib(k) <= n
        assert n < fm.fib(k + 1) or n == fm.fib(k)

    def test_exact_fibonacci_gets_own_index(self):
        for k in range(2, 20):
            assert fm.bracket_index(fm.fib(k)) == k

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            fm.bracket_index(0)


class TestHelpers:
    @given(st.integers(min_value=1, max_value=50_000))
    def test_largest_smallest(self, n):
        lo = fm.largest_fib_leq(n)
        hi = fm.smallest_fib_geq(n)
        assert lo <= n <= hi
        assert fm.is_fib(lo) and fm.is_fib(hi)

    def test_is_fib(self):
        fibs = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55}
        for x in range(60):
            assert fm.is_fib(x) == (x in fibs)
        assert not fm.is_fib(-5)

    def test_phi_identity(self):
        assert math.isclose(fm.PHI * fm.PHI, fm.PHI + 1)
        assert math.isclose(fm.PHI_HAT * fm.PHI_HAT, fm.PHI_HAT + 1)

    def test_fib_floor_log(self):
        assert math.isclose(fm.fib_floor_log(fm.PHI), 1.0)
        with pytest.raises(ValueError):
            fm.fib_floor_log(0)


class TestTreeSizeIndex:
    @pytest.mark.parametrize(
        "L,h",
        [(1, 2), (2, 3), (3, 3), (4, 4), (6, 4), (7, 5), (11, 5), (12, 6), (15, 6), (100, 10)],
    )
    def test_paper_brackets(self, L, h):
        assert fm.tree_size_index(L) == h

    @given(st.integers(min_value=1, max_value=100_000))
    def test_bracket_definition(self, L):
        h = fm.tree_size_index(L)
        assert fm.fib(h + 1) < L + 2 <= fm.fib(h + 2)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            fm.tree_size_index(0)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_L_rejected(self, L):
        """inf grew the Fibonacci table forever; NaN returned 1."""
        with pytest.raises(ValueError, match="finite"):
            fm.tree_size_index(L)
