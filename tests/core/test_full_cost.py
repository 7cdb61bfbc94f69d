"""Tests for full cost / merge forests (Section 3.2: Lemma 9, Thms 10, 12)."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import full_cost as fc
from repro.core.fibonacci import fib, tree_size_index
from repro.core.offline import merge_cost


class TestWorkedExamples:
    def test_paper_values(self):
        assert fc.optimal_full_cost(15, 8) == 36
        assert fc.optimal_full_cost(15, 14) == 64
        assert fc.optimal_stream_count(15, 14) == 2
        assert fc.full_cost_given_streams(4, 16, 4) == 40
        assert fc.full_cost_given_streams(4, 16, 5) == 38
        assert fc.full_cost_given_streams(4, 16, 6) == 38
        assert fc.optimal_full_cost(4, 16) == 38

    def test_extreme_L1(self):
        # L = 1: every slot its own full stream; cost n.
        for n in (1, 5, 17):
            assert fc.optimal_stream_count(1, n) == n
            assert fc.optimal_full_cost(1, n) == n

    def test_L2_odd_n(self):
        # Paper: L = 2, n odd => s0 = s1 + 1 = ceil(n/2) optimal.
        for n in (3, 5, 7, 9, 33):
            assert fc.optimal_stream_count(2, n) == (n + 1) // 2


class TestLemma9:
    @pytest.mark.parametrize("L,n", [(5, 12), (10, 37), (15, 14), (8, 8)])
    def test_formula_matches_explicit_forest(self, L, n):
        for s in range(fc.min_streams(L, n), n + 1):
            forest = fc.build_optimal_forest(L, n, s=s)
            assert forest.full_cost(L) == fc.full_cost_given_streams(L, n, s)

    def test_tree_size_balance(self):
        # trees differ in size by at most one
        for L, n, s in [(10, 23, 4), (20, 100, 7), (7, 50, 9)]:
            forest = fc.build_optimal_forest(L, n, s=s)
            sizes = sorted(len(t) for t in forest)
            assert sizes[-1] - sizes[0] <= 1
            assert sum(sizes) == n
            assert len(sizes) == s

    def test_infeasible_s_rejected(self):
        with pytest.raises(ValueError):
            fc.full_cost_given_streams(5, 20, 3)  # s0 = 4
        with pytest.raises(ValueError):
            fc.full_cost_given_streams(5, 20, 21)  # s > n


class TestTheorem12:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=150),
    )
    @example(5, 1000)
    @example(15, 1000)
    @example(50, 10)
    @example(50, 100)
    @example(50, 1000)
    @example(150, 10)
    @example(150, 100)
    @example(150, 1000)
    def test_two_candidate_minimum(self, L, n):
        _, best = fc.brute_force_stream_count(L, n)
        assert fc.optimal_full_cost(L, n) == best

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=150),
    )
    def test_chosen_s_in_theorem_candidates(self, L, n):
        s = fc.optimal_stream_count(L, n)
        h = tree_size_index(L)
        s1 = n // fib(h)
        s0 = fc.min_streams(L, n)
        assert s in {max(s0, s1), max(s0, min(s1 + 1, n)), max(s0, 1)}

    def test_unimodality_lemma11(self):
        # f(s) non-increasing then non-decreasing on the feasible range.
        for L, n in [(10, 60), (15, 100), (4, 30), (7, 77)]:
            vals = [
                fc.full_cost_given_streams(L, n, s)
                for s in range(fc.min_streams(L, n), n + 1)
            ]
            trough = vals.index(min(vals))
            assert all(vals[i] >= vals[i + 1] for i in range(trough))
            assert all(vals[i] <= vals[i + 1] for i in range(trough, len(vals) - 1))


class TestForestConstruction:
    @pytest.mark.parametrize(
        "L,n", [(15, 8), (15, 14), (4, 16), (10, 100), (33, 500), (500, 50_000)]
    )
    def test_optimal_forest_cost(self, L, n):
        forest = fc.build_optimal_forest(L, n)
        assert forest.full_cost(L) == fc.optimal_full_cost(L, n)
        assert forest.arrivals() == list(range(n))
        for tree in forest:
            assert tree.has_preorder_property()
            # each tree is itself optimal for its size
            assert tree.merge_cost() == merge_cost(len(tree))

    def test_explicit_s(self):
        forest = fc.build_optimal_forest(15, 14, s=2)
        assert forest.full_cost(15) == 64
        assert [len(t) for t in forest] == [7, 7]

    def test_infeasible_s(self):
        with pytest.raises(ValueError):
            fc.build_optimal_forest(5, 20, s=2)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_L_rejected(self, L):
        """An infinite L used to hang until memory ran out."""
        with pytest.raises(ValueError, match="finite"):
            fc.optimal_full_cost(L, 10)

    def test_errors(self):
        with pytest.raises(ValueError):
            fc.build_optimal_forest(0, 5)
        with pytest.raises(ValueError):
            fc.build_optimal_forest(5, 0)


class TestBreakdown:
    def test_breakdown_consistency(self):
        b = fc.full_cost_breakdown(15, 14)
        assert b.streams == 2
        assert b.tree_sizes == (7, 7)
        assert b.root_cost == 30
        assert b.merge_cost == 34
        assert b.total == 64
        assert b.average_bandwidth == 64 / 14
        assert b.streams_served == 64 / 15

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=120),
    )
    def test_breakdown_total_matches(self, L, n):
        b = fc.full_cost_breakdown(L, n)
        assert b.total == fc.optimal_full_cost(L, n)
        assert sum(b.tree_sizes) == n


class TestMonotonicity:
    def test_cost_nondecreasing_in_n(self):
        for L in (5, 12, 30):
            prev = 0
            for n in range(1, 80):
                cur = fc.optimal_full_cost(L, n)
                assert cur >= prev
                prev = cur

    def test_cost_nondecreasing_in_L(self):
        for n in (10, 50):
            prev = 0
            for L in range(1, 60):
                cur = fc.optimal_full_cost(L, n)
                assert cur >= prev, (L, n)
                prev = cur
