"""Tests for the closed forms and O(n) construction of Section 3.1."""

from __future__ import annotations

from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import dp, offline
from repro.core.fibonacci import fib, is_fib

PAPER_M = [0, 1, 3, 6, 9, 13, 17, 21, 26, 31, 36, 41, 46, 52, 58, 64]

# One shared DP oracle for the whole module (O(n^2) once).
DP_TABLE = dp.merge_cost_table(600)
DP_SETS = dp.argmin_sets(300)


class TestClosedForm:
    def test_paper_table(self):
        assert [offline.merge_cost(n) for n in range(1, 17)] == PAPER_M

    def test_against_dp_oracle_full_range(self):
        for n in range(1, 601):
            assert offline.merge_cost(n) == DP_TABLE[n], n

    def test_fibonacci_redundancy(self):
        # At n = F_k the formula is valid with either bracket k or k-1... i.e.
        # (k-1)n - F_{k+2} + 2 == (k-2)n - F_{k+1} + 2.
        for k in range(3, 25):
            n = fib(k)
            assert (k - 1) * n - fib(k + 2) + 2 == (k - 2) * n - fib(k + 1) + 2

    def test_errors(self):
        with pytest.raises(ValueError):
            offline.merge_cost(0)

    @given(st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=60))
    @example([8, 1_000_000])
    def test_vectorised_matches_scalar(self, ns):
        arr = offline.merge_cost_array(ns)
        assert arr.dtype == np.int64
        assert list(arr) == [offline.merge_cost(n) for n in ns]

    def test_vectorised_empty_and_errors(self):
        assert offline.merge_cost_array([]).size == 0
        with pytest.raises(ValueError):
            offline.merge_cost_array([0, 3])


class TestIntervals:
    def test_interval_vs_dp(self):
        for n in range(2, 301):
            lo, hi = offline.root_merge_interval(n)
            assert DP_SETS[n - 1] == list(range(lo, hi + 1)), n

    def test_interval_case_decomposition(self):
        for n in range(2, 301):
            k, m, case = offline.interval_case(n)
            assert fib(k) + m == n
            assert 0 <= m <= fib(k - 1)
            assert case in (1, 2, 3)

    def test_fibonacci_n_unique_root_merge(self):
        for k in range(3, 15):
            lo, hi = offline.root_merge_interval(fib(k))
            assert lo == hi == fib(k - 1)

    def test_requires_n_geq_2(self):
        with pytest.raises(ValueError):
            offline.root_merge_interval(1)


class TestLastMergeTable:
    def test_matches_dp_max(self):
        table = offline.last_merge_table(300)
        for n in range(2, 301):
            assert table[n] == max(DP_SETS[n - 1]), n

    def test_first_values(self):
        assert offline.last_merge_table(8)[1:] == [0, 1, 2, 3, 3, 4, 5, 5]

    def test_errors(self):
        with pytest.raises(ValueError):
            offline.last_merge_table(0)


class TestBuildOptimalTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12, 13, 20, 21, 33, 34, 54, 55, 100, 233, 500, 2000])
    def test_cost_is_optimal(self, n):
        tree = offline.build_optimal_tree(n)
        assert len(tree) == n
        assert tree.merge_cost() == offline.merge_cost(n)
        assert tree.has_preorder_property()
        assert tree.arrivals() == list(range(n))

    def test_start_offset(self):
        tree = offline.build_optimal_tree(8, start=100)
        assert tree.arrivals() == list(range(100, 108))
        assert tree.merge_cost() == 21

    def test_large_n_fast_and_exact(self):
        n = 50_000
        tree = offline.build_optimal_tree(n)
        assert tree.merge_cost() == offline.merge_cost(n)

    def test_paper_structure_n8(self, paper_tree8):
        # Fig. 4: root 0; subtree {5,6,7}; F=5 merges last.
        assert paper_tree8.root.children[-1].arrival == 5
        assert paper_tree8.node(5).children != []
        assert sorted(c.arrival for c in paper_tree8.node(5).children) == [6, 7]


class TestFibonacciTrees:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_recursive_structure(self, k):
        # Right-most subtree of F_k tree is the F_{k-2} tree; the rest is F_{k-1}.
        tree = offline.fibonacci_tree(k)
        assert len(tree) == fib(k)
        if k >= 4:
            t_prime, t_double = tree.split_last_root_child()
            assert len(t_prime) == fib(k - 1)
            assert len(t_double) == fib(k - 2)

    def test_requires_k_geq_2(self):
        with pytest.raises(ValueError):
            offline.fibonacci_tree(1)


class TestEnumeration:
    def test_counts_match_catalan(self):
        # number of preorder-property trees over n arrivals is Catalan(n-1)
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(1, 7):
            assert sum(1 for _ in offline.enumerate_merge_trees(n)) == catalan[n - 1]

    def test_cap_boundary_still_enumerates(self):
        # the cap itself stays usable (boundary case of the Catalan guard)
        gen = offline.enumerate_merge_trees(offline.MAX_ENUMERATION_N)
        assert len(next(gen)) == offline.MAX_ENUMERATION_N

    def test_catalan_blowup_rejected_beyond_cap(self):
        with pytest.raises(ValueError, match="Catalan"):
            next(offline.enumerate_merge_trees(offline.MAX_ENUMERATION_N + 1))
        # the error points large-n users at the O(n) construction
        with pytest.raises(ValueError, match="build_optimal_tree"):
            offline.enumerate_optimal_trees(50)

    def test_fig6_two_optimal_trees_for_4(self):
        trees = offline.enumerate_optimal_trees(4)
        assert len(trees) == 2
        assert {t.merge_cost() for t in trees} == {6}
        shapes = {t.canonical() for t in trees}
        assert len(shapes) == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_fig7_unique_at_fibonacci(self, n):
        assert offline.count_optimal_trees(n) == 1

    def test_builder_output_among_optimal(self):
        for n in range(1, 9):
            built = offline.build_optimal_tree(n).canonical()
            shapes = {t.canonical() for t in offline.enumerate_optimal_trees(n)}
            assert built in shapes

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=9))
    def test_enumeration_minimum_equals_closed_form(self, n):
        best = min(t.merge_cost() for t in offline.enumerate_merge_trees(n))
        assert best == offline.merge_cost(n)

    def test_interval_members_all_realise_optimum(self):
        # every h in I(n) yields an optimal decomposition
        for n in range(2, 40):
            lo, hi = offline.root_merge_interval(n)
            for h in range(lo, hi + 1):
                cost = (
                    offline.merge_cost(h)
                    + offline.merge_cost(n - h)
                    + 2 * n
                    - h
                    - 2
                )
                assert cost == offline.merge_cost(n), (n, h)

    def test_non_interval_members_are_suboptimal(self):
        for n in range(2, 40):
            lo, hi = offline.root_merge_interval(n)
            for h in range(1, n):
                if lo <= h <= hi:
                    continue
                cost = (
                    offline.merge_cost(h)
                    + offline.merge_cost(n - h)
                    + 2 * n
                    - h
                    - 2
                )
                assert cost > offline.merge_cost(n), (n, h)


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class TestMergeCostCounts:
    """The exact cost histogram behind Figs. 6-7's exhaustive table."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_enumerated_histogram(self, n):
        enumerated = Counter(t.merge_cost() for t in offline.enumerate_merge_trees(n))
        assert offline.merge_cost_counts(n) == dict(enumerated)

    def test_total_is_catalan_up_to_cap(self):
        for n in range(1, offline.MAX_ENUMERATION_N + 1):
            counts = offline.merge_cost_counts(n)
            assert sum(counts.values()) == _catalan(n - 1), n
            assert all(type(c) is int and type(v) is int for c, v in counts.items())

    def test_minimum_is_eq6_and_eq5(self):
        for n in range(1, offline.MAX_ENUMERATION_N + 1):
            best = min(offline.merge_cost_counts(n))
            assert best == offline.merge_cost(n) == dp.merge_cost(n), n

    def test_optimal_count_factors_over_theorem3_intervals(self):
        # An optimal tree splits at some h in I(n) into two optimal parts,
        # and every such pair joins into one: count(n) sums over I(n).
        count = {n: offline.count_optimal_trees(n) for n in range(1, offline.MAX_ENUMERATION_N + 1)}
        assert count[1] == 1
        for n in range(2, offline.MAX_ENUMERATION_N + 1):
            total = sum(count[h] * count[n - h] for h in DP_SETS[n - 1])
            assert count[n] == total, n

    def test_same_cap_and_error_as_enumerator(self):
        n = offline.MAX_ENUMERATION_N + 1
        with pytest.raises(ValueError, match="Catalan") as hist_err:
            offline.merge_cost_counts(n)
        with pytest.raises(ValueError) as enum_err:
            next(offline.enumerate_merge_trees(n))
        assert str(hist_err.value) == str(enum_err.value)
        with pytest.raises(ValueError):
            offline.merge_cost_counts(0)
