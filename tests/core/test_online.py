"""Tests for the on-line Delay Guaranteed algorithm (Section 4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds, online
from repro.core.fibonacci import fib, tree_size_index
from repro.core.full_cost import optimal_full_cost
from repro.core.offline import build_optimal_tree, merge_cost


class TestTreeSize:
    @pytest.mark.parametrize("L,size", [(1, 1), (2, 2), (4, 3), (15, 8), (100, 55)])
    def test_static_size(self, L, size):
        assert online.online_tree_size(L) == size


class TestPrefixTree:
    def test_prefix_is_parent_closed(self):
        tree = build_optimal_tree(8)
        for count in range(1, 9):
            p = online.prefix_tree(tree, count)
            assert len(p) == count
            assert p.arrivals() == list(range(count))
            assert p.has_preorder_property()

    def test_prefix_costs_monotone(self):
        tree = build_optimal_tree(13)
        costs = [online.prefix_tree(tree, c).merge_cost() for c in range(1, 14)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == tree.merge_cost()

    def test_full_prefix_identity(self):
        tree = build_optimal_tree(8)
        assert online.prefix_tree(tree, 8).canonical() == tree.canonical()

    def test_bad_count(self):
        tree = build_optimal_tree(5)
        with pytest.raises(ValueError):
            online.prefix_tree(tree, 0)
        with pytest.raises(ValueError):
            online.prefix_tree(tree, 6)


class TestShiftTree:
    def test_shift(self):
        t = build_optimal_tree(5)
        s = online.shift_tree(t, 100)
        assert s.arrivals() == [100, 101, 102, 103, 104]
        assert s.merge_cost() == t.merge_cost()


class TestOnlineForest:
    def test_exact_multiple_of_tree_size(self):
        L = 15  # F_h = 8
        forest = online.build_online_forest(L, 16)
        assert [len(t) for t in forest] == [8, 8]
        assert forest.full_cost(L) == 2 * (L + merge_cost(8))

    def test_partial_last_tree(self):
        L = 15
        forest = online.build_online_forest(L, 19)
        assert [len(t) for t in forest] == [8, 8, 3]

    def test_single_tree_matches_optimal(self):
        # n = F_h exactly: the on-line forest IS an optimal forest.
        assert online.online_full_cost(15, 8) == optimal_full_cost(15, 8)

    def test_cost_at_least_optimal(self):
        for L in (7, 15, 40):
            for n in (3, 10, 55, 200, 1111):
                assert online.online_full_cost(L, n) >= optimal_full_cost(L, n)

    def test_tree_size_override(self):
        L, n = 100, 500
        default = online.online_full_cost(L, n)
        assert online.online_full_cost(L, n, tree_size=online.online_tree_size(L)) == default
        assert online.online_full_cost(L, n, tree_size=20) >= optimal_full_cost(L, n)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_L_rejected(self, L):
        """An infinite L used to hang until memory ran out."""
        with pytest.raises(ValueError, match="finite"):
            online.online_full_cost(L, 10)

    def test_errors(self):
        with pytest.raises(ValueError):
            online.build_online_forest(0, 5)
        with pytest.raises(ValueError):
            online.build_online_forest(5, 0)
        with pytest.raises(ValueError):
            online.build_online_forest(10, 20, tree_size=11)  # > L
        # size == L is feasible (span L-1)
        online.build_online_forest(10, 20, tree_size=10)


class TestTheorem22:
    @pytest.mark.parametrize("L", [7, 9, 10, 12, 15, 20, 25, 30])
    def test_bound_holds_on_grid(self, L):
        dense = [int(mult * (L * L + 3)) for mult in (1.1, 2, 5, 20)]
        for n in (L * L + 3, L * L + 57, 4 * L * L, 20 * L * L, *dense):
            ratio = online.online_over_optimal_ratio(L, n)
            assert 1.0 <= ratio <= bounds.online_ratio_bound(L, n) + 1e-12

    def test_ratio_tends_to_one(self):
        L = 15
        r_small = online.online_over_optimal_ratio(L, 300)
        r_large = online.online_over_optimal_ratio(L, 30_000)
        assert r_large <= r_small + 1e-9
        assert r_large < 1.005

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=7, max_value=30), st.integers(min_value=1, max_value=4000))
    def test_ratio_never_below_one(self, L, n):
        assert online.online_over_optimal_ratio(L, n) >= 1.0 - 1e-12


class TestScheduler:
    def test_paths_repeat_per_tree(self):
        sched = online.OnlineScheduler(15)
        assert sched.size == 8
        base_paths = [sched.receiving_path(s) for s in range(8)]
        for s in range(8):
            shifted = [x + 8 for x in base_paths[s]]
            assert sched.receiving_path(8 + s) == shifted

    def test_orders_match_template_lengths(self):
        L = 15
        sched = online.OnlineScheduler(L)
        template = build_optimal_tree(8)
        lengths = {
            int(node.arrival): (
                L
                if node.parent is None
                else int(
                    2 * node.last_descendant().arrival
                    - node.arrival
                    - node.parent.arrival
                )
            )
            for node in template.root.preorder()
        }
        for slot in range(16):
            order = sched.order_for_slot(slot)
            assert order.planned_length == lengths[slot % 8]
            assert order.is_root == (slot % 8 == 0)

    def test_roots_every_fh_slots(self):
        sched = online.OnlineScheduler(100)  # F_h = 55
        roots = [o.slot for o in sched.orders(200) if o.is_root]
        assert roots == [0, 55, 110, 165]

    def test_total_planned_equals_analytic_cost(self):
        # summing planned lengths over k full trees reproduces A(L, k*F_h)
        L = 20
        sched = online.OnlineScheduler(L)
        k = 3
        n = k * sched.size
        total = sum(o.planned_length for o in sched.orders(n))
        assert total == online.online_full_cost(L, n)

    def test_errors(self):
        sched = online.OnlineScheduler(10)
        with pytest.raises(ValueError):
            sched.order_for_slot(-1)
        with pytest.raises(ValueError):
            online.OnlineScheduler(0)
