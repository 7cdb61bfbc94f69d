"""FlatForest vs. the MergeTree/MergeForest object oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.full_cost import (
    build_optimal_flat_forest,
    build_optimal_forest,
    optimal_stream_count,
)
from repro.core.merge_tree import MergeForest, chain_tree, star_tree
from repro.core.online import (
    OnlineScheduler,
    build_online_flat_forest,
    build_online_forest,
    online_tree_size,
)
from repro.fastpath.flat_forest import FlatForest, as_flat_forest
from repro.simulation.channels import (
    assign_forest_channels,
    forest_intervals,
    min_forest_channels,
    peak_concurrency,
)
from repro.simulation.verify import verify_forest

from tests.conftest import preorder_tree


@st.composite
def preorder_forest(draw, max_trees: int = 3, max_n: int = 14) -> MergeForest:
    """A random forest of preorder-property trees on disjoint label blocks."""
    k = draw(st.integers(min_value=1, max_value=max_trees))
    trees = []
    offset = 0
    for _ in range(k):
        tree = draw(preorder_tree(max_n=max_n, start=offset))
        offset += len(tree) + draw(st.integers(min_value=0, max_value=3))
        trees.append(tree)
    return MergeForest(trees)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(preorder_forest())
    def test_lossless_round_trip(self, forest):
        flat = FlatForest.from_forest(forest)
        back = flat.to_forest()
        assert [t.canonical() for t in back] == [t.canonical() for t in forest]
        assert flat.equals(FlatForest.from_forest(back))

    @given(preorder_tree(max_n=16))
    def test_tree_to_flat_convenience(self, tree):
        flat = tree.to_flat()
        assert len(flat) == len(tree)
        assert flat.merge_cost() == tree.merge_cost()

    def test_non_preorder_tree_round_trips(self):
        # A feasible tree *without* the preorder property: 2 attaches to 0
        # after 1 does, and 3 attaches to 1 — the preorder walk 0,1,3,2 is
        # out of order but the flat form is still exact.
        from repro.core.merge_tree import tree_from_parent_map

        tree = tree_from_parent_map({0: None, 1: 0, 2: 0, 3: 1})
        assert not tree.has_preorder_property()
        flat = FlatForest.from_tree(tree)
        assert flat.merge_cost() == tree.merge_cost()
        assert flat.to_forest().trees[0].canonical() == tree.canonical()


class TestCostsMatchOracle:
    @settings(max_examples=100, deadline=None)
    @given(preorder_forest())
    def test_merge_costs(self, forest):
        flat = FlatForest.from_forest(forest)
        assert flat.merge_cost() == forest.merge_cost()
        assert flat.merge_cost_receive_all() == forest.merge_cost_receive_all()

    @settings(max_examples=60, deadline=None)
    @given(preorder_forest())
    def test_full_costs_and_lengths(self, forest):
        # Pick L large enough for feasibility.
        L = int(max(t.span() for t in forest)) + 1 + 5
        flat = FlatForest.from_forest(forest)
        assert flat.full_cost(L) == forest.full_cost(L)
        assert flat.full_cost_receive_all(L) == forest.full_cost_receive_all(L)
        assert flat.stream_length_map(L) == forest.stream_lengths(L)

    def test_infeasible_length_raises(self):
        flat = FlatForest.from_tree(chain_tree([0, 1, 2, 3, 4]))
        with pytest.raises(ValueError):
            flat.full_cost(3)

    def test_star_and_chain(self):
        for tree in (star_tree(range(6)), chain_tree(range(6))):
            flat = tree.to_flat()
            assert flat.merge_cost() == tree.merge_cost()
            assert flat.num_trees() == 1


class TestValidation:
    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ValueError):
            FlatForest([0.0, 2.0, 1.0], [-1, 0, 0])

    def test_parent_not_earlier_rejected(self):
        with pytest.raises(ValueError):
            FlatForest([0.0, 1.0], [-1, 1])
        with pytest.raises(ValueError):
            FlatForest([0.0, 1.0], [1, -1])

    def test_interleaved_trees_rejected(self):
        # node 2 claims a parent in the tree before root 1.
        with pytest.raises(ValueError):
            FlatForest([0.0, 1.0, 2.0], [-1, -1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FlatForest([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrivals_rejected(self, bad):
        """NaN fails every comparison, so the order check alone let
        ``[0, nan, 3]`` through, and the batched continuous replay then
        reported it ok."""
        with pytest.raises(ValueError, match="finite"):
            FlatForest([0.0, bad, 3.0], [-1, 0, 0])

    def test_find_and_paths(self):
        forest = build_optimal_forest(15, 20)
        flat = forest.to_flat()
        for arrival in (0, 7, 19):
            i = flat.find(float(arrival))
            labels = [flat.arrivals[j] for j in flat.path_indices(i)]
            tree, node = forest.find(arrival)
            assert labels == [n.arrival for n in node.path_from_root()]
        with pytest.raises(KeyError):
            flat.find(99.5)


class TestFlatBuilders:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=120),
    )
    def test_optimal_flat_forest_matches_object_builder(self, L, n):
        flat = build_optimal_flat_forest(L, n)
        obj = build_optimal_forest(L, n)
        assert flat.equals(FlatForest.from_forest(obj))
        assert flat.full_cost(L) == obj.full_cost(L)

    def test_optimal_flat_forest_explicit_streams(self):
        L, n = 15, 33
        s = optimal_stream_count(L, n) + 1
        assert build_optimal_flat_forest(L, n, s).equals(
            FlatForest.from_forest(build_optimal_forest(L, n, s))
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=120),
    )
    def test_online_flat_forest_matches_object_builder(self, L, n):
        flat = build_online_flat_forest(L, n)
        obj = build_online_forest(L, n)
        assert flat.equals(FlatForest.from_forest(obj))
        assert flat.full_cost(L) == obj.full_cost(L)

    def test_online_flat_forest_tree_size_override(self):
        flat = build_online_flat_forest(10, 20, tree_size=5)
        obj = build_online_forest(10, 20, tree_size=5)
        assert flat.equals(FlatForest.from_forest(obj))
        with pytest.raises(ValueError):
            build_online_flat_forest(10, 20, tree_size=11)

    def test_scheduler_tables_match_forest(self):
        L, n = 25, 40
        sched = OnlineScheduler(L)
        forest = build_online_forest(L, n)
        size = online_tree_size(L)
        for slot in range(size):  # one full tree covers every table entry
            order = sched.order_for_slot(slot)
            tree, node = forest.find(slot)
            if node.parent is None:
                assert order.is_root and order.parent_slot is None
                assert order.planned_length == L
            else:
                assert order.parent_slot == node.parent.arrival
                assert order.planned_length == tree.length(slot)
            path = sched.receiving_path(slot)
            assert path == [x.arrival for x in node.path_from_root()]


class TestChannelsAndVerify:
    @settings(max_examples=60, deadline=None)
    @given(preorder_forest())
    def test_peak_concurrency_equals_greedy_channels(self, forest):
        L = int(max(t.span() for t in forest)) + 1 + 3
        assert min_forest_channels(forest, L) == assign_forest_channels(
            forest, L
        ).num_channels

    def test_forest_intervals_accepts_flat(self):
        forest = build_optimal_forest(15, 30)
        a = forest_intervals(forest, 15)
        b = forest_intervals(forest.to_flat(), 15)
        assert a == b
        # Interval content matches the object-path stream lengths.
        lengths = {s.label: s.units for s in a}
        expected = {
            lbl: ln for lbl, ln in forest.stream_lengths(15).items() if ln > 0
        }
        assert lengths == expected

    def test_peak_concurrency_empty(self):
        assert peak_concurrency(np.array([]), np.array([])) == 0

    def test_verify_accepts_flat_forest(self):
        flat = build_optimal_flat_forest(15, 30)
        report = verify_forest(flat, 15)
        report.raise_if_failed()
        assert report.checks > 0

    def test_as_flat_forest_coercions(self):
        forest = build_optimal_forest(10, 12)
        flat = forest.to_flat()
        assert as_flat_forest(flat) is flat
        assert as_flat_forest(forest).equals(flat)
        assert as_flat_forest(forest.trees[0]).num_trees() == 1
