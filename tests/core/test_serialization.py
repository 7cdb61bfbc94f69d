"""Tests for merge-forest and receiving-program serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.full_cost import build_optimal_forest
from repro.core.merge_tree import MergeForest
from repro.core.offline import build_optimal_tree
from repro.core.online import build_online_forest
from repro.core.receiving_program import receive_two_program
from repro.core.serialization import (
    export_client_schedules,
    forest_from_json,
    forest_to_json,
    load_forest,
    program_to_json,
    save_forest,
)
from repro.baselines.dyadic import dyadic_forest

from tests.conftest import preorder_tree


class TestForestRoundTrip:
    @pytest.mark.parametrize("L,n", [(15, 8), (15, 14), (4, 16), (10, 60)])
    def test_optimal_forests(self, L, n):
        forest = build_optimal_forest(L, n)
        back = forest_from_json(forest_to_json(forest, L))
        assert [t.canonical() for t in back] == [t.canonical() for t in forest]
        assert back.full_cost(L) == forest.full_cost(L)

    def test_online_forest(self):
        forest = build_online_forest(15, 19)
        back = forest_from_json(forest_to_json(forest))
        assert back.merge_cost() == forest.merge_cost()

    def test_real_valued_labels(self):
        forest = dyadic_forest([0.0, 1.5, 2.25, 60.0], 100)
        back = forest_from_json(forest_to_json(forest, 100))
        assert [t.canonical() for t in back] == [t.canonical() for t in forest]

    @settings(max_examples=30, deadline=None)
    @given(preorder_tree(max_n=16))
    def test_random_trees(self, tree):
        forest = MergeForest([tree])
        back = forest_from_json(forest_to_json(forest))
        assert back.trees[0].canonical() == tree.canonical()

    def test_files(self, tmp_path):
        forest = build_optimal_forest(15, 8)
        path = tmp_path / "forest.json"
        save_forest(forest, path, L=15)
        assert load_forest(path).full_cost(15) == 36


class TestForestValidation:
    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            forest_from_json(json.dumps({"schema": "nope", "trees": []}))

    def test_count_mismatch(self):
        doc = json.loads(forest_to_json(build_optimal_forest(15, 8), 15))
        doc["num_arrivals"] = 99
        with pytest.raises(ValueError, match="corrupt"):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, bad, tmp_path):
        """json reads NaN and Infinity; a forest holding one is corrupt."""
        doc = json.loads(forest_to_json(build_optimal_forest(15, 8), 15))
        doc["trees"][0]["edges"][-1][0] = bad
        path = tmp_path / "forest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="finite"):
            load_forest(path)

    def test_metadata_preserved(self):
        doc = json.loads(forest_to_json(build_optimal_forest(15, 8), 15))
        assert doc["L"] == 15


class TestProgramExport:
    def test_program_json(self):
        tree = build_optimal_tree(8)
        prog = receive_two_program(tree, 7, 15)
        doc = json.loads(program_to_json(prog))
        assert doc["client"] == 7
        assert doc["path"] == [0, 5, 7]
        assert len(doc["receptions"]) == 15
        # rows sorted by slot end; first reception at slot 8
        assert doc["receptions"][0][0] == 8

    def test_export_all_clients(self, tmp_path):
        forest = build_optimal_forest(15, 8)
        count = export_client_schedules(forest, 15, tmp_path / "sched")
        assert count == 8
        files = sorted((tmp_path / "sched").glob("client_*.json"))
        assert len(files) == 8
        doc = json.loads(files[0].read_text())
        assert doc["schema"] == "repro.receiving-program.v1"
