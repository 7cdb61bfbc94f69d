"""Merge-forest serialization and client schedule export.

Two production-shaped artifacts:

* **Forest documents** — a JSON form of a merge forest (parent maps per
  tree), so off-line solutions can be computed once, shipped to a server,
  and audited later.  Round-trips exactly.
* **Receiving schedules** — the per-client instruction a server would
  push to a set-top box: the ordered list of (slot, stream, part)
  receptions of the Section 2 program, serialised compactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .merge_tree import MergeForest, tree_from_parent_map
from .receiving_program import ReceivingProgram, receive_two_program
from .validation import check_finite_value

__all__ = [
    "forest_to_json",
    "forest_from_json",
    "save_forest",
    "load_forest",
    "program_to_json",
]

_FOREST_SCHEMA = "repro.merge-forest.v1"
_PROGRAM_SCHEMA = "repro.receiving-program.v1"


def forest_to_json(forest: MergeForest, L: Union[float, None] = None) -> str:
    """Serialise a forest as per-tree parent maps (+ optional L metadata)."""
    trees = []
    for tree in forest:
        pm = tree.parent_map()
        trees.append(
            {
                "root": tree.root.arrival,
                # parent map as pairs: JSON keys must be strings, and
                # float-keyed dicts round-trip poorly through str().
                "edges": [
                    [arrival, parent]
                    for arrival, parent in sorted(pm.items())
                    if parent is not None
                ],
            }
        )
    payload = {
        "schema": _FOREST_SCHEMA,
        "L": L,
        "num_arrivals": forest.num_arrivals(),
        "trees": trees,
    }
    return json.dumps(payload)


def forest_from_json(text: str) -> MergeForest:
    """Rebuild a forest serialised by :func:`forest_to_json`."""
    payload = json.loads(text)
    if payload.get("schema") != _FOREST_SCHEMA:
        raise ValueError(
            f"not a merge-forest document (schema={payload.get('schema')!r})"
        )
    trees = []
    for doc in payload["trees"]:
        parents = {doc["root"]: None}
        for arrival, parent in doc["edges"]:
            parents[arrival] = parent
        for arrival in parents:  # json reads NaN and Infinity
            check_finite_value(arrival)
        trees.append(tree_from_parent_map(parents))
    forest = MergeForest(trees)
    if forest.num_arrivals() != payload.get("num_arrivals"):
        raise ValueError(
            f"corrupt forest: declared {payload.get('num_arrivals')} "
            f"arrivals, found {forest.num_arrivals()}"
        )
    return forest


def save_forest(
    forest: MergeForest, path: Union[str, Path], L: Union[float, None] = None
) -> None:
    Path(path).write_text(forest_to_json(forest, L))


def load_forest(path: Union[str, Path]) -> MergeForest:
    return forest_from_json(Path(path).read_text())


def program_to_json(program: ReceivingProgram) -> str:
    """The client-facing schedule: ordered (slot_end, stream, part) rows."""
    rows = sorted(
        ((r.slot_end, r.stream, r.part) for r in program.receptions),
    )
    payload = {
        "schema": _PROGRAM_SCHEMA,
        "client": program.client,
        "L": program.L,
        "path": list(program.path),
        "receptions": [list(row) for row in rows],
    }
    return json.dumps(payload)


def export_client_schedules(
    forest: MergeForest, L: int, out_dir: Union[str, Path]
) -> int:
    """Write one schedule file per client; returns the count written.

    Files are named ``client_<arrival>.json``; arrivals must be slotted
    (the receive-two program requires integer times).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for tree in forest:
        for arrival in tree.arrivals():
            prog = receive_two_program(tree, arrival, L)
            name = f"client_{int(arrival)}.json"
            (out / name).write_text(program_to_json(prog))
            count += 1
    return count
