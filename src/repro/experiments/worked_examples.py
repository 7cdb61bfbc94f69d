"""Worked examples of Sections 2-3: Figs. 3, 4, 6, 7 and the full-cost
numbers (F(15,8)=36, F(15,14)=64, F(4,16,s)=40/38/38).

``fig3`` renders the concrete stream diagram for n = 8, L = 15 — stream
start/lengths, the segment windows, and client H's stage-by-stage
receiving program — all generated from the library, matching the paper's
narrative exactly.
"""

from __future__ import annotations

from typing import List

from ..core.full_cost import (
    full_cost_given_streams,
    optimal_full_cost,
    optimal_stream_count,
)
from ..core.offline import build_optimal_tree, fibonacci_tree
from ..core.merge_tree import MergeForest
from ..core.receiving_program import receive_two_program
from ..sweeps import Axis, SweepSpec, run_sweep
from ..sweeps.evaluators import tree_multiplicity_point
from .harness import ExperimentResult, register


@register(
    "fig3",
    "Concrete optimal solution for n = 8, L = 15 (Figs. 3-4)",
    "Figs. 3-4 / Section 2",
    "Stream lengths, merge tree, and client H's receiving program.",
)
def run_fig3() -> List[ExperimentResult]:
    L, n = 15, 8
    tree = build_optimal_tree(n)
    forest = MergeForest([tree])
    lengths = forest.stream_lengths(L)
    names = "ABCDEFGH"
    rows = []
    for arrival in tree.arrivals():
        node = tree.node(arrival)
        rows.append(
            (
                names[int(arrival)],
                int(arrival),
                "root" if node.parent is None else names[int(node.parent.arrival)],
                int(lengths[arrival]),
                int(arrival + lengths[arrival]),
            )
        )
    res_streams = ExperimentResult(
        title=f"Streams of the optimal forest (n={n}, L={L}); "
        f"full cost = {forest.full_cost(L)}",
        headers=("stream", "start", "merges into", "length", "ends at"),
        rows=rows,
        notes=[
            f"Merge cost {tree.merge_cost()} + root {L} = "
            f"{forest.full_cost(L)} (paper: 36).",
            "Tree:\n" + tree.render(),
        ],
    )

    prog = receive_two_program(tree, 7, L)
    prog_rows = []
    for r in sorted(prog.receptions, key=lambda r: (r.slot_end, r.stream)):
        prog_rows.append(
            (int(r.slot_end) - 1, int(r.slot_end), names[int(r.stream)], r.part)
        )
    res_prog = ExperimentResult(
        title="Client H (arrival 7, path A->F->H) receiving program",
        headers=("slot start", "slot end", "from stream", "part"),
        rows=prog_rows,
        notes=[
            f"complete={prog.is_complete()}, on_time={prog.is_on_time()}, "
            f"max parallel streams={prog.max_parallel_streams()}, "
            f"buffer peak={prog.max_buffer()} (Lemma 15: min(7, 15-7) = 7)",
        ],
    )
    return [res_streams, res_prog]


def fig67_spec(n_enum_max: int = 10) -> SweepSpec:
    return SweepSpec(
        name="fig6-7",
        evaluator=tree_multiplicity_point,
        axes=[Axis("n", tuple(range(2, n_enum_max + 1)))],
        metrics=("count", "m"),
    )


@register(
    "fig6-7",
    "Optimal tree multiplicity (Fig. 6) and Fibonacci trees (Fig. 7)",
    "Figs. 6-7 / Theorem 3",
    "Exhaustive enumeration of optimal trees for small n; unique trees at "
    "Fibonacci sizes.",
)
def run_fig67(n_enum_max: int = 10) -> List[ExperimentResult]:
    sweep = run_sweep(fig67_spec(n_enum_max))
    return _fig67_tables(sweep.rows("n", "count", "m"), sweep.columns_json())


def _fig67_tables(rows, columns=None) -> List[ExperimentResult]:
    res_counts = ExperimentResult(
        title="Number of optimal merge trees by n (exhaustive)",
        headers=("n", "# optimal trees", "M(n)"),
        rows=rows,
        notes=[
            "n = 4 has exactly two optimal trees (Fig. 6); Fibonacci n "
            "(2, 3, 5, 8, ...) have exactly one (Fig. 7).",
        ],
        columns=columns,
    )
    renders = []
    for k in (4, 5, 6, 7):  # F_k = 3, 5, 8, 13
        t = fibonacci_tree(k)
        renders.append(f"n = F_{k} = {len(t)}, M = {t.merge_cost()}\n{t.render()}")
    res_fib = ExperimentResult(
        title="Fibonacci merge trees (Fig. 7)",
        headers=("tree",),
        rows=[],
        notes=renders,
    )
    return [res_counts, res_fib]


@register(
    "table-full",
    "Worked full-cost examples (Sections 2 / 3.2)",
    "Section 2 example; Section 3.2 examples after Theorem 12",
    "F(15,8)=36; F(15,14)=64 with s=2; F(4,16,s)=40/38/38 for s=4,5,6.",
)
def run_table_full() -> List[ExperimentResult]:
    rows = [
        ("F(15, 8)", optimal_full_cost(15, 8), 36),
        ("F(15, 14)", optimal_full_cost(15, 14), 64),
        ("s*(15, 14)", optimal_stream_count(15, 14), 2),
        ("F(4, 16, s=4)", full_cost_given_streams(4, 16, 4), 40),
        ("F(4, 16, s=5)", full_cost_given_streams(4, 16, 5), 38),
        ("F(4, 16, s=6)", full_cost_given_streams(4, 16, 6), 38),
    ]
    rows = [(name, got, want, "ok" if got == want else "MISMATCH") for name, got, want in rows]
    return [
        ExperimentResult(
            title="Full-cost worked examples vs paper values",
            headers=("quantity", "computed", "paper", "status"),
            rows=rows,
        )
    ]
