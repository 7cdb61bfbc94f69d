"""Fig. 9: ratio of the on-line DG bandwidth to the off-line optimum.

The paper plots ``A(L, n) / F(L, n)`` against the time horizon and shows
it approaching 1; Theorem 22 bounds it by ``1 + 2L/n`` once ``L >= 7`` and
``n > L^2 + 2``.  The experiment sweeps horizons for several stream
lengths and reports the measured ratio next to the bound.

Sweep-tier driver: one two-axis :class:`~repro.sweeps.SweepSpec` over
``(L, n)``, each point evaluated by the closed-form ``Acost``/``Fcost``
kernels (O(log n) per point after the per-``L`` template memo); the
retired loop, which built an ``n``-node flat forest per point, is the
oracle of ``benchmarks/bench_experiments.py``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sweeps import Axis, SweepSpec, run_sweep
from ..sweeps.evaluators import online_ratio_point
from .charts import render_chart
from .harness import ExperimentResult, register

DEFAULT_LS = (15, 50, 100)
DEFAULT_NS = (10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000)


def fig9_spec(
    Ls: Sequence[int] = DEFAULT_LS, ns: Sequence[int] = DEFAULT_NS
) -> SweepSpec:
    return SweepSpec(
        name="fig9",
        evaluator=online_ratio_point,
        axes=[Axis("L", tuple(Ls)), Axis("n", tuple(ns))],
        metrics=("online_cost", "offline_cost", "applies", "bound"),
    )


def _row(n, a, f, applies, bound):
    ratio = a / f
    within = (not applies) or ratio <= bound + 1e-12
    return (
        n,
        a,
        f,
        round(ratio, 5),
        round(bound, 5) if applies else "-",
        "ok" if within else "VIOLATION",
    )


def _table(L: int, rows, columns=None) -> ExperimentResult:
    return ExperimentResult(
        title=f"A(L,n)/F(L,n) for L = {L}",
        headers=("n", "A(L,n)", "F(L,n)", "ratio", "Thm22 bound", "status"),
        rows=rows,
        notes=[
            "Shape target: ratio -> 1 as the horizon grows.",
            "\n"
            + render_chart(
                [r[0] for r in rows],
                [("A/F ratio", [r[3] for r in rows])],
                x_label="time horizon n (slots, log scale)",
                logx=True,
            ),
        ],
        columns=columns,
    )


@register(
    "fig9",
    "On-line / off-line bandwidth ratio vs horizon (Fig. 9)",
    "Fig. 9 / Theorems 21-22",
    "A(L,n)/F(L,n) for several L as the horizon n grows, with the "
    "Theorem 22 bound 1 + 2L/n where it applies.",
)
def run_fig9(
    Ls: Sequence[int] = DEFAULT_LS, ns: Sequence[int] = DEFAULT_NS
) -> List[ExperimentResult]:
    sweep = run_sweep(fig9_spec(Ls, ns))
    columns = sweep.columns_json()
    results = []
    # Points are row-major over (L, n): slice the flat table back into
    # one per-L figure panel.
    per_l = len(tuple(ns))
    all_rows = sweep.rows("L", "n", "online_cost", "offline_cost", "applies", "bound")
    for i, L in enumerate(Ls):
        block = all_rows[i * per_l : (i + 1) * per_l]
        rows = [_row(n, a, f, applies, bound) for _, n, a, f, applies, bound in block]
        results.append(_table(L, rows, columns=columns if i == 0 else None))
    return results

