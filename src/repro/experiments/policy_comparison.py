"""Figs. 11-12: on-line policy comparison under varying arrival intensity.

Setup (Section 4.2, 'Varying the client arrival intensity'): the start-up
delay is fixed at 1% of the media length (so the media is ``L = 100``
slots and one slot = the delay); the mean inter-arrival time ``lam`` sweeps
from near 0% to 5% of the media length; simulations run for 100 media
lengths (``n = 100 L`` slots).  Three algorithms are compared on total
server bandwidth (in complete-media-stream units):

* immediate-service dyadic (alpha = phi, beta = 0.5) — serves each client
  at its exact arrival time;
* batched dyadic (alpha = phi; beta = 0.5 for Poisson, ``F_h / L`` for
  constant rate) — clients wait for their slot end; empty slots idle;
* the Delay Guaranteed on-line algorithm — a stream every slot regardless.

Sweep-tier driver: the intensity grid is a one-axis
:class:`~repro.sweeps.SweepSpec`; each point runs the dyadic policies
through the batched fleet kernel (:func:`repro.fleet.simulate_batched`)
and takes DG from the closed-form ``Acost`` (intensity-independent).
The event-driven simulator produces identical totals — asserted in the
integration tests — and the retired per-point loop is the oracle of
``benchmarks/bench_experiments.py``.

Expected shape (the paper's findings): DG is flat in ``lam``; immediate
dyadic is worst for ``lam < delay`` (no batching savings) and best for
``lam > delay``; the crossover sits near ``lam = delay``; DG degrades on
Poisson arrivals relative to constant rate because empty slots still
start streams.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sweeps import Axis, SweepSpec, run_sweep
from ..sweeps.evaluators import policy_comparison_point
from .charts import render_chart
from .harness import ExperimentResult, register

DEFAULT_LAMBDAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)


def compare_policies(
    L: int,
    lam: float,
    horizon: float,
    kind: str,
    seeds: Sequence[int] = (0,),
    include_batching: bool = False,
) -> dict:
    """Bandwidth (streams served) of each policy at one intensity.

    ``lam`` and ``horizon`` are in slot units (slot = the start-up delay;
    with L=100 one slot is 1% of the media, so ``lam`` in slots equals the
    paper's 'percentage of media length' axis).  Thin wrapper over the
    sweep evaluator (kept for the examples and tests that call it
    directly).
    """
    out = policy_comparison_point(
        lam=lam,
        L=L,
        horizon=horizon,
        kind=kind,
        seeds=tuple(seeds),
        include_batching=include_batching,
    )
    return {"lam": lam, **out}


def comparison_spec(
    kind: str,
    L: int,
    lambdas: Sequence[float],
    horizon_media: int,
    seeds: Sequence[int],
) -> SweepSpec:
    return SweepSpec(
        name=f"policy-comparison-{kind}",
        evaluator=policy_comparison_point,
        axes=[Axis("lam", tuple(lambdas))],
        fixed={
            "L": int(L),
            "horizon": float(horizon_media * L),
            "kind": kind,
            "seeds": tuple(seeds),
        },
        metrics=("immediate_dyadic", "batched_dyadic", "delay_guaranteed"),
    )


def _table(kind: str, L: int, horizon_media: int, rows, columns=None):
    pretty = "constant rate" if kind == "constant" else "Poisson"
    return [
        ExperimentResult(
            title=f"Policy comparison, {pretty} arrivals "
            f"(L={L}, horizon={horizon_media} media lengths)",
            headers=(
                "lam (% of media)",
                "immediate dyadic",
                "batched dyadic",
                "delay guaranteed",
            ),
            rows=rows,
            notes=[
                "Bandwidth in complete media streams served (= units / L).",
                "Delay Guaranteed is intensity-independent by construction.",
                "Crossover expected near lam = start-up delay (1 slot).",
                "\n"
                + render_chart(
                    [r[0] for r in rows],
                    [
                        ("immediate dyadic", [r[1] for r in rows]),
                        ("batched dyadic", [r[2] for r in rows]),
                        ("delay guaranteed", [r[3] for r in rows]),
                    ],
                    x_label="mean inter-arrival (% of media length)",
                ),
            ],
            columns=columns,
        )
    ]


def _run_comparison(
    kind: str,
    L: int,
    lambdas: Sequence[float],
    horizon_media: int,
    seeds: Sequence[int],
) -> List[ExperimentResult]:
    sweep = run_sweep(comparison_spec(kind, L, lambdas, horizon_media, seeds))
    rows = [
        (lam, round(imm, 2), round(bat, 2), round(dg, 2))
        for lam, imm, bat, dg in sweep.rows(
            "lam", "immediate_dyadic", "batched_dyadic", "delay_guaranteed"
        )
    ]
    return _table(kind, L, horizon_media, rows, columns=sweep.columns_json())


@register(
    "fig11",
    "Policy comparison under constant-rate arrivals (Fig. 11)",
    "Fig. 11",
    "Immediate dyadic vs batched dyadic vs Delay Guaranteed; constant "
    "inter-arrival gap sweep.",
)
def run_fig11(
    L: int = 100,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    horizon_media: int = 100,
) -> List[ExperimentResult]:
    return _run_comparison("constant", L, lambdas, horizon_media, seeds=(0,))


@register(
    "fig12",
    "Policy comparison under Poisson arrivals (Fig. 12)",
    "Fig. 12",
    "Immediate dyadic vs batched dyadic vs Delay Guaranteed; Poisson "
    "mean inter-arrival sweep, averaged over seeds.",
)
def run_fig12(
    L: int = 100,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    horizon_media: int = 100,
    seeds: Sequence[int] = (0, 1, 2),
) -> List[ExperimentResult]:
    return _run_comparison("poisson", L, lambdas, horizon_media, seeds=seeds)

