"""Fig. 1: bandwidth savings as the guaranteed start-up delay grows.

Setup (paper Section 1 / 4.2): a media object of fixed duration is served
over a time horizon of 100 media lengths; a stream starts at the end of
every unit, where one unit = the start-up delay.  The x-axis is the delay
as a percentage of the media length (so ``L = 100 / pct`` slots and the
horizon holds ``n = 100 * L`` slots); the y-axis is total server bandwidth
in *complete media streams served* (``Fcost / L``).

Both the optimal off-line algorithm (Theorem 12) and the on-line Delay
Guaranteed algorithm are plotted; the paper's observation is that the
curves nearly coincide and fall steeply as delay grows.  Pure batching
(one full stream per slot = ``n`` streams) is included for scale.

Sweep-tier driver: the grid is a one-axis :class:`~repro.sweeps.SweepSpec`
over the delay percentage, each point evaluated by the closed-form
``Fcost``/``Acost`` kernels (no forest is built); the retired per-point
loop is the oracle of ``benchmarks/bench_experiments.py``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sweeps import Axis, SweepSpec, run_sweep
from ..sweeps.evaluators import delay_savings_point
from .charts import render_chart
from .harness import ExperimentResult, register

#: Delay grid (percent of the media length) mirroring the figure's x-axis.
DEFAULT_DELAYS = (0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 10.0, 12.5, 20.0)


def fig1_spec(
    delays_pct: Sequence[float] = DEFAULT_DELAYS, horizon_media: int = 100
) -> SweepSpec:
    return SweepSpec(
        name="fig1",
        evaluator=delay_savings_point,
        axes=[Axis("pct", tuple(delays_pct))],
        fixed={"horizon_media": int(horizon_media)},
        metrics=("L", "n", "offline_cost", "online_cost"),
    )


def _format(rows, horizon_media: int, columns=None) -> List[ExperimentResult]:
    return [
        ExperimentResult(
            title="Streams served vs start-up delay (horizon = "
            f"{horizon_media} media lengths)",
            headers=(
                "delay % of media",
                "L (slots)",
                "n (slots)",
                "off-line opt (streams)",
                "on-line DG (streams)",
                "batching (streams)",
                "on-line/off-line",
            ),
            rows=rows,
            notes=[
                "Shape target: monotone decrease with delay; on-line within "
                "a few percent of off-line (paper: 'very close').",
                "\n"
                + render_chart(
                    [r[0] for r in rows],
                    [
                        ("off-line optimal", [r[3] for r in rows]),
                        ("on-line DG", [r[4] for r in rows]),
                    ],
                    x_label="start-up delay (% of media length)",
                    logy=True,
                ),
            ],
            columns=columns,
        )
    ]


def _row(pct, L, n, f_opt, a_onl):
    return (
        pct,
        L,
        n,
        round(f_opt / L, 2),
        round(a_onl / L, 2),
        n,  # batching: one full stream per slot
        round(a_onl / f_opt, 4),
    )


@register(
    "fig1",
    "Bandwidth savings vs guaranteed start-up delay (Fig. 1)",
    "Fig. 1",
    "Off-line optimal F(L,n)/L and on-line A(L,n)/L over a 100-media-length "
    "horizon as the delay grows.",
)
def run_fig1(
    delays_pct: Sequence[float] = DEFAULT_DELAYS,
    horizon_media: int = 100,
) -> List[ExperimentResult]:
    sweep = run_sweep(fig1_spec(delays_pct, horizon_media))
    rows = [
        _row(*vals)
        for vals in sweep.rows("pct", "L", "n", "offline_cost", "online_cost")
    ]
    return _format(rows, horizon_media, columns=sweep.columns_json())

