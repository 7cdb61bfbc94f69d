"""Section 5 future-work extensions, made concrete.

* ``multiplex`` — a multi-object catalog served under a fixed channel
  budget: DG's deterministic peak vs dyadic's load-dependent peak, and the
  delay-guarantee knob that caps the maximum bandwidth.
* ``hybrid`` — the paper's suggested hybrid server (DG when busy, dyadic
  when quiet) on a day/night workload, against both pure policies.
* ``general-offline`` — the true clairvoyant optimum over non-empty slots
  (from [6]) scoring the on-line heuristics on sparse workloads.

``multiplex`` and ``general-offline`` are grids (delay axis, intensity
axis) and run as sweeps through the batched tier.  ``hybrid`` is one
workload against three policies, all served by the batched kernel — the
hybrid's rate-window mode feedback cuts its run into DG and dyadic
segments (:func:`repro.fleet.engine.simulate_batched`), not events.
``hybrid-thresholds`` sweeps the hysteresis knobs over a (high, low)
grid through the same kernel.
"""

from __future__ import annotations

from typing import List, Sequence

from ..fleet.capacity import min_fleet_delay
from ..fleet.engine import FleetPolicy, simulate_batched
from ..multiplex import Catalog
from ..sweeps import Axis, SweepSpec, run_sweep
from ..sweeps.evaluators import (
    day_night_trace,
    general_offline_point,
    hybrid_threshold_point,
    multiplex_point,
)
from .harness import ExperimentResult, register


def multiplex_spec(
    titles: int,
    horizon_minutes: float,
    mean_interarrival_minutes: float,
    delays: Sequence[float],
    seed: int,
) -> SweepSpec:
    return SweepSpec(
        name="multiplex",
        evaluator=multiplex_point,
        axes=[Axis("delay", tuple(delays))],
        fixed={
            "titles": int(titles),
            "horizon": float(horizon_minutes),
            "mean_interarrival": float(mean_interarrival_minutes),
            "seed": int(seed),
        },
        metrics=("dg_peak", "dg_units", "dy_peak", "dy_units"),
        version="2",
    )


@register(
    "multiplex",
    "Multi-object server: peak channels vs delay guarantee (Section 5)",
    "Section 5 (future work), made concrete",
    "DG's deterministic channel envelope vs dyadic's load-dependent peak "
    "across delay guarantees; the delay knob that caps max bandwidth.",
)
def run_multiplex(
    titles: int = 20,
    horizon_minutes: float = 720.0,
    mean_interarrival_minutes: float = 0.5,
    delays: Sequence[float] = (2.0, 5.0, 10.0, 15.0, 30.0),
    seed: int = 7,
) -> List[ExperimentResult]:
    sweep = run_sweep(
        multiplex_spec(
            titles, horizon_minutes, mean_interarrival_minutes, delays, seed
        )
    )
    rows = [
        (
            delay,
            dg_peak,
            round(dg_units / 60.0, 1),
            dy_peak,
            round(dy_units / 60.0, 1),
        )
        for delay, dg_peak, dg_units, dy_peak, dy_units in sweep.rows(
            "delay", "dg_peak", "dg_units", "dy_peak", "dy_units"
        )
    ]
    budget = rows[len(rows) // 2][1]  # mid-grid DG peak as the budget
    catalog = Catalog.zipf(titles, duration_minutes=120.0, exponent=0.8)
    chosen = min_fleet_delay(catalog, horizon_minutes, budget, delays)
    return [
        ExperimentResult(
            title=f"Catalog of {titles} titles, {horizon_minutes:.0f} min "
            f"horizon, ~{1/mean_interarrival_minutes:.1f} req/min",
            headers=(
                "delay (min)",
                "DG peak ch.",
                "DG stream-hours",
                "dyadic peak ch.",
                "dyadic stream-hours",
            ),
            rows=rows,
            notes=[
                "DG's peak is workload-independent (provisionable in "
                "advance); dyadic's depends on the request pattern.",
                f"min_delay_for_budget(budget={budget} channels) -> "
                f"{chosen} min.",
            ],
            columns=sweep.columns_json(),
        )
    ]


@register(
    "hybrid",
    "Hybrid server: DG when busy, dyadic when quiet (Section 5)",
    "Section 5 (future work), made concrete",
    "Day/night workload: hybrid vs pure DG vs pure immediate dyadic.",
)
def run_hybrid(
    L: int = 100,
    day_lam: float = 0.25,
    night_lam: float = 8.0,
    phase_slots: float = 500.0,
    phases: int = 4,
    seed: int = 3,
) -> List[ExperimentResult]:
    # Alternate night (quiet) and day (busy) phases.
    trace = day_night_trace(day_lam, night_lam, phase_slots, phases, seed)

    # All three policies run through the batched kernel; the hybrid's
    # mode feedback cuts its run into DG and dyadic segments (bit-identical
    # to the retired event-driven run — the equivalence suite pins it).
    pol_h = FleetPolicy.hybrid(window_slots=20, rate_high=1.0, rate_low=0.4)
    res_h = simulate_batched(L, trace, pol_h)
    res_dg = simulate_batched(L, trace, FleetPolicy.delay_guaranteed())
    res_dy = simulate_batched(L, trace, FleetPolicy.immediate_dyadic())
    mode_log = res_h.mode_log or []

    rows = [
        ("hybrid", round(res_h.metrics.streams_served, 2),
         res_h.metrics.peak_concurrency(), len(mode_log)),
        ("pure DG", round(res_dg.metrics.streams_served, 2),
         res_dg.metrics.peak_concurrency(), 0),
        ("immediate dyadic", round(res_dy.metrics.streams_served, 2),
         res_dy.metrics.peak_concurrency(), 0),
    ]
    return [
        ExperimentResult(
            title=f"Hybrid vs pure policies on a day/night workload "
            f"({phases} phases x {phase_slots:.0f} slots, "
            f"busy lam={day_lam}, quiet lam={night_lam})",
            headers=("policy", "streams served", "peak channels", "mode switches"),
            rows=rows,
            notes=[
                "Shape target: hybrid below pure DG in total bandwidth "
                "while keeping DG's bounded peak during busy phases.",
                f"hybrid mode log: {mode_log}",
            ],
        )
    ]


def hybrid_threshold_spec(
    L: int,
    rate_highs: Sequence[float],
    low_fracs: Sequence[float],
    window_slots: int,
    day_lam: float,
    night_lam: float,
    phase_slots: float,
    phases: int,
    seed: int,
) -> SweepSpec:
    return SweepSpec(
        name="hybrid-thresholds",
        evaluator=hybrid_threshold_point,
        axes=[
            Axis("rate_high", tuple(rate_highs)),
            Axis("low_frac", tuple(low_fracs)),
        ],
        fixed={
            "L": int(L),
            "window_slots": int(window_slots),
            "day_lam": float(day_lam),
            "night_lam": float(night_lam),
            "phase_slots": float(phase_slots),
            "phases": int(phases),
            "seed": int(seed),
        },
        metrics=("streams", "peak", "switches"),
    )


@register(
    "hybrid-thresholds",
    "Hybrid hysteresis sensitivity: bandwidth and peak across thresholds",
    "Section 5 (future work), made concrete",
    "The hybrid server's mode thresholds swept over a (rate_high, "
    "rate_low) grid on the day/night workload, through the batched "
    "kernel's mode segments.",
)
def run_hybrid_thresholds(
    L: int = 100,
    rate_highs: Sequence[float] = (0.5, 1.0, 2.0),
    low_fracs: Sequence[float] = (0.25, 0.5, 1.0),
    window_slots: int = 20,
    day_lam: float = 0.25,
    night_lam: float = 8.0,
    phase_slots: float = 500.0,
    phases: int = 4,
    seed: int = 3,
) -> List[ExperimentResult]:
    sweep = run_sweep(
        hybrid_threshold_spec(
            L, rate_highs, low_fracs, window_slots,
            day_lam, night_lam, phase_slots, phases, seed,
        )
    )
    rows = [
        (rh, round(rh * lf, 3), round(streams, 2), peak, switches)
        for rh, lf, streams, peak, switches in sweep.rows(
            "rate_high", "low_frac", "streams", "peak", "switches"
        )
    ]
    return [
        ExperimentResult(
            title=f"Hybrid hysteresis thresholds on the day/night workload "
            f"(L={L}, window={window_slots} slots)",
            headers=(
                "rate_high",
                "rate_low",
                "streams served",
                "peak channels",
                "mode switches",
            ),
            rows=rows,
            notes=[
                "Shape target: wider hysteresis (rate_low well below "
                "rate_high) trades a little bandwidth for fewer mode "
                "switches; a low rate_high pins DG through busy phases.",
            ],
            columns=sweep.columns_json(),
        )
    ]


def general_offline_spec(
    L: int, lams: Sequence[float], horizon: float, seed: int
) -> SweepSpec:
    return SweepSpec(
        name="general-offline",
        evaluator=general_offline_point,
        axes=[Axis("lam", tuple(lams))],
        fixed={"L": int(L), "horizon": float(horizon), "seed": int(seed)},
        metrics=("skip", "served_slots", "opt", "dyadic", "dg"),
    )


@register(
    "general-offline",
    "True offline optimum vs on-line heuristics on sparse workloads",
    "[6] general-arrivals optimum as the clairvoyant bound",
    "Batched dyadic and DG scored against the O(n^3) optimal forest over "
    "the non-empty slots.",
)
def run_general_offline(
    L: int = 50,
    lams: Sequence[float] = (2.0, 4.0, 8.0),
    horizon: float = 400.0,
    seed: int = 1,
) -> List[ExperimentResult]:
    sweep = run_sweep(general_offline_spec(L, lams, horizon, seed))
    rows = []
    for lam, skip, served, opt, dyadic, dg in sweep.rows(
        "lam", "skip", "served_slots", "opt", "dyadic", "dg"
    ):
        if skip:
            continue
        rows.append(
            (
                lam,
                served,
                round(opt, 1),
                round(dyadic, 1),
                round(dyadic / opt, 4),
                round(dg, 1),
                round(dg / opt, 4),
            )
        )
    return [
        ExperimentResult(
            title=f"Clairvoyant optimum over non-empty slots (L={L}, "
            f"horizon={horizon:.0f} slots)",
            headers=(
                "lam",
                "served slots",
                "optimal",
                "batched dyadic",
                "dyadic/opt",
                "DG",
                "DG/opt",
            ),
            rows=rows,
            notes=[
                "Shape target: dyadic within a modest factor of optimal; "
                "DG's overhead grows with sparsity (it serves every slot).",
            ],
            columns=sweep.columns_json(),
        )
    ]
