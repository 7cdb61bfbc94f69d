"""Point evaluators: one grid point in, a dict of named metrics out.

These are the per-point kernels the figure/table sweeps are declared
over.  Every evaluator routes through the batched tier — the closed-form
``Acost``/``Mcost``/``Fcost`` evaluators, the memoised fastpath cost
tables, or :func:`repro.fleet.engine.simulate_batched` — never through
per-client event loops or ``MergeNode`` walks; the drivers keep their old
per-point loops only as benchmark/golden *references*.

All evaluators are module-level (picklable by reference, so the engine
can ship them to worker processes) and return JSON scalars only (so
their results are cacheable artifacts).  Keyword-only signatures keep
the fixed-vs-axis split explicit at the call site.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from ..arrivals import ArrivalTrace, constant_rate, poisson
from ..baselines.dyadic import DyadicParams, paper_beta
from ..core import bounds, dp, offline, receive_all
from ..core.buffers import optimal_bounded_full_cost
from ..core.fibonacci import PHI, is_fib
from ..core.full_cost import optimal_full_cost
from ..core.online import online_full_cost_closed
from ..fastpath import cost_tables
from ..fleet import capacity
from ..fleet.engine import FleetPolicy, simulate_batched
from ..fleet.runner import run_fleet
from ..multiplex import Catalog, catalog_workload

__all__ = [
    "delay_savings_point",
    "online_ratio_point",
    "root_interval_point",
    "merge_cost_table_point",
    "receive_all_table_point",
    "policy_comparison_point",
    "merge_ratio_point",
    "full_cost_ratio_point",
    "batching_gain_point",
    "merge_sandwich_point",
    "dyadic_sensitivity_point",
    "static_tree_point",
    "construction_timing_point",
    "bounded_buffer_point",
    "multiplex_point",
    "general_offline_point",
    "hybrid_threshold_point",
    "day_night_trace",
    "tree_multiplicity_point",
]


# ---------------------------------------------------------------------------
# batched-tier cost kernels
# ---------------------------------------------------------------------------


def _streams_served(trace: ArrivalTrace, L: int, policy: FleetPolicy) -> float:
    """``Fcost / L`` of one policy's realised forest via the batched kernel.

    The forest's ``full_cost`` (vectorised ``Fcost``) is the same
    evaluator the closed per-point computations used, so values are
    bit-identical to the retired loops.
    """
    result = simulate_batched(L, trace, policy, slot=1.0)
    return result.flat_forest().full_cost(L) / L


def _trace(kind: str, lam: float, horizon: float, seed: int) -> ArrivalTrace:
    if kind == "constant":
        return constant_rate(lam, horizon)
    return poisson(lam, horizon, seed=seed)


# ---------------------------------------------------------------------------
# Fig. 1 — bandwidth savings vs start-up delay
# ---------------------------------------------------------------------------


def delay_savings_point(*, pct: float, horizon_media: int) -> Dict[str, object]:
    """Off-line optimal and on-line DG cost at one delay percentage."""
    if not 0 < pct <= 100:
        raise ValueError(f"delay percent must be in (0, 100], got {pct}")
    L = max(1, round(100.0 / pct))
    n = horizon_media * L
    return {
        "L": L,
        "n": n,
        "offline_cost": optimal_full_cost(L, n),
        "online_cost": online_full_cost_closed(L, n),
    }


# ---------------------------------------------------------------------------
# Fig. 9 — on-line / off-line ratio vs horizon
# ---------------------------------------------------------------------------


def online_ratio_point(*, L: int, n: int) -> Dict[str, object]:
    a = online_full_cost_closed(L, n)
    f = optimal_full_cost(L, n)
    applies = bounds.online_ratio_bound_applies(L, n)
    return {
        "online_cost": a,
        "offline_cost": f,
        "applies": bool(applies),
        "bound": float(bounds.online_ratio_bound(L, n)),
    }


# ---------------------------------------------------------------------------
# Fig. 8 — root-merge intervals I(n)
# ---------------------------------------------------------------------------


def root_interval_point(*, n: int) -> Dict[str, object]:
    """Theorem 3 closed-form interval vs the DP argmin set at one ``n``.

    The argmin scan runs over the *memoised* fastpath cost table (equal
    entry for entry to ``core.dp.merge_cost_table`` — property-tested in
    ``tests/fastpath``), so a point costs O(n) instead of re-running the
    O(n^2) DP per point.
    """
    lo, hi = offline.root_merge_interval(n)
    k, m, case = offline.interval_case(n)
    table = cost_tables.merge_cost_table(n)
    best = table[n]
    dp_set = [
        h for h in range(1, n) if table[h] + table[n - h] + 2 * n - h - 2 == best
    ]
    dp_lo, dp_hi = dp_set[0], dp_set[-1]
    contiguous = dp_set == list(range(dp_lo, dp_hi + 1))
    return {
        "lo": lo,
        "hi": hi,
        "k": k,
        "m": m,
        "case": case,
        "dp_lo": dp_lo,
        "dp_hi": dp_hi,
        "contiguous": bool(contiguous),
    }


# ---------------------------------------------------------------------------
# Section 3.1 / 3.4 in-text tables — M(n), Mw(n)
# ---------------------------------------------------------------------------


def merge_cost_table_point(*, n: int) -> Dict[str, object]:
    return {
        "closed": offline.merge_cost(n),
        "via_dp": cost_tables.merge_cost(n),
    }


def receive_all_table_point(*, n: int) -> Dict[str, object]:
    return {
        "closed": receive_all.merge_cost_receive_all(n),
        "via_dp": cost_tables.receive_all_cost(n),
    }


# ---------------------------------------------------------------------------
# Figs. 11-12 — policy comparison under varying arrival intensity
# ---------------------------------------------------------------------------


def policy_comparison_point(
    *,
    lam: float,
    L: int,
    horizon: float,
    kind: str,
    seeds: Sequence[int],
    include_batching: bool = False,
) -> Dict[str, object]:
    """Immediate dyadic / batched dyadic / DG bandwidth at one intensity.

    Dyadic runs go through :func:`repro.fleet.engine.simulate_batched`;
    the DG term is the closed-form ``Acost`` (intensity-independent).
    """
    if kind not in ("constant", "poisson"):
        raise ValueError(f"unknown arrival kind {kind!r}")
    n_slots = int(np.ceil(horizon))
    dg = online_full_cost_closed(L, n_slots) / L

    dyadic = FleetPolicy.immediate_dyadic(DyadicParams(alpha=PHI, beta=0.5))
    batched = FleetPolicy.batched_dyadic(
        DyadicParams(alpha=PHI, beta=paper_beta(L, kind))
    )

    imm_vals, bat_vals, pure_vals = [], [], []
    for seed in seeds:
        trace = _trace(kind, lam, horizon, seed)
        if len(trace) == 0:
            continue
        imm_vals.append(_streams_served(trace, L, dyadic))
        bat_vals.append(_streams_served(trace, L, batched))
        if include_batching:
            pure_vals.append(_streams_served(trace, L, FleetPolicy.pure_batching()))
        if kind == "constant":
            break  # deterministic; one rep suffices
    out: Dict[str, object] = {
        "immediate_dyadic": float(np.mean(imm_vals)) if imm_vals else 0.0,
        "batched_dyadic": float(np.mean(bat_vals)) if bat_vals else 0.0,
        "delay_guaranteed": dg,
    }
    if include_batching:
        out["pure_batching"] = float(np.mean(pure_vals)) if pure_vals else 0.0
    return out


# ---------------------------------------------------------------------------
# Theorems 19/20, 14, 8 — asymptotics
# ---------------------------------------------------------------------------


def merge_ratio_point(*, n: int) -> Dict[str, object]:
    return {
        "m": offline.merge_cost(n),
        "mw": receive_all.merge_cost_receive_all(n),
    }


def full_cost_ratio_point(*, L: int, n_factor: int) -> Dict[str, object]:
    n = n_factor * L
    return {
        "n": n,
        "f2": optimal_full_cost(L, n),
        "fa": receive_all.optimal_full_cost_receive_all(L, n),
    }


def batching_gain_point(*, L: int, n_factor: int) -> Dict[str, object]:
    n = n_factor * L
    return {
        "n": n,
        "batching": bounds.batching_cost(L, n),
        "merged": optimal_full_cost(L, n),
        "order": float(bounds.batching_gain_order(L)),
    }


def merge_sandwich_point(*, n: int) -> Dict[str, object]:
    m = offline.merge_cost(n)
    return {
        "lower": float(bounds.merge_cost_lower(n)),
        "m": m,
        "upper": float(bounds.merge_cost_upper(n)),
        "normalised": m / (n * bounds.log_phi(n)),
    }


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def dyadic_sensitivity_point(
    *,
    alpha: float,
    beta: float,
    L: int,
    lam: float,
    horizon: float,
    seeds: Sequence[int],
) -> Dict[str, object]:
    """Mean dyadic bandwidth at one (alpha, beta) over the seeded traces."""
    policy = FleetPolicy.immediate_dyadic(DyadicParams(alpha=alpha, beta=beta))
    costs = []
    for seed in seeds:
        trace = poisson(lam, horizon, seed=seed)
        if len(trace) == 0:
            continue
        costs.append(_streams_served(trace, L, policy))
    return {"mean_streams": sum(costs) / len(costs)}


def static_tree_point(*, size: int, L: int, n: int) -> Dict[str, object]:
    return {
        "cost": online_full_cost_closed(L, n, tree_size=size),
        "is_fib": bool(is_fib(size)),
    }


def construction_timing_point(*, n: int) -> Dict[str, object]:
    """Wall-clock of the O(n) builder vs the O(n^2) DP (not cacheable)."""
    t0 = time.perf_counter()
    tree_fast = offline.build_optimal_tree(n)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    dp.merge_cost_table(n)
    t_dp = time.perf_counter() - t0
    return {
        "t_fast": t_fast,
        "t_dp": t_dp,
        "m": int(tree_fast.merge_cost()),
    }


def bounded_buffer_point(*, B: int, L: int, n: int) -> Dict[str, object]:
    return {"cost": optimal_bounded_full_cost(L, n, B)}


# ---------------------------------------------------------------------------
# Section 5 extensions
# ---------------------------------------------------------------------------


def multiplex_point(
    *,
    delay: float,
    titles: int,
    horizon: float,
    mean_interarrival: float,
    seed: int,
    duration: float = 120.0,
    exponent: float = 0.8,
) -> Dict[str, object]:
    """DG vs dyadic provisioning for one delay guarantee.

    DG peak and bandwidth come from the memoised slot-unit envelopes of
    :mod:`repro.fleet.capacity`; dyadic from an immediate-dyadic
    :func:`~repro.fleet.runner.run_fleet` over the seeded workload.
    Catalog and workload are regenerated from the seed per point (cheap
    next to the serve), keeping the evaluator a pure function of its
    parameters — the property the content-hash cache relies on.
    """
    catalog = Catalog.zipf(titles, duration_minutes=duration, exponent=exponent)
    workload = catalog_workload(catalog, mean_interarrival, horizon, seed=seed)
    envelopes = capacity.dg_envelopes(catalog, delay, horizon)
    dy = run_fleet(
        catalog, delay, horizon, FleetPolicy.immediate_dyadic(), workload=workload
    )
    return {
        "dg_peak": capacity.aggregate_peak(envelopes),
        "dg_units": sum(
            float(np.sum(ends - starts) * delay) for _, starts, ends in envelopes
        ),
        "dy_peak": dy.peak_channels,
        "dy_units": dy.total_units_minutes,
    }


def day_night_trace(
    day_lam: float,
    night_lam: float,
    phase_slots: float,
    phases: int,
    seed: int,
) -> ArrivalTrace:
    """Alternating quiet/busy Poisson phases (the Section 5 hybrid workload).

    Phase ``p`` uses mean inter-arrival ``day_lam`` when odd, ``night_lam``
    when even, seeded per phase — exactly the trace the hybrid golden
    table has always been generated from.
    """
    times = []
    for phase in range(phases):
        lam = day_lam if phase % 2 else night_lam
        sub = poisson(lam, phase_slots, seed=seed + phase)
        times.extend(phase * phase_slots + t for t in sub)
    return ArrivalTrace(
        times=tuple(sorted(times)), horizon=phases * phase_slots
    )


def hybrid_threshold_point(
    *,
    rate_high: float,
    low_frac: float,
    L: int,
    window_slots: int,
    day_lam: float,
    night_lam: float,
    phase_slots: float,
    phases: int,
    seed: int,
) -> Dict[str, object]:
    """One hysteresis setting of the hybrid server on the day/night trace.

    ``rate_low = low_frac * rate_high`` keeps the sweep grid rectangular
    while satisfying the ``0 <= rate_low <= rate_high`` contract at every
    point.  Runs through the batched kernel's mode segments (``hybrid``
    kind of :func:`repro.fleet.engine.simulate_batched`) — no event queue.
    """
    trace = day_night_trace(day_lam, night_lam, phase_slots, phases, seed)
    policy = FleetPolicy.hybrid(
        window_slots=window_slots,
        rate_high=rate_high,
        rate_low=low_frac * rate_high,
    )
    run = simulate_batched(L, trace, policy, slot=1.0)
    return {
        "streams": float(run.metrics.streams_served),
        "peak": int(run.metrics.peak_concurrency()),
        "switches": len(run.mode_log or []),
    }


def general_offline_point(
    *, lam: float, L: int, horizon: float, seed: int
) -> Dict[str, object]:
    """Clairvoyant optimum vs batched dyadic vs DG on one sparse trace.

    The optimum and the dyadic comparator both run through
    ``simulate_batched`` (general-offline / batched-dyadic kinds); slot
    ends are integers, so the forest ``Fcost`` equals the DP optimum
    exactly.  Traces with < 2 arrivals mark the point skipped (mirroring
    the reference loop, which drops the row).
    """
    trace = poisson(lam, horizon, seed=seed)
    if len(trace) < 2:
        return {
            "skip": True,
            "served_slots": 0,
            "opt": 0.0,
            "dyadic": 0.0,
            "dg": 0.0,
        }
    opt_run = simulate_batched(L, trace, FleetPolicy.general_offline(), slot=1.0)
    opt_forest = opt_run.flat_forest()
    dyadic = _streams_served(trace, L, FleetPolicy.batched_dyadic()) * L
    return {
        "skip": False,
        "served_slots": int(len(opt_forest)),
        "opt": float(opt_forest.full_cost(L)),
        "dyadic": float(dyadic),
        "dg": online_full_cost_closed(L, int(horizon)),
    }


# ---------------------------------------------------------------------------
# Figs. 6-7 — optimal tree multiplicity
# ---------------------------------------------------------------------------


def tree_multiplicity_point(*, n: int) -> Dict[str, object]:
    """Optimal merge trees over ``n`` arrivals: how many, and their cost.

    Both come from the exact merge-cost histogram over all ``C_{n-1}``
    preorder trees (:func:`repro.core.offline.merge_cost_counts`), so no
    tree is built.  ``m`` is the histogram's own minimum, not Eq. (6), so
    the table's M(n) column still checks the closed form independently.
    """
    counts = offline.merge_cost_counts(n)
    m = min(counts)
    return {"count": counts[m], "m": m}
