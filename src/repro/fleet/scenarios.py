"""Scenario library: catalog-scale workload shapes as trace transformers.

The paper evaluates on constant-rate and Poisson arrivals; a fleet needs
the shapes an operator actually sees.  Scenarios here are expressed as
composable :data:`Transformer` functions (``ArrivalTrace -> ArrivalTrace``)
plus a few direct generators, so a workload is built by piping a base
process through modifiers::

    trace = compose(
        diurnal(period=1440.0, depth=0.8, seed=1),
        flash_crowd(at=300.0, clients=500, spread=2.0, seed=2),
    )(poisson(0.05, 1440.0, seed=0))

Everything is seeded and deterministic.  :func:`scenario_workload` wires
the named scenarios (``zipf``, ``flash``, ``diurnal``, ``premiere``,
``blend``) into catalog workloads for the fleet runner, the live daemon
and the ``python -m repro fleet`` CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

import numpy as np

from ..arrivals.generators import SeedLike, constant_rate, poisson, rng_from
from ..arrivals.traces import ArrivalTrace
from ..multiplex import Catalog, Workload, split_requests

__all__ = [
    "Transformer",
    "compose",
    "inject",
    "flash_crowd",
    "premiere_drop",
    "diurnal",
    "thinned",
    "constant_poisson_blend",
    "SCENARIOS",
    "scenario_workload",
]

#: a workload shape: consumes a trace, returns a reshaped trace on the
#: same horizon.
Transformer = Callable[[ArrivalTrace], ArrivalTrace]


def compose(*transformers: Transformer) -> Transformer:
    """Left-to-right composition of transformers."""

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        for t in transformers:
            trace = t(trace)
        return trace

    return apply


def _strictly_increasing(times: Iterable[float], horizon: float) -> ArrivalTrace:
    """Sorted times nudged onto a strictly increasing grid inside [0, horizon).

    Each time that does not exceed its (already nudged) predecessor moves
    one float step past it.  On non-negative floats the bit pattern is an
    order-preserving integer and one step is ``+1``, so the cascade is a
    running maximum of ``bits[i] - i``; a nudge reaching the horizon drops
    that time and every later one.
    """
    ts = np.sort(np.asarray(times, dtype=np.float64), kind="stable")
    ts = ts[(ts >= 0.0) & (ts < horizon)]
    if not (ts[1:] > ts[:-1]).all():
        step = np.arange(ts.size)
        # + 0.0 folds -0.0 into +0.0, whose bit pattern is the integer 0
        bits = np.maximum.accumulate((ts + 0.0).view(np.int64) - step) + step
        ts = bits[bits < np.float64(horizon).view(np.int64)].view(np.float64)
    return ArrivalTrace(times=ts, horizon=horizon)


def inject(extra_times: Iterable[float]) -> Transformer:
    """Merge extra arrival times into a trace (duplicates nudged)."""
    extras = np.array(
        extra_times if isinstance(extra_times, np.ndarray) else list(extra_times),
        dtype=np.float64,
    )

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        return _strictly_increasing(
            np.concatenate([trace.times, extras]), trace.horizon
        )

    return apply


def flash_crowd(
    at: float, clients: int, spread: float, seed: SeedLike = None
) -> Transformer:
    """A sudden crowd: ``clients`` extra arrivals uniform on [at, at+spread).

    The classic breaking-news / goal-replay surge — the workload the
    paper's batched policies amortise best (one slot end serves the whole
    crowd) and unicast melts under.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = rng_from(seed)
    burst = at + rng.uniform(0.0, spread, size=clients)

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        return inject(burst)(trace)

    return apply


def premiere_drop(
    clients: int,
    decay: float,
    at: float = 0.0,
    seed: SeedLike = None,
) -> Transformer:
    """A premiere: demand spikes at release and decays exponentially.

    Adds an inhomogeneous Poisson cluster with rate proportional to
    ``exp(-(t - at) / decay)`` — ``clients`` expected extra arrivals,
    drawn by inverting the cumulative rate (exact, no thinning loop).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if decay <= 0:
        raise ValueError("decay must be positive")
    rng = rng_from(seed)

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        # Truncated-exponential inverse sampling on [at, horizon).
        span = trace.horizon - at
        if span <= 0:
            raise ValueError(f"premiere at {at} is outside the horizon")
        mass = 1.0 - float(np.exp(-span / decay))
        n = int(rng.poisson(clients * mass))
        u = rng.uniform(0.0, 1.0, size=n)
        offsets = -decay * np.log1p(-u * mass)
        return inject(at + offsets)(trace)

    return apply


def diurnal(
    period: float, depth: float, phase: float = 0.0, seed: SeedLike = None
) -> Transformer:
    """Day/night modulation by thinning: keep probability follows a cosine.

    Keep probability at time ``t`` is
    ``(1 + depth * cos(2 pi (t - phase) / period)) / (1 + depth)`` —
    peaks at ``t = phase``, troughs half a period later.  Thinning a
    Poisson trace yields the inhomogeneous Poisson process with the
    modulated rate, so ``diurnal`` composes exactly with any Poisson
    base.  ``depth`` in [0, 1]; 0 is a no-op, 1 silences the trough.
    """
    if not 0.0 <= depth <= 1.0:
        raise ValueError(f"depth must be in [0, 1], got {depth}")
    if period <= 0:
        raise ValueError("period must be positive")
    rng = rng_from(seed)

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        if trace.is_empty():
            return trace
        ts = trace.times
        keep_p = (1.0 + depth * np.cos(2.0 * np.pi * (ts - phase) / period)) / (
            1.0 + depth
        )
        keep = rng.uniform(0.0, 1.0, size=ts.size) < keep_p
        return ArrivalTrace(times=ts[keep], horizon=trace.horizon)

    return apply


def thinned(keep_fraction: float, seed: SeedLike = None) -> Transformer:
    """Uniform thinning: keep each arrival independently with probability p."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    rng = rng_from(seed)

    def apply(trace: ArrivalTrace) -> ArrivalTrace:
        if trace.is_empty():
            return trace
        ts = trace.times
        keep = rng.uniform(0.0, 1.0, size=ts.size) < keep_fraction
        return ArrivalTrace(times=ts[keep], horizon=trace.horizon)

    return apply


def constant_poisson_blend(
    constant_interarrival: float,
    poisson_mean: float,
    horizon: float,
    seed: SeedLike = None,
) -> ArrivalTrace:
    """A deterministic subscriber drumbeat plus a Poisson overlay.

    Models a service with scheduled pulls (constant rate, e.g. prefetch
    clients) under organic on-demand traffic — the two Section 4.2
    workloads blended into one trace.
    """
    base = constant_rate(constant_interarrival, horizon)
    overlay = poisson(poisson_mean, horizon, seed=seed)
    return inject(overlay.times)(base)


# ---------------------------------------------------------------------------
# Named catalog scenarios
# ---------------------------------------------------------------------------

SCENARIOS: Dict[str, str] = {
    "zipf": "plain Zipf-split Poisson catalog workload",
    "flash": "Zipf workload with a flash crowd on the most popular object",
    "diurnal": "Zipf workload under day/night rate modulation",
    "premiere": "Zipf workload plus an exponential-decay premiere on rank 1",
    "blend": "constant-rate drumbeat + Poisson overlay on every object",
}


def scenario_workload(
    name: str,
    catalog: Catalog,
    mean_interarrival_minutes: float,
    horizon_minutes: float,
    seed: SeedLike = None,
) -> Workload:
    """Build a named catalog :class:`~repro.multiplex.Workload` for the
    fleet runner, the live daemon and the CLIs.

    All randomness flows from ``seed`` through a single generator, so a
    scenario is reproducible end to end.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    rng = rng_from(seed)
    top = catalog.popularity_rank()[0].name

    if name == "blend":
        traces = {
            obj.name: constant_poisson_blend(
                # drumbeat at ~20% of the object's organic rate
                constant_interarrival=5.0 * mean_interarrival_minutes / obj.weight,
                poisson_mean=mean_interarrival_minutes / obj.weight,
                horizon=horizon_minutes,
                seed=rng,
            )
            for obj in catalog
        }
        return Workload.of([obj.name for obj in catalog], traces, horizon_minutes)

    base = poisson(mean_interarrival_minutes, horizon_minutes, seed=rng)
    workload = split_requests(base, catalog, seed=rng)
    if name == "zipf":
        return workload
    if name == "diurnal":
        mod = diurnal(period=horizon_minutes / 2.0, depth=0.8, seed=rng)
        traces = {name_: mod(trace) for name_, trace in workload.items()}
    elif name == "flash":
        traces = {**workload, top: flash_crowd(
            at=horizon_minutes / 3.0,
            clients=max(50, len(base) // 10),
            spread=2.0,
            seed=rng,
        )(workload[top])}
    else:  # premiere
        traces = {**workload, top: premiere_drop(
            clients=max(100, len(base) // 5),
            decay=horizon_minutes / 10.0,
            at=0.0,
            seed=rng,
        )(workload[top])}
    return Workload.of(workload.names, traces, horizon_minutes)
