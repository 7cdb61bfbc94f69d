"""Title-by-title oracles for the catalog-wide stages after the engine.

The summary contract battery (:func:`repro.burnin.contracts.check_fleet_report`
without the replay) and the capacity planner (:mod:`repro.fleet.capacity`)
read the catalog as arrays and once per distinct duration.  These are the
loops they replaced, one title at a time, kept as the oracles the
equivalence tests compare them with:

* :func:`summary_contracts` — the delay-guarantee, conservation and
  cost-bounds bodies, one title at a time, every interval reduction on
  the title's own arrays.  Comparisons are written ``not x <= bound``, so
  NaN fails them, and a title whose interval arrays are not one 1-D size
  has no longest stream to measure;
* :func:`title_envelopes`, :func:`title_peak`, :func:`title_fleet_peak`
  and :func:`title_admission_report` — one memo lookup per title, peaks
  folded by envelope identity, and shedding over per-title envelope lists.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Dict, List

import numpy as np

from repro.burnin.contracts import ContractReport
from repro.fleet import capacity
from repro.fleet.capacity import AdmissionReport, dg_envelope

_REL = 1e-9
_EPS = 1e-9


# ---------------------------------------------------------------------------
# The summary contract battery
# ---------------------------------------------------------------------------


def _well_formed(o) -> bool:
    return o.starts.ndim == 1 and o.starts.shape == o.ends.shape


def check_delay_guarantee(report, out: ContractReport) -> None:
    bad = [
        o.name for o in report.objects
        if not o.max_startup_delay_minutes <= report.delay_minutes + _EPS
    ]
    out.record(
        "fleet.delay-guarantee",
        not bad,
        len(report.objects),
        f"guaranteed delay {report.delay_minutes:g} min exceeded for: "
        + ", ".join(bad[:5]),
    )


def check_conservation(report, out: ContractReport) -> None:
    checks = 0
    bad: List[str] = []
    for o in report.objects:
        checks += 4
        if not _well_formed(o) or o.streams != o.starts.size:
            bad.append(f"{o.name}: stream count != interval arrays")
            continue
        if o.starts.size and not (
            np.all(np.isfinite(o.starts)) and np.all(np.isfinite(o.ends))
        ):
            bad.append(f"{o.name}: non-finite interval endpoints")
            continue
        if o.starts.size and np.any(o.ends < o.starts):
            bad.append(f"{o.name}: stream ends before it starts")
            continue
        units = float(np.sum(o.ends - o.starts))
        if not abs(units - o.total_units_minutes) <= _REL * max(1.0, abs(units)):
            bad.append(
                f"{o.name}: summary units {o.total_units_minutes} != "
                f"interval sum {units}"
            )
    out.record(
        "fleet.conservation", not bad, checks, "; ".join(bad[:3])
    )


def check_cost_bounds(report, out: ContractReport) -> None:
    checks = 0
    bad: List[str] = []
    for o in report.objects:
        if o.streams == 0:
            continue
        checks += 3
        full = o.L * o.delay_minutes  # a root stream's length in minutes
        tol = _REL * max(1.0, full * o.streams)
        if not 1 <= o.roots <= o.streams:
            bad.append(f"{o.name}: {o.roots} roots of {o.streams} streams")
            continue
        if _well_formed(o) and o.starts.size:
            longest = float(np.max(o.ends - o.starts))
            if longest > full + _EPS:
                bad.append(
                    f"{o.name}: stream of {longest:g} min exceeds the "
                    f"L*delay = {full:g} min full stream"
                )
                continue
        lo, hi = o.roots * full, o.streams * full
        if not lo - tol <= o.total_units_minutes <= hi + tol:
            bad.append(
                f"{o.name}: bandwidth {o.total_units_minutes:g} outside "
                f"[roots*L*delay, streams*L*delay] = [{lo:g}, {hi:g}]"
            )
    out.record("fleet.cost-bounds", not bad, checks, "; ".join(bad[:3]))


def summary_contracts(report) -> ContractReport:
    """``check_fleet_report(report, replay=False)``, title by title."""
    out = ContractReport()
    check_delay_guarantee(report, out)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
        check_conservation(report, out)
        check_cost_bounds(report, out)
    return out


# ---------------------------------------------------------------------------
# The capacity planner
# ---------------------------------------------------------------------------


def title_envelopes(objects, delay_minutes: float, horizon_minutes: float) -> list:
    """Each object's DG envelope, one memo lookup per object."""
    if horizon_minutes <= 0:
        raise ValueError("horizon must be positive")
    n_slots = max(1, int(np.ceil(horizon_minutes / delay_minutes)))
    return [dg_envelope(obj.units(delay_minutes), n_slots) for obj in objects]


def title_peak(envelopes) -> int:
    """The fleet peak of one envelope per object, folded by identity: each
    distinct tuple is counted once per object holding it."""
    multiplicity = Counter(map(id, envelopes))
    distinct = {id(env): env for env in envelopes}
    slots = [
        (multiplicity[key], env[1].astype(np.int64), env[2].astype(np.int64))
        for key, env in distinct.items()
    ]
    if not slots:
        return 0
    size = 1 + max(int(max(s.max(), e.max())) for _, s, e in slots)
    diff = np.zeros(size, dtype=np.int64)
    for count, starts, ends in slots:
        diff += count * (
            np.bincount(starts, minlength=size) - np.bincount(ends, minlength=size)
        )
    return int(np.cumsum(diff).max())


def title_fleet_peak(catalog, delay_minutes: float, horizon_minutes: float) -> int:
    return title_peak(title_envelopes(catalog, delay_minutes, horizon_minutes))


@contextlib.contextmanager
def title_peaks():
    """Route ``fleet.capacity``'s fleet peaks through :func:`title_fleet_peak`,
    so its searches run on the per-title oracle."""
    arrays = capacity.dg_fleet_peak
    capacity.dg_fleet_peak = title_fleet_peak
    try:
        yield
    finally:
        capacity.dg_fleet_peak = arrays


def title_frontier(catalog, horizon_minutes, budgets, delays) -> list:
    with title_peaks():
        return capacity.capacity_frontier(catalog, horizon_minutes, budgets, delays)


def title_admission_report(
    catalog, horizon_minutes: float, budget_channels: int, delays
) -> AdmissionReport:
    """``admission_report`` with its shedding over per-title envelopes."""
    grid = capacity._candidate_delays(delays)
    with title_peaks():
        d = capacity.min_fleet_delay(catalog, horizon_minutes, budget_channels, grid)
    if d is not None:
        return AdmissionReport(
            budget_channels=budget_channels,
            delay_minutes=d,
            feasible=True,
            admitted=tuple(o.name for o in catalog),
            dropped=(),
            peak_channels=title_fleet_peak(catalog, d, horizon_minutes),
            served_weight_fraction=1.0,
        )
    d_max = grid[-1]
    objects = catalog.objects
    envelopes = title_envelopes(objects, d_max, horizon_minutes)
    shed_order = sorted(range(len(objects)), key=lambda i: objects[i].weight)
    peaks: Dict[int, int] = {}

    def fits(k: int) -> bool:  # after dropping the k least popular
        peaks[k] = title_peak([envelopes[i] for i in shed_order[k:]])
        return peaks[k] <= budget_channels

    k = capacity._bisect_smallest_feasible(range(len(objects) + 1), fits)
    shed = set(shed_order[:k])
    admitted = [o for i, o in enumerate(objects) if i not in shed]
    return AdmissionReport(
        budget_channels=budget_channels,
        delay_minutes=d_max,
        feasible=False,
        admitted=tuple(o.name for o in admitted),
        dropped=tuple(objects[i].name for i in shed_order[:k]),
        peak_channels=peaks[k],
        served_weight_fraction=float(sum(o.weight for o in admitted)),
    )
