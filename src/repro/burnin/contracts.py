"""Standing-invariant contracts over fleet, sweep and admission results.

The perf stack (fastpath -> simulation -> fleet -> sweeps) is pinned by
golden fixtures and equivalence property tests, but those only exercise
clean replays.  This module states the system's *inviolables* as
re-checkable contracts over the artifacts any run hands back —
:class:`~repro.fleet.runner.FleetReport`,
:class:`~repro.sweeps.engine.SweepResult`,
:class:`~repro.fleet.capacity.AdmissionReport` — so the soak driver
(:mod:`repro.burnin.soak`) and the CLIs can re-assert them after every
episode, faulted or not:

* **capacity** — the realised fleet-wide peak never exceeds a channel
  budget; an admission report's admitted set always fits its budget.
* **delay guarantee** — no served client waits longer than the
  guaranteed start-up delay.
* **replay clean** — re-simulating every object from the workload
  in-process reproduces the folded report *exactly* (each catalog object
  once and nothing else, every per-object counter, bit-identical
  interval arrays, so pool sharding / crash recovery / trace repair
  cannot corrupt a fold) and the realised merge forests pass the batched
  :mod:`repro.fastpath.replay` verification.
* **cost bounds** — per object, total bandwidth sits inside the paper's
  structural envelope: every stream no longer than a full ``L``-unit
  root, every root exactly ``L`` units, hence
  ``roots * L * delay <= total <= streams * L * delay``.
* **conservation** — summary counters equal what the interval arrays
  actually say (no drift between folded summaries and data).

Each contract appends named :class:`ContractOutcome` rows into a
:class:`ContractReport`; ``report.ok`` is the episode verdict and
``report.to_json()`` the deterministic evidence payload.  To add an
invariant, write a function taking ``(artifact, ..., report)`` that
calls ``report.record(name, ok, checks, detail)`` and chain it in the
relevant ``check_*`` entry point (see README "The burn-in tier").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from ..fleet.capacity import AdmissionReport, dg_fleet_peak
from ..fleet.engine import FleetPolicy
from ..fleet.runner import FleetObjectResult, FleetReport, object_run, stream_minutes
from ..multiplex import Catalog, MediaObject, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweeps.engine import SweepResult

__all__ = [
    "ContractOutcome",
    "ContractReport",
    "check_admission_report",
    "check_columnar_store",
    "check_fleet_report",
    "check_live_report",
    "check_sweep_result",
    "fleet_reports_equal",
]

#: relative tolerance for float bandwidth/weight comparisons; delays are
#: compared with an absolute epsilon on the minutes clock.
_REL = 1e-9
_EPS = 1e-9


@dataclass(frozen=True)
class ContractOutcome:
    """One named invariant's verdict: ok/violated, with evidence."""

    name: str
    ok: bool
    checks: int
    detail: str = ""

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name, "ok": self.ok, "checks": self.checks,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ContractReport:
    """An ordered collection of contract outcomes (one soak episode's
    worth, or one CLI run's)."""

    outcomes: List[ContractOutcome] = field(default_factory=list)

    def record(
        self, name: str, ok: bool, checks: int = 1, detail: str = ""
    ) -> None:
        self.outcomes.append(
            ContractOutcome(name, bool(ok), int(checks), detail if not ok else "")
        )

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def checks(self) -> int:
        return sum(o.checks for o in self.outcomes)

    def failures(self) -> List[ContractOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": self.checks,
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def render(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        lines = [
            f"contracts: {status} "
            f"({len(self.outcomes)} contracts, {self.checks} checks)"
        ]
        for o in self.failures():
            lines.append(f"  FAIL {o.name}: {o.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fleet-report contracts
# ---------------------------------------------------------------------------


def fleet_reports_equal(a: FleetReport, b: FleetReport) -> Optional[str]:
    """None when two fleet reports realised the identical system; else a
    one-line description of the first difference.

    Compares the run geometry and every per-object *result* —
    bit-identical interval arrays included.  The ``repaired`` counters
    are deliberately excluded: a repaired malformed feed must equal the
    fault-free run, which by definition repaired nothing.
    """
    if (a.policy, a.delay_minutes, a.horizon_minutes) != (
        b.policy, b.delay_minutes, b.horizon_minutes
    ):
        return "run geometry differs"
    if [o.name for o in a.objects] != [o.name for o in b.objects]:
        return "object sets differ"
    for x, y in zip(a.objects, b.objects):
        diff = _object_difference(x, y)
        if diff is not None:
            return f"object {x.name}: {diff}"
    return None


#: The per-object counters two runs of one object must share.  A replay
#: of the very workload a report was folded from must also share the
#: object's ``delay_minutes`` and ``repaired``.
_RESULT_COUNTERS = (
    "L", "clients", "streams", "roots",
    "total_units_minutes", "max_startup_delay_minutes",
)


def _counter_difference(x, y, counters) -> Optional[str]:
    """The first of ``counters`` on which two results of one object
    differ, or None."""
    for attr in counters:
        if getattr(x, attr) != getattr(y, attr):
            return f"{attr} {getattr(x, attr)!r} != {getattr(y, attr)!r}"
    return None


def _object_difference(x: FleetObjectResult, y: FleetObjectResult) -> Optional[str]:
    """None when two results of one object agree on the counters and the
    intervals; else the first difference."""
    diff = _counter_difference(x, y, _RESULT_COUNTERS)
    if diff is None and not (
        np.array_equal(x.starts, y.starts) and np.array_equal(x.ends, y.ends)
    ):
        return "interval arrays differ"
    return diff


def _check_delay_guarantee(report: FleetReport, out: ContractReport) -> None:
    bad = [
        o.name for o in report.objects
        if o.max_startup_delay_minutes > report.delay_minutes + _EPS
    ]
    out.record(
        "fleet.delay-guarantee",
        not bad,
        len(report.objects),
        f"guaranteed delay {report.delay_minutes:g} min exceeded for: "
        + ", ".join(bad[:5]),
    )


def _check_capacity(
    report: FleetReport, budget: Optional[int], out: ContractReport
) -> None:
    if budget is None:
        return
    peak = report.peak_channels
    out.record(
        "fleet.capacity",
        peak <= budget,
        1,
        f"realised peak {peak} exceeds the {budget}-channel budget",
    )


def _check_conservation(report: FleetReport, out: ContractReport) -> None:
    checks = 0
    bad: List[str] = []
    for o in report.objects:
        checks += 4
        if o.starts.shape != o.ends.shape or o.streams != o.starts.size:
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
        if abs(units - o.total_units_minutes) > _REL * max(1.0, abs(units)):
            bad.append(
                f"{o.name}: summary units {o.total_units_minutes} != "
                f"interval sum {units}"
            )
    out.record(
        "fleet.conservation", not bad, checks, "; ".join(bad[:3])
    )


def _check_cost_bounds(report: FleetReport, out: ContractReport) -> None:
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


def _check_replay(
    report: FleetReport,
    catalog: Catalog,
    workload: Mapping,
    policy: FleetPolicy,
    out: ContractReport,
) -> None:
    """Re-simulate every object in-process and demand (a) bit-identical
    results to the folded report and (b) a clean batched replay
    verification of the realised merge forest.  Each report entry must
    name a distinct catalog object."""
    workload = Workload.of([obj.name for obj in catalog], workload, report.horizon_minutes)
    names = {obj.name for obj in catalog}
    by_name: Dict[str, FleetObjectResult] = {}
    bad: List[str] = []
    for o in report.objects:
        if o.name not in names:
            bad.append(f"{o.name}: not in the catalog")
        elif o.name in by_name:
            bad.append(f"{o.name}: in the report more than once")
        by_name[o.name] = o
    checks = 0
    for obj, times in zip(catalog, np.split(workload.times, workload.offsets[1:-1])):
        reported = by_name.get(obj.name)
        if reported is None:
            bad.append(f"{obj.name}: missing from the report")
            continue
        checks += _replay_object(obj, times, reported, report, policy, bad)
    out.record("fleet.replay", not bad, checks, "; ".join(bad[:3]))


def _replay_object(
    obj: MediaObject,
    times: np.ndarray,
    reported: FleetObjectResult,
    report: FleetReport,
    policy: FleetPolicy,
    bad: List[str],
) -> int:
    """One object of :func:`_check_replay`: its replay, compared with
    ``reported`` and verified.  Appends to ``bad`` and returns the checks
    made.  Each title's replay lives only in this call, and its interval
    arrays go before its verification, so a run's transients are bounded
    by its largest title, not by two of them."""
    delay = report.delay_minutes
    result, repaired = object_run(obj, times, delay, report.horizon_minutes, policy)
    forest = None if result is None else result.forest
    starts = ends = np.empty(0)
    if forest is not None:
        starts, ends = stream_minutes(forest.arrivals, result.lengths, delay)
    streams = starts.size
    same_intervals = np.array_equal(reported.starts, starts) and np.array_equal(
        reported.ends, ends
    )
    # The lengths overwrite the replay's own ends: the same elements in
    # the same contiguous layout as ``ends - starts``, so the same pairwise
    # sum bit for bit, without a third client-sized array.
    total_units = float(np.sum(np.subtract(ends, starts, out=ends)))
    del starts, ends
    replayed = SimpleNamespace(
        L=obj.units(delay),
        clients=0 if result is None else result.client_arrival.size,
        streams=streams,
        roots=0 if result is None else result.metrics.roots_started,
        total_units_minutes=total_units,
        max_startup_delay_minutes=(
            0.0 if result is None else result.max_startup_delay() * delay
        ),
        delay_minutes=delay,
        repaired=repaired,
    )
    diff = _counter_difference(
        reported, replayed, _RESULT_COUNTERS + ("delay_minutes", "repaired")
    )
    if diff is None and not same_intervals:
        diff = "interval arrays differ"
    if diff is not None:
        bad.append(f"{obj.name}: report != in-process replay: {diff}")
        return 1
    if forest is None:
        return 1
    verification = result.verify(continuous=not policy.uses_slots)
    if not verification.ok:
        bad.append(
            f"{obj.name}: replay verification failed "
            f"({len(verification.failures)} checks): "
            + "; ".join(verification.failures[:2])
        )
    return 1 + verification.checks


def check_fleet_report(
    report: FleetReport,
    catalog: Optional[Catalog] = None,
    workload: Optional[Mapping] = None,
    policy: Optional[FleetPolicy] = None,
    budget_channels: Optional[int] = None,
    replay: bool = True,
) -> ContractReport:
    """Assert every standing fleet invariant on a folded report.

    ``catalog`` + ``workload`` + ``policy`` unlock the replay contract
    (in-process re-simulation + forest verification); without them the
    summary-level contracts still run.  ``budget_channels`` arms the
    capacity contract.
    """
    out = ContractReport()
    _check_delay_guarantee(report, out)
    _check_capacity(report, budget_channels, out)
    _check_conservation(report, out)
    _check_cost_bounds(report, out)
    if replay and catalog is not None and workload is not None:
        _check_replay(
            report, catalog, workload,
            policy or FleetPolicy(report.policy), out,
        )
    return out


# ---------------------------------------------------------------------------
# Sweep-result contracts
# ---------------------------------------------------------------------------


def check_sweep_result(
    result: SweepResult, require_finite: bool = True
) -> ContractReport:
    """Assert the structural invariants of a columnar sweep result:
    complete columns of the declared shape, (optionally) finite metric
    values, and cache accounting that adds up."""
    out = ContractReport()
    spec = result.spec
    expected = set(spec.axis_names) | set(spec.metrics)
    shape_ok = set(result.columns) == expected and all(
        col.shape == (spec.n_points,) for col in result.columns.values()
    )
    out.record(
        "sweep.columns",
        shape_ok,
        len(expected),
        f"columns {sorted(result.columns)} != axes+metrics {sorted(expected)} "
        f"of length {spec.n_points}",
    )
    if require_finite:
        bad = [
            name
            for name in spec.metrics
            if result.columns[name].dtype.kind == "f"
            and not np.all(np.isfinite(result.columns[name]))
        ]
        out.record(
            "sweep.finite",
            not bad,
            len(spec.metrics),
            "non-finite metric columns: " + ", ".join(bad),
        )
    accounted = result.evaluated + result.cache_hits
    out.record(
        "sweep.accounting",
        accounted == spec.n_points and result.cache_misses <= spec.n_points,
        2,
        f"evaluated {result.evaluated} + hits {result.cache_hits} != "
        f"{spec.n_points} points",
    )
    return out


# ---------------------------------------------------------------------------
# Columnar-store contracts
# ---------------------------------------------------------------------------


def check_columnar_store(
    root, expected: Optional[Dict[str, np.ndarray]] = None, deep: bool = True
) -> ContractReport:
    """Assert the on-disk integrity of a :mod:`repro.scale.columnar` store.

    Three layers, each recorded as its own outcome:

    * **store.readable** — the index parses, carries the right schema,
      and its offsets are contiguous and consistent with the segment's
      exact byte length (anything the :class:`TornSegment` injector does
      to the metadata or the file length trips here);
    * **store.checksums** — every column's bytes re-hash to the CRC-32
      the writer recorded (``deep``; catches content corruption that
      left the length intact);
    * **store.content** — optional ground truth: each column in
      ``expected`` compares bit-identical to what the store returns.

    A torn store must *fail* this battery, never crash it: all
    :class:`~repro.scale.columnar.StoreError` paths are caught and
    recorded as violations.
    """
    from ..scale.columnar import ColumnarStore, StoreError

    out = ContractReport()
    try:
        store = ColumnarStore(root)
    except StoreError as exc:
        out.record("store.readable", False, 1, str(exc))
        return out
    with store:
        out.record("store.readable", True, 1)
        if deep:
            try:
                store.verify(deep=True)
            except StoreError as exc:
                out.record("store.checksums", False, len(store.names), str(exc))
                return out
            out.record("store.checksums", True, len(store.names))
        if expected is not None:
            bad: List[str] = []
            names = set(store.names)
            for name, values in expected.items():
                if name not in names:
                    bad.append(f"{name}: missing from the store")
                    continue
                if not np.array_equal(
                    store.column(name), np.asarray(values, dtype=np.float64)
                ):
                    bad.append(f"{name}: column differs from ground truth")
            out.record(
                "store.content", not bad, len(expected), "; ".join(bad[:3])
            )
    return out


# ---------------------------------------------------------------------------
# Admission-report contracts
# ---------------------------------------------------------------------------


def check_admission_report(
    report: AdmissionReport, catalog: Catalog, horizon_minutes: float
) -> ContractReport:
    """Assert a shedding verdict is *consistent*: the admitted/dropped
    sets partition the catalog, the served-weight bookkeeping matches,
    and — the hard invariant — the admitted set's DG envelope fits the
    budget, so no admitted client's guarantee can ever be violated."""
    out = ContractReport()
    names = {o.name for o in catalog}
    admitted, dropped = set(report.admitted), set(report.dropped)
    out.record(
        "admission.partition",
        admitted | dropped == names and not (admitted & dropped),
        2,
        f"admitted+dropped do not partition the catalog "
        f"({len(admitted)}+{len(dropped)} of {len(names)})",
    )
    weight = sum(o.weight for o in catalog if o.name in admitted)
    out.record(
        "admission.weight",
        abs(weight - report.served_weight_fraction) <= _REL,
        1,
        f"served weight {report.served_weight_fraction} != admitted "
        f"weight {weight}",
    )
    survivors = [o for o in catalog if o.name in admitted]
    peak = (
        dg_fleet_peak(Catalog(survivors), report.delay_minutes, horizon_minutes)
        if survivors
        else 0
    )
    out.record(
        "admission.peak-recomputed",
        peak == report.peak_channels,
        1,
        f"reported peak {report.peak_channels} != recomputed {peak}",
    )
    out.record(
        "admission.capacity",
        peak <= report.budget_channels,
        1,
        f"admitted set needs {peak} channels, budget is "
        f"{report.budget_channels} — an admitted guarantee would be violated",
    )
    out.record(
        "admission.feasible-honesty",
        (not report.feasible) or not dropped,
        1,
        "feasible verdict with a non-empty dropped set",
    )
    return out


# ---------------------------------------------------------------------------
# Live-report contracts
# ---------------------------------------------------------------------------


def _check_ahead_of_fence(records, out: ContractReport) -> None:
    """No commit decision ever reached past its fence, and nothing whose
    window already closed was left uncommitted behind it."""
    checks = 0
    bad: List[str] = []
    for rec in records:
        if rec.drain:
            continue  # the drain has no fence: everything commits
        checks += 2
        fence = rec.fence
        if fence is None:
            bad.append(f"epoch {rec.epoch}: non-drain record without a fence")
            continue
        if rec.max_committed_cutoff is not None and (
            rec.max_committed_cutoff >= fence + _EPS
        ):
            bad.append(
                f"epoch {rec.epoch}: committed a window ending "
                f"{rec.max_committed_cutoff:g} min at/past the fence {fence:g}"
            )
        if rec.min_live_cutoff is not None and (
            rec.min_live_cutoff < fence - _EPS
        ):
            bad.append(
                f"epoch {rec.epoch}: window ending {rec.min_live_cutoff:g} min "
                f"is behind the fence {fence:g} but was not committed"
            )
    out.record("live.ahead-of-fence", not bad, checks, "; ".join(bad[:3]))


def _check_fence_monotone(records, out: ContractReport) -> None:
    checks = 0
    bad: List[str] = []
    prev = None
    for i, rec in enumerate(records):
        checks += 1
        if rec.drain and i != len(records) - 1:
            bad.append(f"record {i}: drain is not the final record")
        if prev is None:
            if not rec.drain and rec.epoch != 0:
                bad.append(f"first record is epoch {rec.epoch}, not 0")
            prev = rec
            continue
        if not rec.drain and rec.epoch != prev.epoch + 1:
            bad.append(
                f"epoch {rec.epoch} follows {prev.epoch}: not one at a time"
            )
        if rec.ingest_clock < prev.ingest_clock:
            bad.append(f"epoch {rec.epoch}: ingest clock moved backwards")
        if (
            not rec.drain
            and rec.fence is not None
            and prev.fence is not None
            and rec.fence < prev.fence
        ):
            bad.append(f"epoch {rec.epoch}: fence moved backwards")
        if rec.committed_streams < prev.committed_streams or any(
            a < b for a, b in zip(rec.committed_counts, prev.committed_counts)
        ):
            bad.append(f"epoch {rec.epoch}: committed counts shrank")
        prev = rec
    out.record("live.fence-monotone", not bad, checks, "; ".join(bad[:3]))


def _check_commit_immutability(report, out: ContractReport) -> None:
    """The record digest chain, re-derived in one pass over the *final*
    interval arrays cut at each record's committed counts, must match
    every record — i.e. commits only ever appended; nothing already
    emitted was rewritten, dropped or moved to another object."""
    from ..live.daemon import chain_digests

    per_object = [(o.starts, o.ends) for o in report.fleet.objects]
    sizes = [starts.size for starts, _ in per_object]
    records = report.records
    bad = []
    for rec in records:
        if len(rec.committed_counts) != len(per_object):
            bad.append(f"epoch {rec.epoch}: count tuple arity mismatch")
        elif not all(0 <= c <= n for c, n in zip(rec.committed_counts, sizes)):
            # No prefix of the final arrays has this length (a count past
            # int64 included): a committed stream was dropped.
            bad.append(f"epoch {rec.epoch}: a committed count exceeds the final streams")
    if not bad:
        expected = chain_digests(per_object, [r.committed_counts for r in records])
        bad = [
            f"epoch {rec.epoch}: digest {rec.digest} != {want} — "
            "a committed stream changed after emission"
            for rec, want in zip(records, expected)
            if rec.digest != want
        ]
    checks = len(records)
    out.record(
        "live.committed-prefix-immutability", not bad, checks, "; ".join(bad[:3])
    )


def _check_live_conservation(report, out: ContractReport) -> None:
    checks = 3
    bad: List[str] = []
    records = report.records
    if not records or not records[-1].drain:
        bad.append("run did not end in a drain record")
    else:
        last = records[-1]
        if last.committed_streams != report.fleet.streams or list(
            last.committed_counts
        ) != [o.streams for o in report.fleet.objects]:
            bad.append("final committed counts != fleet stream counts")
        if sum(r.ingested for r in records) != report.fleet.clients:
            bad.append(
                f"ingested {sum(r.ingested for r in records)} != "
                f"served clients {report.fleet.clients}"
            )
        if last.committed_roots != sum(o.roots for o in report.fleet.objects):
            bad.append("final committed roots != fleet root counts")
            checks += 1
    out.record("live.conservation", not bad, checks, "; ".join(bad[:3]))


def _check_live_schedule(report, out: ContractReport) -> None:
    """The incrementally emitted channel assignment must equal the batch
    greedy stream for stream, and use exactly peak-concurrency channels
    (the greedy's optimality) — per object."""
    from ..simulation.channels import assign_channels_flat, peak_concurrency

    checks = 0
    bad: List[str] = []
    for o in report.fleet.objects:
        channels = report.channels.get(o.name)
        checks += 2
        if channels is None or channels.size != o.streams:
            bad.append(f"{o.name}: channel array missing or wrong length")
            continue
        if o.streams == 0:
            continue
        batch = assign_channels_flat(o.starts, o.ends)
        if not np.array_equal(channels, batch):
            bad.append(f"{o.name}: incremental channels != batch greedy")
            continue
        peak = peak_concurrency(o.starts, o.ends)
        if int(channels.max()) + 1 != peak:
            bad.append(
                f"{o.name}: {int(channels.max()) + 1} channels != peak {peak}"
            )
    out.record("live.schedule", not bad, checks, "; ".join(bad[:3]))


def _check_live_oracle(report, catalog, workload, out: ContractReport) -> None:
    from ..fleet.runner import run_fleet

    oracle = run_fleet(
        catalog,
        delay_minutes=report.config.delay_minutes,
        horizon_minutes=report.config.horizon_minutes,
        policy=FleetPolicy(report.config.policy),
        workload=workload,
        workers=0,
    )
    diff = fleet_reports_equal(report.fleet, oracle)
    out.record(
        "live.oracle-equality",
        diff is None,
        len(catalog),
        f"daemon output differs from the offline batch oracle: {diff}",
    )


def check_live_report(
    report,
    catalog: Optional[Catalog] = None,
    workload: Optional[Mapping] = None,
    budget_channels: Optional[int] = None,
) -> ContractReport:
    """Assert every live standing invariant on a finished
    :class:`~repro.live.daemon.LiveReport`.

    The fence/epoch invariants (decisions ahead of the fence, monotone
    clocks, committed-prefix immutability via digest recomputation,
    conservation, incremental-schedule == batch greedy) always run; the
    cumulative :class:`~repro.fleet.runner.FleetReport` additionally
    passes through the summary-level fleet contracts, and providing
    ``catalog`` + ``workload`` arms the offline-batch-oracle equality
    check (``fleet_reports_equal``).
    """
    out = ContractReport()
    _check_ahead_of_fence(report.records, out)
    _check_fence_monotone(report.records, out)
    _check_commit_immutability(report, out)
    _check_live_conservation(report, out)
    _check_live_schedule(report, out)
    for outcome in check_fleet_report(
        report.fleet, budget_channels=budget_channels, replay=False
    ).outcomes:
        out.outcomes.append(outcome)
    if catalog is not None and workload is not None:
        _check_live_oracle(report, catalog, workload, out)
    return out
