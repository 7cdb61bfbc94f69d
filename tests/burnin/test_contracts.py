"""Tests for the standing-invariant contract layer."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import poisson
from repro.burnin import (
    check_admission_report,
    check_fleet_report,
    check_sweep_result,
    fleet_reports_equal,
)
from repro.burnin.contracts import check_live_report
from repro.fastpath import replay
from repro.fleet import FLEET_POLICIES, FleetPolicy, admission_report, run_fleet
from repro.fleet.scenarios import scenario_workload
from repro.live import LiveConfig, LiveDaemon
from repro.multiplex import Catalog, split_requests
from repro.sweeps import Axis, SweepSpec, run_sweep
from repro.sweeps.evaluators import merge_cost_table_point
from tests.burnin import oracles
from tests.conftest import fuzz_examples

DELAY = 2.0
HORIZON = 180.0


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(8, duration_minutes=60.0)


@pytest.fixture(scope="module")
def workload(catalog):
    base = poisson(0.4, HORIZON, seed=11)
    return split_requests(base, catalog, seed=11)


def _report(catalog, workload, policy):
    return run_fleet(
        catalog, DELAY, HORIZON, policy=policy, workload=workload
    )


class TestFleetContracts:
    @pytest.mark.parametrize(
        "kind",
        [
            "batched-dyadic",
            "delay-guaranteed",
            "pure-batching",
            "immediate-dyadic",
            "unicast",
            "hybrid",
        ],
    )
    def test_clean_run_passes_all_contracts(self, catalog, workload, kind):
        policy = FleetPolicy(kind)
        report = _report(catalog, workload, policy)
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert contracts.ok, contracts.render()
        assert contracts.checks > len(catalog.objects)

    def test_segmented_replay_detects_tampering(self, catalog, workload):
        """The replay contract covers segmented (hybrid) runs: shifting a
        mode boundary's worth of intervals must fail the re-simulation."""
        policy = FleetPolicy.hybrid(window_slots=5, rate_high=0.5, rate_low=0.2)
        report = _report(catalog, workload, policy)
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert contracts.ok, contracts.render()
        victim = next(o for o in report.objects if o.streams > 1)
        idx = report.objects.index(victim)
        starts = victim.starts.copy()
        starts[-1] += 0.25  # nudge one stream off its slot end
        report.objects[idx] = dataclasses.replace(victim, starts=starts)
        broken = check_fleet_report(report, catalog, workload, policy)
        assert any(o.name == "fleet.replay" for o in broken.failures())

    def test_summary_contracts_without_replay(self, catalog, workload):
        report = _report(catalog, workload, FleetPolicy.batched_dyadic())
        contracts = check_fleet_report(report, replay=False)
        assert contracts.ok
        names = {o.name for o in contracts.outcomes}
        assert "fleet.replay" not in names

    def test_delay_violation_detected(self, catalog, workload):
        report = _report(catalog, workload, FleetPolicy.batched_dyadic())
        broken = dataclasses.replace(
            report.objects[0], max_startup_delay_minutes=DELAY * 5
        )
        report.objects[0] = broken
        contracts = check_fleet_report(report, replay=False)
        assert not contracts.ok
        assert any(
            o.name == "fleet.delay-guarantee" for o in contracts.failures()
        )

    def test_conservation_violation_detected(self, catalog, workload):
        report = _report(catalog, workload, FleetPolicy.batched_dyadic())
        broken = dataclasses.replace(
            report.objects[0],
            total_units_minutes=report.objects[0].total_units_minutes + 7.0,
        )
        report.objects[0] = broken
        contracts = check_fleet_report(report, replay=False)
        assert any(
            o.name == "fleet.conservation" for o in contracts.failures()
        )

    def test_tampered_intervals_fail_replay(self, catalog, workload):
        policy = FleetPolicy.batched_dyadic()
        report = _report(catalog, workload, policy)
        victim = next(o for o in report.objects if o.streams > 0)
        idx = report.objects.index(victim)
        report.objects[idx] = dataclasses.replace(
            victim,
            starts=victim.starts + 0.25,
            ends=victim.ends + 0.25,
        )
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert any(o.name == "fleet.replay" for o in contracts.failures())

    @pytest.mark.parametrize("delay", [0.3, 0.7, 2.2, 1.5, 3.0])
    @pytest.mark.parametrize("kind", FLEET_POLICIES)
    def test_replay_exact_at_inexact_delays(self, catalog, workload, kind, delay):
        """The contract rebuilds the folded ends with the fold's
        ``(x + l) * delay``: ``x * delay + l * delay`` differs in the last
        ULP when the delay is not binary-exact, which rejected clean runs.
        A one-ULP nudge of one end is still caught."""
        policy = FleetPolicy(kind)
        report = run_fleet(catalog, delay, HORIZON, policy=policy, workload=workload)
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert contracts.ok, contracts.render()
        victim = next(o for o in report.objects if o.streams > 0)
        ends = victim.ends.copy()
        ends[-1] = np.nextafter(ends[-1], np.inf)
        idx = report.objects.index(victim)
        report.objects[idx] = dataclasses.replace(victim, ends=ends)
        broken = check_fleet_report(report, catalog, workload, policy)
        assert [o.name for o in broken.failures()] == ["fleet.replay"]

    def test_capacity_contract_armed_by_budget(self, catalog, workload):
        report = _report(catalog, workload, FleetPolicy.batched_dyadic())
        peak = report.peak_channels
        ok = check_fleet_report(report, replay=False, budget_channels=peak)
        assert ok.ok
        bad = check_fleet_report(
            report, replay=False, budget_channels=peak - 1
        )
        assert any(o.name == "fleet.capacity" for o in bad.failures())


def _tampered_counter(attr):
    def tamper(objects):
        victim = next(o for o in objects if o.roots > 1)
        value = getattr(victim, attr)
        if attr == "max_startup_delay_minutes":
            value = value / 2  # still inside the guarantee
        elif attr == "repaired":
            value = value + 1  # a repair the feed never needed
        else:
            value = value - 1
        objects[objects.index(victim)] = dataclasses.replace(victim, **{attr: value})
        return f"{victim.name}: report != in-process replay: {attr} {value!r} != "
    return tamper


def _duplicated(objects):
    objects.append(objects[1])
    return f"{objects[1].name}: in the report more than once"


def _unknown(objects):
    objects.append(dataclasses.replace(objects[1], name="not-a-title"))
    return "not-a-title: not in the catalog"


class TestReplayTampering:
    """The replay contract compares every per-object counter with the
    in-process replay (those :func:`fleet_reports_equal` compares, and
    the object's delay and repair count), and wants each catalog object
    in the report exactly once and nothing else."""

    @pytest.mark.parametrize(
        "tamper",
        [
            _tampered_counter("clients"),
            _tampered_counter("roots"),
            _tampered_counter("max_startup_delay_minutes"),
            _tampered_counter("L"),
            _tampered_counter("delay_minutes"),
            _tampered_counter("repaired"),
            _duplicated,
            _unknown,
        ],
        ids=[
            "clients", "roots", "max-startup-delay", "L", "delay", "repaired",
            "duplicate", "unknown",
        ],
    )
    def test_tampered_report_fails_replay(self, tamper):
        catalog = Catalog.zipf(5, duration_minutes=60.0)
        workload = split_requests(poisson(0.4, HORIZON, seed=11), catalog, seed=11)
        policy = FleetPolicy.batched_dyadic()
        report = _report(catalog, workload, policy)
        clean = check_fleet_report(report, catalog, workload, policy)
        assert clean.ok, clean.render()
        expected = tamper(report.objects)
        broken = check_fleet_report(report, catalog, workload, policy)
        replay = {o.name: o for o in broken.outcomes}["fleet.replay"]
        assert not replay.ok
        assert expected in replay.detail


class TestFleetReportsEqual:
    def test_identical_runs_compare_equal(self, catalog, workload):
        a = _report(catalog, workload, FleetPolicy.batched_dyadic())
        b = _report(catalog, workload, FleetPolicy.batched_dyadic())
        assert fleet_reports_equal(a, b) is None

    def test_repaired_counter_is_ignored(self, catalog, workload):
        a = _report(catalog, workload, FleetPolicy.batched_dyadic())
        b = _report(catalog, workload, FleetPolicy.batched_dyadic())
        b.objects[0] = dataclasses.replace(b.objects[0], repaired=13)
        assert fleet_reports_equal(a, b) is None

    def test_interval_difference_detected(self, catalog, workload):
        a = _report(catalog, workload, FleetPolicy.batched_dyadic())
        b = _report(catalog, workload, FleetPolicy.batched_dyadic())
        victim = next(o for o in b.objects if o.streams > 0)
        idx = b.objects.index(victim)
        b.objects[idx] = dataclasses.replace(victim, ends=victim.ends + 1.0)
        assert fleet_reports_equal(a, b) is not None


class TestEdgeCaseObjects:
    """Zero-arrival and single-client objects must flow through the full
    run_fleet -> contracts path (empty-forest edge cases)."""

    @pytest.mark.parametrize(
        "kind",
        ["batched-dyadic", "delay-guaranteed", "pure-batching",
         "immediate-dyadic", "unicast", "general-offline"],
    )
    def test_zero_arrival_catalog(self, kind):
        catalog = Catalog.zipf(3, duration_minutes=30.0)
        empty = {o.name: np.empty(0) for o in catalog}
        policy = FleetPolicy(kind)
        report = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=empty
        )
        contracts = check_fleet_report(report, catalog, empty, policy)
        assert contracts.ok, contracts.render()
        assert report.clients == 0

    @pytest.mark.parametrize(
        "kind", ["batched-dyadic", "delay-guaranteed", "unicast"]
    )
    def test_single_client_objects(self, kind):
        catalog = Catalog.zipf(2, duration_minutes=30.0)
        workload = {o.name: np.array([5.0]) for o in catalog}
        policy = FleetPolicy(kind)
        report = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=workload
        )
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert contracts.ok, contracts.render()
        assert report.clients == len(catalog.objects)

    def test_missing_workload_entry_is_a_quiet_object(self):
        catalog = Catalog.zipf(3, duration_minutes=30.0)
        workload = {catalog.objects[0].name: np.array([1.0, 2.0])}
        policy = FleetPolicy.batched_dyadic()
        report = run_fleet(
            catalog, DELAY, HORIZON, policy=policy, workload=workload
        )
        contracts = check_fleet_report(report, catalog, workload, policy)
        assert contracts.ok, contracts.render()


class TestSweepContracts:
    def _spec(self):
        return SweepSpec(
            name="contract-test",
            evaluator=merge_cost_table_point,
            axes=[Axis("n", (1, 2, 3, 4))],
            metrics=("closed", "via_dp"),
        )

    def test_clean_sweep_passes(self):
        result = run_sweep(self._spec())
        contracts = check_sweep_result(result)
        assert contracts.ok, contracts.render()

    def test_nonfinite_metric_detected(self):
        result = run_sweep(self._spec())
        result.columns["closed"] = result.columns["closed"].astype(float)
        result.columns["closed"][1] = np.nan
        contracts = check_sweep_result(result)
        assert any(o.name == "sweep.finite" for o in contracts.failures())

    def test_accounting_drift_detected(self):
        result = run_sweep(self._spec())
        result.cache_hits += 1
        contracts = check_sweep_result(result)
        assert any(o.name == "sweep.accounting" for o in contracts.failures())


class TestAdmissionContracts:
    def test_feasible_verdict_passes(self, catalog):
        verdict = admission_report(catalog, HORIZON, budget_channels=10_000)
        assert verdict.feasible
        contracts = check_admission_report(verdict, catalog, HORIZON)
        assert contracts.ok, contracts.render()

    def test_shedding_verdict_passes(self, catalog):
        verdict = admission_report(catalog, HORIZON, budget_channels=2)
        assert not verdict.feasible and verdict.dropped
        contracts = check_admission_report(verdict, catalog, HORIZON)
        assert contracts.ok, contracts.render()

    def test_overbudget_verdict_detected(self, catalog):
        verdict = admission_report(catalog, HORIZON, budget_channels=2)
        doctored = dataclasses.replace(verdict, budget_channels=1)
        contracts = check_admission_report(doctored, catalog, HORIZON)
        assert any(
            o.name == "admission.capacity" for o in contracts.failures()
        )


class TestLiveRecordCounts:
    def test_committed_count_past_int64_fails_the_check(self, catalog, workload):
        """A record count no int64 holds cannot be a committed prefix: the
        immutability check records a failure instead of raising
        ``OverflowError`` from the digest chain."""
        three = Catalog(catalog.objects[:3])
        config = LiveConfig(
            delay_minutes=DELAY, horizon_minutes=HORIZON,
            epoch_minutes=10.0, fence_minutes=15.0,
        )
        report = LiveDaemon(three, config).run({o.name: workload[o.name] for o in three})
        records = list(report.records)
        counts = list(records[3].committed_counts)
        counts[0] = 2**70
        records[3] = dataclasses.replace(records[3], committed_counts=tuple(counts))
        broken = dataclasses.replace(report, records=records)
        outcome = {o.name: o for o in check_live_report(broken).outcomes}[
            "live.committed-prefix-immutability"
        ]
        assert not outcome.ok
        assert outcome.detail == (
            f"epoch {records[3].epoch}: a committed count exceeds the final streams"
        )


# ---------------------------------------------------------------------------
# The summary battery on hostile reports, and its per-title oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _zipf_report(policy: str = "batched-dyadic", quiet: tuple = ()):
    """Five 60-minute titles, the zipf scenario at mean inter-arrival 0.5
    over 600 minutes, run at a 2-minute delay (seed 1); the titles at
    the ``quiet`` indices get no arrivals.  Callers copy before
    tampering."""
    catalog = Catalog.zipf(5, duration_minutes=60.0)
    workload = dict(scenario_workload("zipf", catalog, 0.5, 600.0, seed=1).items())
    for i in quiet:
        workload[catalog[i].name] = np.empty(0)
    return run_fleet(catalog, 2.0, 600.0, policy=FleetPolicy(policy), workload=workload)


def _with(report, index, **changes):
    """A copy of ``report`` with one title's fields replaced."""
    objects = list(report.objects)
    objects[index] = dataclasses.replace(objects[index], **changes)
    return dataclasses.replace(report, objects=objects)


class TestSummaryHostileReports:
    def test_title_with_streams_but_no_intervals_fails_without_raising(self):
        report = _zipf_report()
        victim = 2
        assert report.objects[victim].streams > 0
        empty = _with(report, victim, starts=np.empty(0), ends=np.empty(0))
        contracts = check_fleet_report(empty)
        assert not contracts.ok
        outcomes = {o.name: o for o in contracts.outcomes}
        name = report.objects[victim].name
        assert outcomes["fleet.conservation"].detail == (
            f"{name}: stream count != interval arrays"
        )
        assert outcomes["fleet.cost-bounds"].ok
        clean = check_fleet_report(report)
        assert [(o.name, o.checks) for o in contracts.outcomes] == [
            (o.name, o.checks) for o in clean.outcomes
        ]

    def test_nan_startup_delay_fails_the_guarantee(self):
        report = _with(_zipf_report(), 1, max_startup_delay_minutes=math.nan)
        contracts = check_fleet_report(report, replay=False)
        assert not contracts.ok
        assert [o.name for o in contracts.failures()] == ["fleet.delay-guarantee"]
        assert contracts.failures()[0].detail.endswith(report.objects[1].name)

    def test_nan_units_fail_conservation(self):
        report = _with(_zipf_report(), 3, total_units_minutes=math.nan)
        failures = {
            o.name: o for o in check_fleet_report(report, replay=False).failures()
        }
        assert set(failures) == {"fleet.conservation", "fleet.cost-bounds"}
        assert failures["fleet.conservation"].detail.startswith(
            f"{report.objects[3].name}: summary units nan != interval sum"
        )

    @pytest.mark.parametrize("side", ["starts", "ends"])
    def test_mismatched_interval_arrays_fail_without_raising(self, side):
        report = _zipf_report()
        victim = report.objects[0]
        short = _with(report, 0, **{side: getattr(victim, side)[:-1]})
        failures = check_fleet_report(short, replay=False).failures()
        assert [o.name for o in failures] == ["fleet.conservation"]
        assert failures[0].detail == f"{victim.name}: stream count != interval arrays"


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _tamper_endpoint(draw, o):
    if not o.starts.size:
        return o
    side = draw(st.sampled_from(["starts", "ends"]))
    values = getattr(o, side).copy()
    values[draw(st.integers(0, values.size - 1))] = draw(_NON_FINITE)
    return dataclasses.replace(o, **{side: values})


def _tamper_counter(draw, o):
    attr = draw(st.sampled_from([
        "total_units_minutes", "max_startup_delay_minutes", "delay_minutes",
        "L", "streams", "roots",
    ]))
    value = getattr(o, attr)
    if isinstance(value, int):
        value = draw(st.one_of(_NON_FINITE, st.sampled_from([0, value - 1, value + 1])))
    else:
        value = draw(_NON_FINITE)
    return dataclasses.replace(o, **{attr: value})


def _tamper_reversed(draw, o):
    if not o.starts.size:
        return o
    k = draw(st.integers(0, o.starts.size - 1))
    starts, ends = o.starts.copy(), o.ends.copy()
    starts[k], ends[k] = o.ends[k], o.starts[k]
    return dataclasses.replace(o, starts=starts, ends=ends)


def _tamper_drift(draw, o):
    """Units drift around the 1e-9 tolerance, relative or absolute."""
    step = draw(st.sampled_from([-2e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 2e-9, 1e-8]))
    units = o.total_units_minutes
    if draw(st.booleans()):
        return dataclasses.replace(o, total_units_minutes=units * (1 + step))
    return dataclasses.replace(o, total_units_minutes=units + step)


def _tamper_longest(draw, o):
    """One stream at the full L*delay length, or just past it."""
    if not o.starts.size:
        return o
    k = draw(st.integers(0, o.starts.size - 1))
    ends = o.ends.copy()
    ends[k] = o.starts[k] + o.L * o.delay_minutes + draw(
        st.sampled_from([0.0, 0.5e-9, 2e-9, 1.0])
    )
    return dataclasses.replace(o, ends=ends)


def _tamper_size(draw, o):
    """Stream count and interval arrays that disagree."""
    kind = draw(st.sampled_from(["drop-start", "drop-end", "extra-end", "count"]))
    if kind == "drop-start":
        return dataclasses.replace(o, starts=o.starts[:-1])
    if kind == "drop-end":
        return dataclasses.replace(o, ends=o.ends[:-1])
    if kind == "extra-end":
        return dataclasses.replace(o, ends=np.append(o.ends, 1.0))
    return dataclasses.replace(o, streams=o.streams + draw(st.sampled_from([-1, 1])))


def _tamper_empty(draw, o):
    """Empty interval arrays, or zero streams, the other side left alone."""
    if draw(st.booleans()):
        return dataclasses.replace(o, starts=np.empty(0), ends=np.empty(0))
    return dataclasses.replace(o, streams=0)


_TAMPERS = [
    _tamper_endpoint, _tamper_counter, _tamper_reversed, _tamper_drift,
    _tamper_longest, _tamper_size, _tamper_empty,
]

_BASES = [
    ("batched-dyadic", ()),
    ("batched-dyadic", (1, 4)),
    ("immediate-dyadic", (0,)),
]


class TestSummaryOracleFuzz:
    """The grouped battery equals the title-by-title oracle, outcome for
    outcome (names, verdicts, check counts, details), on ``run_fleet``
    reports with random tampering, at group sizes from one stream up."""

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(
        st.data(),
        st.sampled_from(_BASES),
        st.sampled_from([1, 3, 64, replay.WALK_BLOCK]),
    )
    def test_tampered_report_outcomes_equal_the_oracle(self, data, base, block):
        report = _zipf_report(*base)
        objects = list(report.objects)
        for _ in range(data.draw(st.integers(0, 3))):
            index = data.draw(st.integers(0, len(objects) - 1))
            objects[index] = data.draw(st.sampled_from(_TAMPERS))(data.draw, objects[index])
        report = dataclasses.replace(report, objects=objects)
        expected = oracles.summary_contracts(report)
        saved, replay.WALK_BLOCK = replay.WALK_BLOCK, block
        try:
            got = check_fleet_report(report, replay=False)
        finally:
            replay.WALK_BLOCK = saved
        assert got.outcomes == expected.outcomes


class TestAdmissionHostileDelay:
    @pytest.mark.parametrize("delay", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_delay_fails_without_raising(self, delay):
        catalog = Catalog.zipf(20, duration_minutes=60.0)
        verdict = admission_report(catalog, 600.0, 3)
        clean = check_admission_report(verdict, catalog, 600.0)
        hostile = dataclasses.replace(verdict, delay_minutes=delay)
        contracts = check_admission_report(hostile, catalog, 600.0)
        assert [(o.name, o.checks) for o in contracts.outcomes] == [
            (o.name, o.checks) for o in clean.outcomes
        ]
        failures = {o.name: o.detail for o in contracts.failures()}
        assert set(failures) == {"admission.peak-recomputed", "admission.capacity"}
        for detail in failures.values():
            assert f"delay {delay!r} min is not positive and finite" in detail
