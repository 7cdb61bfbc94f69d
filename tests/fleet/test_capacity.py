"""Tests for delay-bandwidth capacity planning."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import build_online_flat_forest
from repro.fleet import (
    AdmissionReport,
    admission_report,
    capacity_frontier,
    default_delay_grid,
    dg_fleet_peak,
    min_fleet_delay,
    min_object_delay,
    render_frontier,
)
from repro.fleet import capacity
from repro.fleet.capacity import aggregate_peak, dg_envelope, dg_envelopes
from repro.multiplex import Catalog, MediaObject, zipf_weights
from repro.simulation.channels import interval_profile, peak_concurrency
from tests.simulation.test_channels_flat import sweep_peak

HORIZON = 240.0
GRID = default_delay_grid(lo=0.5, hi=16.0, points=10)


def stacked_peak(envelopes):
    """The concatenate-and-sort peak: every envelope's intervals stacked,
    one per object, and swept by ``peak_concurrency``.  The oracle for
    the multiplicity-weighted difference array of ``aggregate_peak``."""
    if not envelopes:
        return 0
    starts = np.concatenate([env[1] for env in envelopes])
    ends = np.concatenate([env[2] for env in envelopes])
    return peak_concurrency(starts, ends)


def shed_linear(catalog, horizon, budget, delay):
    """The one-title-at-a-time shedding loop: the oracle for the bisected
    drop count.  Drops least-popular titles (stable sort, so ties in
    catalog order) and re-stacks the admitted envelopes after each drop
    until the peak fits the budget."""
    envelope = dict(zip(catalog, dg_envelopes(catalog, delay, horizon)))
    by_popularity = sorted(catalog, key=lambda o: o.weight)  # least first
    admitted = list(catalog.objects)
    dropped = []
    peak = stacked_peak([envelope[o] for o in admitted])
    for obj in by_popularity:
        if peak <= budget:
            break
        admitted = [o for o in admitted if o.name != obj.name]
        dropped.append(obj.name)
        peak = stacked_peak([envelope[o] for o in admitted])
    return AdmissionReport(
        budget_channels=budget,
        delay_minutes=delay,
        feasible=False,
        admitted=tuple(o.name for o in admitted),
        dropped=tuple(dropped),
        peak_channels=peak,
        served_weight_fraction=float(sum(o.weight for o in admitted)),
    )


def mixed_catalog(weights, seed=5):
    """Seeded durations uniform on 20-90 minutes, the given raw weights."""
    durations = np.random.default_rng(seed).uniform(20.0, 90.0, len(weights))
    return Catalog([
        MediaObject(f"mix-{i:02d}", float(d), float(w))
        for i, (d, w) in enumerate(zip(durations, weights))
    ])


def minute_peak(catalog, delay, horizon):
    """Fleet DG peak on the minute timeline, every forest rebuilt unmemoised."""
    n_slots = max(1, int(np.ceil(horizon / delay)))
    starts, ends = [], []
    for obj in catalog:
        L = obj.units(delay)
        _labels, s, e = build_online_flat_forest(L, n_slots).intervals(L)
        starts.append(s * delay)
        ends.append(e * delay)
    return peak_concurrency(np.concatenate(starts), np.concatenate(ends))


def min_delay_for_budget(catalog, horizon, budget, candidate_delays):
    """The linear-scan delay search: the unmemoised oracle for the bisection.

    Walks the candidates smallest first and returns the first whose
    minute-timeline DG peak fits the budget (None when none fits).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1 channel")
    for delay in sorted(candidate_delays):
        if minute_peak(catalog, delay, horizon) <= budget:
            return delay
    return None


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(10, duration_minutes=60.0)


class TestMinFleetDelay:
    def test_bisect_matches_linear_oracle(self, catalog):
        """The O(log) bisection returns what the linear scan does."""
        for budget in (3, 10, 30, 80, 200):
            mine = min_fleet_delay(catalog, HORIZON, budget, GRID)
            oracle = min_delay_for_budget(catalog, HORIZON, budget, GRID)
            assert mine == oracle, (budget, mine, oracle)

    def test_peak_is_nonincreasing_in_delay(self, catalog):
        peaks = [dg_fleet_peak(catalog, d, HORIZON) for d in GRID]
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))

    def test_answer_is_verified_feasible(self, catalog):
        budget = 40
        d = min_fleet_delay(catalog, HORIZON, budget, GRID)
        assert d is not None
        assert dg_fleet_peak(catalog, d, HORIZON) <= budget

    def test_infeasible_budget_returns_none(self, catalog):
        assert min_fleet_delay(catalog, HORIZON, 1, GRID) is None

    def test_rejects_zero_budget(self, catalog):
        with pytest.raises(ValueError):
            min_fleet_delay(catalog, HORIZON, 0, GRID)

    def test_slot_peak_equals_minute_peak(self, catalog):
        """Envelope endpoints are whole slots, so peaks taken in slot
        units equal the peaks of the minute-scaled intervals."""
        for d in GRID:
            assert dg_fleet_peak(catalog, d, HORIZON) == minute_peak(
                catalog, d, HORIZON
            )


class TestMinObjectDelay:
    def test_object_needs_less_than_fleet(self, catalog):
        obj = catalog[0]
        budget = 12
        d_obj = min_object_delay(obj, HORIZON, budget, GRID)
        d_fleet = min_fleet_delay(catalog, HORIZON, budget, GRID)
        assert d_obj is not None
        assert d_fleet is None or d_obj <= d_fleet

    def test_tighter_budget_needs_larger_delay(self, catalog):
        obj = catalog[0]
        loose = min_object_delay(obj, HORIZON, 50, GRID)
        tight = min_object_delay(obj, HORIZON, 5, GRID)
        assert loose is not None and tight is not None
        assert tight >= loose

    def test_rejects_non_positive_horizon(self, catalog):
        with pytest.raises(ValueError, match="horizon"):
            min_object_delay(catalog[0], 0.0, 5, GRID)
        with pytest.raises(ValueError, match="horizon"):
            min_object_delay(catalog[0], -1.0, 5, GRID)


class TestFrontier:
    def test_frontier_delay_decreases_with_budget(self, catalog):
        points = capacity_frontier(catalog, HORIZON, [5, 20, 60, 150], GRID)
        assert [p.budget_channels for p in points] == [5, 20, 60, 150]
        feasible = [p for p in points if p.feasible]
        assert feasible, "no feasible point on a generous grid"
        delays = [p.delay_minutes for p in feasible]
        assert all(a >= b for a, b in zip(delays, delays[1:]))
        for p in feasible:
            assert p.peak_channels <= p.budget_channels

    def test_frontier_points_match_direct_search(self, catalog):
        budgets = [10, 40, 120]
        points = {
            p.budget_channels: p
            for p in capacity_frontier(catalog, HORIZON, budgets, GRID)
        }
        for b in budgets:
            assert points[b].delay_minutes == min_fleet_delay(
                catalog, HORIZON, b, GRID
            )

    def test_render(self, catalog):
        text = render_frontier(
            capacity_frontier(catalog, HORIZON, [1, 60], GRID)
        )
        assert "capacity frontier" in text and "infeasible" in text

    @pytest.mark.parametrize("budgets", [[0, 50], [-3]])
    def test_rejects_budget_below_one(self, catalog, budgets):
        with pytest.raises(ValueError, match="budget must be >= 1 channel"):
            capacity_frontier(catalog, HORIZON, budgets, GRID)


class TestAdmission:
    def test_feasible_budget_admits_everything(self, catalog):
        report = admission_report(catalog, HORIZON, 500, GRID)
        assert report.feasible
        assert not report.dropped
        assert report.served_weight_fraction == pytest.approx(1.0)
        assert report.peak_channels <= 500
        assert "feasible" in report.render()

    def test_starved_budget_sheds_least_popular_first(self, catalog):
        report = admission_report(catalog, HORIZON, 4, GRID)
        assert not report.feasible
        assert report.delay_minutes == max(GRID)
        assert report.dropped, "expected load shedding"
        # least popular (highest rank index) go first
        names = [o.name for o in catalog.popularity_rank()]
        expected_drop_order = list(reversed(names))[: len(report.dropped)]
        assert list(report.dropped) == expected_drop_order
        assert 0.0 < report.served_weight_fraction < 1.0
        assert set(report.admitted) | set(report.dropped) == set(names)
        assert "shedding" in report.render()

    def test_shedding_reads_the_envelope_memo(self, catalog):
        """Shedding pins the delay at the grid maximum, which the
        bisection already probed: its envelopes are all memo hits."""
        dg_envelope.cache_clear()
        assert min_fleet_delay(catalog, HORIZON, 4, GRID) is None
        probe = dg_envelope.cache_info()
        report = admission_report(catalog, HORIZON, 4, GRID)
        after = dg_envelope.cache_info()
        assert report.dropped
        assert after.misses == probe.misses
        # the repeated bisection, then one lookup per object to shed
        assert after.hits - probe.hits == (
            probe.hits + probe.misses + len(catalog)
        )


def _shedding_budgets(catalog):
    """Budgets infeasible at the grid maximum: from starved to one
    channel short of the whole catalog's peak."""
    full = dg_fleet_peak(catalog, GRID[-1], HORIZON)
    return sorted({b for b in (1, 2, full // 4, full // 2, full - 1) if b >= 1})


class TestBisectedShedding:
    """admission_report equals the one-at-a-time loop, field for field."""

    @pytest.mark.parametrize(
        "catalog",
        [
            Catalog.zipf(40, duration_minutes=60.0),
            mixed_catalog(zipf_weights(40)),
            # ties: the stable sort sheds tied titles in catalog order
            mixed_catalog([3.0] * 5 + [2.0] * 12 + [1.0] * 15),
        ],
        ids=["zipf", "mixed-durations", "tied-weights"],
    )
    def test_equals_linear_shedding(self, catalog):
        for budget in _shedding_budgets(catalog):
            report = admission_report(catalog, HORIZON, budget, GRID)
            assert not report.feasible
            oracle = shed_linear(catalog, HORIZON, budget, GRID[-1])
            assert report == oracle, budget
            assert report.served_weight_fraction.hex() == (
                oracle.served_weight_fraction.hex()
            )

    def test_budget_equal_to_a_prefix_peak(self):
        catalog = mixed_catalog(zipf_weights(30))
        envelopes = dict(zip(catalog, dg_envelopes(catalog, GRID[-1], HORIZON)))
        order = sorted(catalog, key=lambda o: o.weight)
        prefix = [stacked_peak([envelopes[o] for o in order[k:]]) for k in range(31)]
        for k in (3, 10, 22):
            assert prefix[k] < prefix[0]
            report = admission_report(catalog, HORIZON, prefix[k], GRID)
            assert report == shed_linear(catalog, HORIZON, prefix[k], GRID[-1])
            assert report.peak_channels == prefix[k]
            assert len(report.dropped) == min(
                j for j in range(31) if prefix[j] <= prefix[k]
            )

    @pytest.mark.parametrize(
        "catalog",
        [Catalog.zipf(12, duration_minutes=60.0), mixed_catalog(zipf_weights(12))],
        ids=["zipf", "mixed-durations"],
    )
    def test_budget_below_top_title_sheds_everything(self, catalog):
        top = catalog.popularity_rank()[0]
        own = aggregate_peak(dg_envelopes([top], GRID[-1], HORIZON))
        assert own >= 2
        report = admission_report(catalog, HORIZON, own - 1, GRID)
        assert report == shed_linear(catalog, HORIZON, own - 1, GRID[-1])
        assert report.admitted == () and len(report.dropped) == len(catalog)
        assert report.peak_channels == 0
        assert report.served_weight_fraction == 0.0

    def test_drop_count_is_bisected(self, monkeypatch):
        """At most ceil(log2(n + 1)) + 3 peaks for shedding, where the
        linear loop takes one per dropped title plus one."""
        catalog = Catalog.zipf(200, duration_minutes=60.0)
        budget = dg_fleet_peak(catalog, GRID[-1], HORIZON) // 3
        calls = Counter()
        aggregate, fleet = capacity.aggregate_peak, capacity.dg_fleet_peak

        def counted_aggregate(envelopes):
            calls["aggregate"] += 1
            return aggregate(envelopes)

        def counted_fleet(*args):
            calls["fleet"] += 1
            return fleet(*args)

        monkeypatch.setattr(capacity, "aggregate_peak", counted_aggregate)
        monkeypatch.setattr(capacity, "dg_fleet_peak", counted_fleet)
        report = admission_report(catalog, HORIZON, budget, GRID)
        shedding_calls = calls["aggregate"] - calls["fleet"]
        assert len(report.dropped) > 100
        assert shedding_calls <= math.ceil(math.log2(len(catalog) + 1)) + 3


class TestEnvelopeMemo:
    """The DG envelope memo: fewer forest builds, identical answers."""

    def test_frontier_probes_hit_the_envelope_cache(self, catalog):
        dg_envelope.cache_clear()
        points = capacity_frontier(catalog, HORIZON, [5, 20, 60, 150], GRID)
        info = dg_envelope.cache_info()
        # every probed delay maps each object to an (L, n_slots) pair;
        # misses are bounded by the distinct pairs, and the repeated
        # probes across budgets/objects must all be hits.
        distinct = {
            (obj.units(d), max(1, int(-(-HORIZON // d))))
            for obj in catalog
            for d in GRID
        }
        assert info.misses <= len(distinct)
        assert info.hits > info.misses, info
        assert [p.budget_channels for p in points] == [5, 20, 60, 150]

    def test_memoised_frontier_equals_unmemoised_oracle(self, catalog):
        """Every frontier delay equals the linear scan, which rebuilds
        every envelope (no memo on that path)."""
        for budget in (5, 20, 60, 150):
            assert min_fleet_delay(catalog, HORIZON, budget, GRID) == (
                min_delay_for_budget(catalog, HORIZON, budget, GRID)
            )

    def test_envelope_matches_object_load(self, catalog):
        """The memoised envelope equals the object's DG forest built
        without the memo."""
        obj = catalog[0]
        delay = GRID[3]
        L = obj.units(delay)
        n_slots = max(1, int(np.ceil(HORIZON / delay)))
        oracle = build_online_flat_forest(L, n_slots).intervals(L)
        for got, want in zip(dg_envelope(L, n_slots), oracle):
            assert np.array_equal(got, want)

    def test_cached_arrays_are_read_only(self):
        labels, starts, ends = dg_envelope(15, 40)
        for arr in (labels, starts, ends):
            with pytest.raises(ValueError):
                arr[0] = -1.0


class TestAggregatePeak:
    """The fleet-wide peak over stacked DG envelopes."""

    def test_aggregate_peak_sums_overlaps(self):
        envelope = dg_envelope(4, 16)
        assert aggregate_peak([envelope, envelope]) == 2 * aggregate_peak(
            [envelope]
        )

    def test_aggregate_peak_empty(self):
        assert aggregate_peak([]) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_weighted_peak_equals_stacked_oracle(self, data):
        """Any multiset, in any order: repeats of one memoised envelope
        are weighted, equal copies that are not identical are counted
        apart, and both give the stacked sweep's peak."""
        params = data.draw(st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 200)),
            min_size=1, max_size=6,
        ))
        distinct = [dg_envelope(L, n) for L, n in params]
        index = st.integers(0, len(distinct) - 1)
        envelopes = [distinct[i] for i in data.draw(st.lists(index, max_size=40))]
        envelopes += [
            tuple(a.copy() for a in distinct[i])
            for i in data.draw(st.lists(index, max_size=4))
        ]
        envelopes = data.draw(st.permutations(envelopes))
        assert aggregate_peak(envelopes) == stacked_peak(envelopes)

    @pytest.mark.parametrize("column", [1, 2], ids=["start", "end"])
    def test_non_integral_endpoint_raises(self, column):
        envelope = [a.copy() for a in dg_envelope(4, 16)]
        envelope[column][3] += 0.5
        with pytest.raises(ValueError, match="whole slots"):
            aggregate_peak([dg_envelope(4, 16), tuple(envelope)])

    def test_aggregate_peak_matches_event_sweep(self, catalog):
        # whole-slot endpoints: many ends tie with starts, so the
        # half-open tie rule is exercised on every probe
        for delay in (GRID[0], GRID[4], GRID[-1]):
            envelopes = dg_envelopes(catalog, delay, HORIZON)
            starts = np.concatenate([env[1] for env in envelopes])
            ends = np.concatenate([env[2] for env in envelopes])
            assert aggregate_peak(envelopes) == sweep_peak(
                starts.tolist(), ends.tolist()
            )

    def test_profile_max_dominates_peak_catalog(self, catalog):
        delay, horizon = 13.0, 480.0
        envelopes = dg_envelopes(catalog, delay, horizon)
        starts = np.concatenate([env[1] for env in envelopes]) * delay
        ends = np.concatenate([env[2] for env in envelopes]) * delay
        prof = interval_profile(
            starts, ends, 0.0, float(ends.max()) + 1.0, resolution=7.3
        )
        assert prof.max() >= dg_fleet_peak(catalog, delay, horizon)


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_delay_grid(0.25, 32.0, 22)
        assert len(grid) == 22
        assert grid[0] == pytest.approx(0.25) and grid[-1] == pytest.approx(32.0)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            default_delay_grid(4.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            default_delay_grid(1.0, math.inf)

    @pytest.mark.parametrize("points", [1, 0])
    def test_rejects_fewer_than_two_points(self, points):
        with pytest.raises(ValueError, match="points >= 2"):
            default_delay_grid(1.0, 8.0, points)


#: every public search over a candidate-delay grid
SEARCHES = {
    "min_fleet_delay": lambda cat, grid: min_fleet_delay(cat, HORIZON, 10, grid),
    "min_object_delay": lambda cat, grid: min_object_delay(cat[0], HORIZON, 10, grid),
    "capacity_frontier": lambda cat, grid: capacity_frontier(cat, HORIZON, [10], grid),
    "admission_report": lambda cat, grid: admission_report(cat, HORIZON, 10, grid),
}


class TestDelayGridValidation:
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_empty_grid_raises(self, catalog, search):
        with pytest.raises(ValueError, match="at least one candidate delay"):
            SEARCHES[search](catalog, [])

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_delay_raises(self, catalog, search, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SEARCHES[search](catalog, [1.0, bad, 4.0])
