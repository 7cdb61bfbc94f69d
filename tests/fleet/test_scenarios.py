"""Tests for the scenario library and the fleet CLI front end."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.scenarios as scenarios
from repro.arrivals import constant_rate, poisson
from repro.arrivals.traces import ArrivalTrace
from repro.fleet import (
    SCENARIOS,
    compose,
    constant_poisson_blend,
    diurnal,
    flash_crowd,
    inject,
    premiere_drop,
    scenario_workload,
    thinned,
)
from repro.fleet.cli import fleet_main
from repro.multiplex import Catalog

from tests.arrivals.oracles import poisson_loop, strictly_increasing_loop


def _valid(trace: ArrivalTrace) -> None:
    ts = trace.times
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert not len(ts) or (ts[0] >= 0 and ts[-1] < trace.horizon)


BASE = poisson(0.5, 120.0, seed=4)


class TestTransformers:
    def test_inject_merges_and_nudges(self):
        out = inject([1.0, 1.0, 500.0, BASE.times[0]])(BASE)
        _valid(out)
        # the out-of-horizon point is dropped; duplicates survive nudged
        assert len(out) == len(BASE) + 3

    def test_flash_crowd_adds_exactly_clients(self):
        crowd = flash_crowd(at=40.0, clients=25, spread=2.0, seed=8)
        out = crowd(BASE)
        _valid(out)
        assert len(out) == len(BASE) + 25
        added = sorted(set(out.times) - set(BASE.times))
        assert all(40.0 <= t < 42.0 + 1e-6 for t in added)

    def test_flash_crowd_deterministic(self):
        crowd = lambda: flash_crowd(at=40.0, clients=25, spread=2.0, seed=8)
        assert crowd()(BASE).times.tolist() == crowd()(BASE).times.tolist()

    def test_premiere_drop_decays(self):
        out = premiere_drop(clients=400, decay=20.0, seed=3)(BASE)
        _valid(out)
        added = sorted(set(out.times) - set(BASE.times))
        assert len(added) > 100
        early = sum(1 for t in added if t < 40.0)
        late = sum(1 for t in added if t >= 80.0)
        assert early > 3 * max(1, late)

    def test_premiere_outside_horizon_raises(self):
        with pytest.raises(ValueError, match="horizon"):
            premiere_drop(clients=10, decay=5.0, at=500.0)(BASE)

    def test_diurnal_thins_to_subset(self):
        out = diurnal(period=60.0, depth=0.9, seed=5)(BASE)
        _valid(out)
        assert set(out.times) <= set(BASE.times)
        assert 0 < len(out) < len(BASE)

    def test_diurnal_depth_zero_is_noop(self):
        assert (
            diurnal(period=60.0, depth=0.0, seed=5)(BASE).times.tolist()
            == BASE.times.tolist()
        )

    def test_thinned(self):
        out = thinned(0.5, seed=6)(BASE)
        _valid(out)
        assert set(out.times) <= set(BASE.times)
        assert abs(len(out) / len(BASE) - 0.5) < 0.2

    def test_compose_applies_left_to_right(self):
        pipeline = compose(
            thinned(0.7, seed=1),
            flash_crowd(at=10.0, clients=5, spread=1.0, seed=2),
        )
        out = pipeline(BASE)
        _valid(out)

    def test_blend_contains_the_drumbeat(self):
        out = constant_poisson_blend(10.0, 2.0, 120.0, seed=9)
        _valid(out)
        beat = constant_rate(10.0, 120.0)
        assert set(beat.times) <= set(out.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            flash_crowd(at=0.0, clients=0, spread=1.0)
        with pytest.raises(ValueError):
            flash_crowd(at=0.0, clients=5, spread=0.0)
        with pytest.raises(ValueError):
            diurnal(period=60.0, depth=1.5)
        with pytest.raises(ValueError):
            thinned(0.0)
        with pytest.raises(ValueError):
            premiere_drop(clients=5, decay=0.0)


#: horizons and the values around them that nudges run into
EDGE_HORIZONS = [1.0, 7.5, 120.0]


@st.composite
def duplicate_heavy(draw):
    """A horizon and times full of repeats, negatives and near-horizon values."""
    horizon = draw(st.sampled_from(EDGE_HORIZONS))
    below = np.nextafter(horizon, 0.0)
    pool = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=horizon * 1.1),
                st.sampled_from(
                    [0.0, 5e-324, -1.0, below, np.nextafter(below, 0.0), horizon]
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    times = draw(st.lists(st.sampled_from(pool), max_size=50))
    return horizon, times


class TestStrictlyIncreasingMatchesTheLoop:
    """The bit-pattern running maximum is the per-time nudging loop."""

    @settings(max_examples=300, deadline=None)
    @given(duplicate_heavy())
    def test_bytes_equal(self, case):
        horizon, times = case
        fast = scenarios._strictly_increasing(times, horizon).times
        slow = strictly_increasing_loop(times, horizon)
        assert fast.tobytes() == slow.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(duplicate_heavy(), st.integers(min_value=0, max_value=30))
    def test_duplicate_heavy_inject(self, case, take):
        horizon, extras = case
        base = poisson(0.25, horizon, seed=take)
        extras = extras + base.times[:take].tolist()
        fast = inject(extras)(base).times
        slow = strictly_increasing_loop(base.times.tolist() + extras, horizon)
        assert fast.tobytes() == slow.tobytes()

    def test_cascade_runs_into_the_horizon(self):
        below = np.nextafter(1.0, 0.0)
        times = [below] * 3 + [0.5] * 3
        out = scenarios._strictly_increasing(times, 1.0).times
        assert out.tolist() == [
            0.5, np.nextafter(0.5, 1.0), np.nextafter(np.nextafter(0.5, 1.0), 1.0),
            below,
        ]


def _scenario_digest(name, catalog, seed):
    """Arrays (bytes) and generator state left by one scenario build."""
    rng = np.random.default_rng(seed)
    workload = scenario_workload(name, catalog, 0.05, 240.0, seed=rng)
    arrays = {k: (t.times.tobytes(), t.horizon) for k, t in workload.items()}
    return arrays, json.dumps(rng.bit_generator.state, sort_keys=True)


class TestScenariosMatchTheLoops:
    """Every scenario is byte-identical to one built on the frozen loops."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_arrays_and_generator_state(self, name, monkeypatch):
        catalog = Catalog.zipf(6, duration_minutes=60.0)
        fast = _scenario_digest(name, catalog, 17)
        monkeypatch.setattr(
            scenarios,
            "poisson",
            lambda mean, horizon, seed=None: ArrivalTrace(
                times=poisson_loop(mean, horizon, seed), horizon=horizon
            ),
        )
        monkeypatch.setattr(
            scenarios,
            "_strictly_increasing",
            lambda times, horizon: ArrivalTrace(
                times=strictly_increasing_loop(times.tolist(), horizon),
                horizon=horizon,
            ),
        )
        assert fast == _scenario_digest(name, catalog, 17)


#: sha256 (first 16 hex digits) of every title's times, in catalog order,
#: for each scenario at seeds 1 and 7 on ``Catalog.zipf(4, 30 min)``, mean
#: gap 0.5 min, horizon 60 min — computed before the scenario builders
#: returned one columnar workload, so any byte they move fails here
SCENARIO_BYTES = {
    ("blend", 1): ["97393ab37447c190", "86a3a21ee2935e6c", "39e72f96fe1157b9", "dcbc7b49c44d33f6"],
    ("blend", 7): ["3af82c98c9669292", "07bbe534a22eb964", "28218c688fb76322", "a9876d5f1e7c53fd"],
    ("diurnal", 1): ["9b8e684ae8df3ca3", "dee7fc24bede3c15", "818ffbfd1cb1b24c", "ff1e21ea9bc23cad"],
    ("diurnal", 7): ["f7b47d1c7cd68aa7", "f4deffaa64b16af6", "a8b08a85d90c494e", "d9e6cfdbce676fe8"],
    ("flash", 1): ["73e8c5335e88fb75", "77337396437b5220", "dd0a1b8944c8754c", "0fe394b250435813"],
    ("flash", 7): ["7d077676769743e6", "83a55f671c9585ff", "4639e86079d75582", "44457bc4e8c7bada"],
    ("premiere", 1): ["20d1d58da025ea7b", "77337396437b5220", "dd0a1b8944c8754c", "0fe394b250435813"],
    ("premiere", 7): ["62a0d32feca878d6", "83a55f671c9585ff", "4639e86079d75582", "44457bc4e8c7bada"],
    ("zipf", 1): ["76d70d0efb15839c", "77337396437b5220", "dd0a1b8944c8754c", "0fe394b250435813"],
    ("zipf", 7): ["9d4ff9d9293eed39", "83a55f671c9585ff", "4639e86079d75582", "44457bc4e8c7bada"],
}


@pytest.mark.parametrize("name, seed", sorted(SCENARIO_BYTES))
def test_scenario_bytes_are_pinned(name, seed):
    catalog = Catalog.zipf(4, duration_minutes=30.0)
    workload = scenario_workload(name, catalog, 0.5, 60.0, seed=seed)
    digests = [
        hashlib.sha256(workload[obj.name].times.tobytes()).hexdigest()[:16]
        for obj in catalog
    ]
    assert digests == SCENARIO_BYTES[name, seed]
    assert all(workload[obj.name].horizon == 60.0 for obj in catalog)


class TestScenarioWorkload:
    @pytest.fixture(scope="class")
    def catalog(self):
        return Catalog.zipf(8, duration_minutes=30.0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_scenario_builds_a_full_workload(self, catalog, name):
        workload = scenario_workload(name, catalog, 0.5, 60.0, seed=11)
        assert set(workload) == {o.name for o in catalog}
        for trace in workload.values():
            _valid(trace)
            assert trace.horizon == 60.0

    def test_scenarios_are_seed_deterministic(self, catalog):
        a = scenario_workload("flash", catalog, 0.5, 60.0, seed=11)
        b = scenario_workload("flash", catalog, 0.5, 60.0, seed=11)
        assert all(a[k].times.tolist() == b[k].times.tolist() for k in a)

    def test_flash_hits_the_top_title(self, catalog):
        plain = scenario_workload("zipf", catalog, 0.5, 60.0, seed=11)
        flash = scenario_workload("flash", catalog, 0.5, 60.0, seed=11)
        top = catalog.popularity_rank()[0].name
        assert len(flash[top]) > len(plain[top])

    def test_unknown_scenario_raises(self, catalog):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_workload("nope", catalog, 0.5, 60.0)


class TestFleetCli:
    def test_end_to_end_hundred_objects(self, capsys):
        rc = fleet_main([
            "--objects", "100", "--horizon", "60", "--mean-interarrival", "0.2",
            "--delay", "2.0", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet report" in out
        assert "capacity frontier" in out
        assert "admission report" in out

    def test_no_frontier_flag(self, capsys):
        rc = fleet_main([
            "--objects", "20", "--horizon", "30", "--mean-interarrival", "0.5",
            "--scenario", "diurnal", "--no-frontier",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "capacity frontier" not in out

    def test_dispatch_from_main_cli(self, capsys):
        from repro.cli import main

        rc = main([
            "fleet", "--objects", "10", "--horizon", "30",
            "--mean-interarrival", "0.5", "--no-frontier",
        ])
        assert rc == 0
        assert "fleet report" in capsys.readouterr().out
