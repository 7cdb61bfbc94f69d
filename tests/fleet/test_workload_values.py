"""Workload values are checked once, the same way, on every route.

Every consumer of a title -> times mapping reads it through
:meth:`repro.multiplex.Workload.of`: the in-memory fleet route, the
store-backed route, the replay contract and the live daemon.  A value
that is not a 1-D array of real numbers raises ``ValueError`` naming the
title before any work, whichever route it takes; a malformed feed of
real numbers is repaired to the same report on each.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arrivals import ArrivalTrace
from repro.burnin import check_fleet_report, fleet_reports_equal
from repro.fleet import FleetPolicy, run_fleet, stored_workload
from repro.live import LiveConfig, LiveDaemon
from repro.multiplex import Catalog, MediaObject
from tests.conftest import fuzz_examples

DELAY, HORIZON = 2.0, 60.0
POLICY = FleetPolicy.batched_dyadic()
CATALOG = Catalog([
    MediaObject("x", 20.0, 3.0), MediaObject("y", 10.0, 2.0), MediaObject("z", 30.0, 1.0),
])
ALONE = Catalog([MediaObject("x", 20.0, 1.0)])
LIVE = LiveConfig(
    delay_minutes=DELAY, horizon_minutes=HORIZON, epoch_minutes=10.0,
    fence_minutes=5.0, policy=POLICY.kind,
)
GOOD = np.array([1.0, 7.5, 30.25])

#: values that are not a 1-D array of real numbers, with what the error says
BAD_VALUES = {
    "2-D": (np.ones((2, 2)), r"arrivals of 'x' must be 1-D, got shape \(2, 2\)"),
    "0-d": (np.float64(3.0), r"arrivals of 'x' must be 1-D, got shape \(\)"),
    "dict": ({"t": 1.0}, "arrivals of 'x' must be real numbers"),
    "object": (np.array([1.0, None], dtype=object), "arrivals of 'x' must be real numbers"),
    "complex scalar": (1.0 + 2.0j, "arrivals of 'x' must be real numbers"),
    "complex array": (np.array([1.0 + 0j, 2.0 + 1j]), "arrivals of 'x' must be real numbers"),
}


def _memory_alone(value, tmp_path):
    run_fleet(ALONE, DELAY, HORIZON, policy=POLICY, workload={"x": value})


def _memory_shared(value, tmp_path):
    run_fleet(CATALOG, DELAY, HORIZON, policy=POLICY, workload={"x": value, "y": GOOD})


def _store(value, tmp_path):
    run_fleet(CATALOG, DELAY, HORIZON, policy=POLICY, workload={"x": value}, store=tmp_path)


def _stored_workload(value, tmp_path):
    with stored_workload(CATALOG, {"x": value}, root=tmp_path):
        pass


def _replay(value, tmp_path):
    report = run_fleet(CATALOG, DELAY, HORIZON, policy=POLICY, workload={"y": GOOD})
    check_fleet_report(report, CATALOG, {"x": value, "y": GOOD}, POLICY, replay=True)


def _step(value, tmp_path):
    LiveDaemon(CATALOG, LIVE).step({"x": value})


ROUTES = {
    "memory, title alone in its shard": _memory_alone,
    "memory, title sharing a shard": _memory_shared,
    "store=True": _store,
    "stored_workload": _stored_workload,
    "check_fleet_report(replay=True)": _replay,
    "LiveDaemon.step": _step,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("kind", sorted(BAD_VALUES))
def test_bad_value_raises_naming_the_title(kind, route, tmp_path):
    value, message = BAD_VALUES[kind]
    with pytest.raises(ValueError, match=message):
        ROUTES[route](value, tmp_path)
    assert list(tmp_path.iterdir()) == []  # no spool left behind


def test_arrivals_the_delay_merges_are_refused_by_step_too():
    """Halving 5e-324 gives 0.0: the batch path refuses the pair, and so
    does the daemon, before any state changes."""
    daemon = LiveDaemon(CATALOG, LIVE)
    before = daemon.checkpoint()
    with pytest.raises(ValueError, match="strictly increasing"):
        daemon.step({"y": [0.0, 5e-324]})
    assert daemon.checkpoint() == before


# ---------------------------------------------------------------------------
# the fuzzer: three routes, one verdict
# ---------------------------------------------------------------------------

_times = st.one_of(
    st.floats(min_value=-5.0, max_value=HORIZON + 5.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, HORIZON, np.nextafter(HORIZON, 0.0)]),
    st.floats(),
)


@st.composite
def _hostile_value(draw):
    """A title's value: real feeds (NaN, +-inf, unsorted, duplicated,
    out-of-window) as lists, arrays and traces, and values of every wrong
    shape and type."""
    times = draw(st.lists(_times, max_size=12))
    if draw(st.booleans()):
        times += draw(st.lists(st.sampled_from(times or [1.0]), max_size=3))  # duplicates
    kind = draw(st.sampled_from([
        "list", "float64", "float32", "int", "trace", "2-D", "0-d", "scalar",
        "ragged", "string", "strings", "complex", "complex array", "dict", "none", "bools",
    ]))
    if kind == "list":
        return times
    if kind == "float64":
        return np.array(times)
    if kind == "float32":
        with np.errstate(over="ignore"):  # past float32's range: +-inf
            return np.array(times).astype(np.float32)
    if kind == "int":
        return np.array([int(t) for t in times if abs(t) < 2.0**62], dtype=np.int64)
    if kind == "trace":
        valid = np.unique([t for t in times if 0.0 <= t < HORIZON])
        return ArrivalTrace(valid, HORIZON)
    if kind == "2-D":
        return np.array(times + times).reshape(2, -1)
    if kind == "0-d":
        return np.array(times[0] if times else 1.0)
    if kind == "scalar":
        return times[0] if times else 1.0
    if kind == "ragged":
        return [times, [1.0, 2.0, 3.0] + times]
    if kind == "string":
        return "1.0"
    if kind == "strings":
        return [str(t) for t in times]
    if kind == "complex":
        return complex(times[0] if times else 1.0, 1.0)
    if kind == "complex array":
        return np.array(times, dtype=complex)
    if kind == "dict":
        return {"times": times}
    if kind == "none":
        return None
    return [t > 30.0 for t in times]  # bools


@st.composite
def _hostile_mappings(draw):
    mapping = {
        obj.name: draw(_hostile_value())
        for obj in CATALOG
        if draw(st.booleans())
    }
    if draw(st.integers(0, 7)) == 0:
        mapping["no-such-title"] = draw(_hostile_value())
    return mapping


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return exc


class TestWorkloadFuzz:
    @settings(
        max_examples=fuzz_examples(60),
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mapping=_hostile_mappings())
    @example(mapping={"y": [0.0, 5e-324]})  # two arrivals that halving merges
    def test_every_route_agrees(self, mapping, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no route may warn
            memory = _outcome(lambda: run_fleet(
                CATALOG, DELAY, HORIZON, policy=POLICY, workload=mapping,
            ))
            store = _outcome(lambda: run_fleet(
                CATALOG, DELAY, HORIZON, policy=POLICY, workload=mapping, store=tmp_path,
            ))
            live = _outcome(lambda: LiveDaemon(CATALOG, LIVE).run(mapping))
        assert list(tmp_path.iterdir()) == []
        outcomes = (memory, store, live)
        if any(isinstance(o, ValueError) for o in outcomes):
            assert all(isinstance(o, ValueError) for o in outcomes), outcomes
            return
        assert fleet_reports_equal(memory, store) is None
        assert fleet_reports_equal(live.fleet, memory) is None
        for a, b, c in zip(memory.objects, store.objects, live.fleet.objects):
            assert a.repaired == b.repaired == c.repaired
            # every entry of a title is served or repaired: nothing reshaped
            assert a.clients + a.repaired == len(mapping.get(a.name, ()))
