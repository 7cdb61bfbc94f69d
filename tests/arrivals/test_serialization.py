"""Tests for trace serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import ArrivalTrace, poisson
from repro.arrivals.serialization import (
    load_trace,
    save_trace,
    trace_from_json,
    trace_from_payload,
    trace_payload,
    trace_to_json,
)

from tests.conftest import increasing_times


class TestRoundTrip:
    def test_simple(self):
        t = ArrivalTrace(times=(0.5, 1.25, 7.0), horizon=10.0)
        assert trace_from_json(trace_to_json(t)) == t

    def test_empty(self):
        t = ArrivalTrace(times=(), horizon=3.0)
        assert trace_from_json(trace_to_json(t)) == t

    def test_poisson_exact(self):
        t = poisson(0.9, 200.0, seed=5)
        back = trace_from_json(trace_to_json(t))
        assert back.times.tolist() == t.times.tolist()
        assert back.horizon == t.horizon

    @given(increasing_times(min_size=0, max_size=30, horizon=50.0))
    def test_property_roundtrip(self, times):
        t = ArrivalTrace(times=tuple(times), horizon=50.0)
        assert trace_from_json(trace_to_json(t)) == t

    def test_meta_carried(self):
        t = ArrivalTrace(times=(1.0,), horizon=2.0)
        doc = json.loads(trace_to_json(t, meta={"seed": 7, "kind": "poisson"}))
        assert doc["meta"]["seed"] == 7


class TestFiles:
    def test_save_load(self, tmp_path):
        t = poisson(1.5, 60.0, seed=3)
        path = tmp_path / "trace.json"
        save_trace(t, path, meta={"note": "test"})
        assert load_trace(path) == t

    def test_load_accepts_str_path(self, tmp_path):
        t = ArrivalTrace(times=(0.5,), horizon=1.0)
        path = tmp_path / "t.json"
        save_trace(t, str(path))
        assert load_trace(str(path)) == t


class TestValidation:
    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            trace_from_json(json.dumps({"schema": "something-else", "times": []}))

    def test_count_mismatch(self):
        doc = json.loads(trace_to_json(ArrivalTrace(times=(1.0,), horizon=2.0)))
        doc["count"] = 5
        with pytest.raises(ValueError, match="corrupt"):
            trace_from_json(json.dumps(doc))

    def test_invalid_times_rejected_on_load(self):
        doc = {
            "schema": "repro.arrival-trace.v1",
            "horizon": 2.0,
            "count": 2,
            "times": [1.0, 1.0],
            "meta": {},
        }
        with pytest.raises(ValueError):
            trace_from_json(json.dumps(doc))


class TestPayloadHelpers:
    """Dict-level envelopes: what composite documents (the live daemon's
    checkpoint) embed without double-encoding JSON strings."""

    def test_payload_round_trip(self):
        trace = poisson(0.5, 30.0, seed=9)
        payload = trace_payload(trace, meta={"repaired": 3})
        assert payload["schema"] == "repro.arrival-trace.v1"
        assert payload["count"] == len(trace)
        assert payload["meta"] == {"repaired": 3}
        assert trace_from_payload(payload) == trace

    def test_payload_survives_json_embedding(self):
        trace = poisson(0.5, 30.0, seed=10)
        document = {"objects": {"movie": trace_payload(trace)}}
        recovered = trace_from_payload(
            json.loads(json.dumps(document))["objects"]["movie"]
        )
        assert recovered == trace

    def test_json_helpers_are_the_payload_helpers(self):
        trace = poisson(0.5, 30.0, seed=11)
        assert json.loads(trace_to_json(trace)) == trace_payload(trace)


class TestPartialTraces:
    """Round trips on the shapes a mid-run checkpoint actually produces."""

    def test_mid_horizon_cut(self):
        full = poisson(0.3, 60.0, seed=21)
        cut = full.restrict(0.0, 25.0)  # the ingested prefix of a live run
        assert 0 < len(cut) < len(full)
        back = trace_from_payload(trace_payload(cut))
        assert back == cut
        assert back.horizon == 25.0
        assert all(t < 25.0 for t in back.times)

    def test_interior_window_is_reanchored_and_round_trips(self):
        full = poisson(0.3, 60.0, seed=22)
        window = full.restrict(20.0, 40.0)
        back = trace_from_json(trace_to_json(window))
        assert back == window and back.horizon == 20.0

    def test_zero_arrival_epoch(self):
        empty = ArrivalTrace(times=(), horizon=15.0)
        back = trace_from_payload(trace_payload(empty, meta={"repaired": 0}))
        assert back == empty and len(back) == 0

    def test_single_client_object(self):
        lone = ArrivalTrace(times=(7.25,), horizon=90.0)
        back = trace_from_payload(trace_payload(lone))
        assert back == lone and back.times.tolist() == [7.25]

    def test_partial_cut_is_bit_exact_not_approximate(self):
        full = poisson(0.05, 45.0, seed=23)
        cut = full.restrict(0.0, 17.0)
        back = trace_from_json(trace_to_json(cut))
        # float equality, not approx: checkpoints must replay identically
        assert all(a == b for a, b in zip(back.times, cut.times))

    def test_payload_rejects_times_past_the_cut_horizon(self):
        payload = trace_payload(ArrivalTrace(times=(1.0, 2.0), horizon=10.0))
        payload["horizon"] = 1.5  # a torn checkpoint: times escape horizon
        with pytest.raises(ValueError):
            trace_from_payload(payload)

    def test_payload_rejects_wrong_schema_and_count(self):
        payload = trace_payload(ArrivalTrace(times=(1.0,), horizon=5.0))
        bad_schema = dict(payload, schema="bogus")
        with pytest.raises(ValueError, match="schema"):
            trace_from_payload(bad_schema)
        bad_count = dict(payload, count=2)
        with pytest.raises(ValueError, match="declared"):
            trace_from_payload(bad_count)


def _payload(**changes):
    payload = trace_payload(ArrivalTrace(times=(1.0, 2.0), horizon=10.0))
    payload.update(changes)
    return payload


class TestHostilePayloads:
    """Every malformed envelope raises a ValueError naming its field."""

    @pytest.mark.parametrize("field", ["horizon", "times", "count"])
    def test_missing_field(self, field):
        payload = _payload()
        del payload[field]
        with pytest.raises(ValueError, match=field):
            trace_from_payload(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("times", 5),
            ("times", [[1.0]]),
            ("times", ["1.0", "2.0"]),
            ("times", [True, 2.0]),
            ("times", [1.0, float("nan")]),
            ("times", [1.0, float("inf")]),
            ("times", [1.0, 10**400]),
            ("horizon", None),
            ("horizon", "10"),
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("horizon", 10**400),
            ("horizon", -1.0),
            ("count", True),
            ("count", 2.0),
            ("count", None),
        ],
    )
    def test_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            trace_from_payload(_payload(**{field: value}))

    def test_non_finite_json_literals(self):
        text = trace_to_json(ArrivalTrace(times=(1.0,), horizon=10.0))
        for bad in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ValueError, match="times"):
                trace_from_json(text.replace("[1.0]", f"[{bad}]"))
            with pytest.raises(ValueError, match="horizon"):
                trace_from_json(text.replace('"horizon": 10.0', f'"horizon": {bad}'))

    @pytest.mark.parametrize("payload", [None, [], "trace", 3.5])
    def test_non_dict_payload(self, payload):
        with pytest.raises(ValueError, match="payload"):
            trace_from_payload(payload)


#: JSON values of every type, the hostile ones included
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**400),
    st.floats(),
    st.text(max_size=4),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_time_lists = st.lists(
    st.one_of(st.floats(min_value=-1.0, max_value=12.0), _json_scalars), max_size=8
)


@st.composite
def payload_dicts(draw):
    """Envelopes near the valid shape: each field valid (mostly), hostile
    or missing."""
    times = sorted(
        set(draw(st.lists(st.floats(min_value=0.0, max_value=9.99), max_size=8)))
    )
    fields = {
        "schema": (st.just("repro.arrival-trace.v1"), _json_values),
        "horizon": (st.sampled_from([10.0, 10, 9.995]), _json_values),
        "times": (st.just(times), _time_lists | _json_values),
        "count": (st.just(len(times)), _json_values),
        "meta": (st.just({}), _json_values),
    }
    payload = {}
    for key, (valid, hostile) in fields.items():
        mode = draw(st.sampled_from(["valid"] * 4 + ["hostile", "missing"]))
        if mode != "missing":
            payload[key] = draw(valid if mode == "valid" else hostile)
    return payload


class TestPayloadFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(payload_dicts(), _json_values))
    def test_equal_round_trip_or_value_error(self, payload):
        try:
            trace = trace_from_payload(payload)
        except ValueError:
            return
        assert trace.times.tolist() == [float(t) for t in payload["times"]]
        assert trace.horizon == float(payload["horizon"])
        again = trace_from_payload(json.loads(json.dumps(trace_payload(trace))))
        assert again == trace
