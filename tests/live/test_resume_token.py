"""Resume tokens: state equivalence across restore, hostile-token rejection.

``LiveDaemon.restore`` rebuilds a daemon from a ``repro.live-checkpoint.v2``
token without replaying an epoch.  The restored daemon must be the
uninterrupted one — byte-identical token, node-identical open forests,
identical planners — and a damaged or hostile token must raise a
``ValueError`` naming the field, never ``KeyError``/``TypeError``/
``AssertionError``.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.burnin.contracts import fleet_reports_equal
from repro.fastpath import incremental
from repro.fastpath.incremental import IncrementalFlatForest
from repro.fleet.scenarios import scenario_workload
from repro.live import CHECKPOINT_SCHEMA, LIVE_POLICIES, LiveConfig, LiveDaemon
from repro.live.daemon import _link, chain_digests, live_digest
from repro.multiplex.catalog import Catalog
from tests.conftest import fuzz_examples

DELAY = 1.5
HORIZON = 120.0
#: (epoch, fence) geometries: short lag, and a lag longer than a window
GEOMETRIES = [(10.0, 15.0), (6.0, 40.0)]


def _config(policy="batched-dyadic", epoch=10.0, fence=15.0) -> LiveConfig:
    return LiveConfig(
        delay_minutes=DELAY,
        horizon_minutes=HORIZON,
        epoch_minutes=epoch,
        fence_minutes=fence,
        policy=policy,
    )


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(5, duration_minutes=45.0)


@pytest.fixture(scope="module")
def workload(catalog):
    return scenario_workload("blend", catalog, 0.3, HORIZON, seed=19)


def _midrun(catalog, workload, config):
    daemon = LiveDaemon(catalog, config)
    daemon.run(workload, until_epoch=config.num_epochs // 2 - 1)
    return daemon, daemon.checkpoint()


def _open_state(daemon):
    """The open windows: forest state, or the root-only pending starts."""
    if daemon._forest is None:
        return [daemon._pending.tolist(), daemon._pending_bounds.tolist()]
    forest = daemon._forest
    live = forest.live_forest()
    return [a.tolist() for a in forest.open_window()] + (
        [] if live is None else [live.parent.tolist(), live.z.tolist()]
    )


def _planner_states(daemon):
    """Every title's planner state, as plain lists."""
    states = []
    for k in range(len(daemon.catalog)):
        free_at, release_seq, seq, last_start = daemon._planner.state(k)
        states.append((free_at.tolist(), release_seq.tolist(), seq, last_start))
    return states


@pytest.mark.parametrize("epoch,fence", GEOMETRIES)
@pytest.mark.parametrize("policy", LIVE_POLICIES)
class TestStateEquivalence:
    def test_checkpoint_of_restore_is_byte_identical(
        self, catalog, workload, policy, epoch, fence
    ):
        _daemon, text = _midrun(catalog, workload, _config(policy, epoch, fence))
        assert LiveDaemon.restore(text).checkpoint() == text

    def test_open_state_equals_uninterrupted(
        self, catalog, workload, policy, epoch, fence
    ):
        daemon, text = _midrun(catalog, workload, _config(policy, epoch, fence))
        restored = LiveDaemon.restore(text)
        for key in ("epoch", "ingest_clock", "fence", "drained"):
            assert getattr(restored.horizon, key) == getattr(daemon.horizon, key)
        assert _open_state(restored) == _open_state(daemon)
        for attr in ("_clients", "_repaired", "_max_wait", "_last_push"):
            np.testing.assert_array_equal(getattr(restored, attr), getattr(daemon, attr))
        assert _planner_states(restored) == _planner_states(daemon)
        for attr in ("_streams", "_roots", "_max_cutoff"):
            np.testing.assert_array_equal(getattr(restored, attr), getattr(daemon, attr))
        open_nodes = len(daemon._forest) if daemon._forest is not None else daemon._pending.size
        assert open_nodes > 0, "the checkpoint should hold a non-empty open window"

    def test_restore_replays_no_epoch(
        self, catalog, workload, policy, epoch, fence, monkeypatch
    ):
        daemon, text = _midrun(catalog, workload, _config(policy, epoch, fence))
        calls = {"epochs": 0, "pushes": 0, "built": []}
        process, push_batch = LiveDaemon._process_epoch, IncrementalFlatForest.push_batch
        build = incremental.dyadic_flat_forest

        def counting_process(self, *args):
            calls["epochs"] += 1
            return process(self, *args)

        def counting_push_batch(self, *args, **kwargs):
            calls["pushes"] += 1
            return push_batch(self, *args, **kwargs)

        def counting_build(arrivals, *args, **kwargs):
            calls["built"].append(len(arrivals))
            return build(arrivals, *args, **kwargs)

        monkeypatch.setattr(LiveDaemon, "_process_epoch", counting_process)
        monkeypatch.setattr(IncrementalFlatForest, "push_batch", counting_push_batch)
        monkeypatch.setattr(incremental, "dyadic_flat_forest", counting_build)
        restored = LiveDaemon.restore(text)
        assert calls["epochs"] == 0
        assert calls["pushes"] == 0
        # the open windows are set directly and built once, as one ragged
        # forest, so that the builder vets them
        if daemon._forest is not None:
            assert calls["built"] == [len(daemon._forest)]
        else:
            assert calls["built"] == []
        assert restored.horizon.epoch == daemon.horizon.epoch


@pytest.mark.parametrize("policy", ["batched-dyadic", "immediate-dyadic", "pure-batching"])
def test_checkpoint_round_trips_at_every_stage(catalog, workload, policy):
    """``restore(text).checkpoint() == text`` at several epochs, and a run
    continued on a restored daemon keeps checkpointing as the daemon that
    never stopped: restored chunks and later epochs' chunks gather alike."""
    config = _config(policy, 6.0, 40.0)
    daemon = LiveDaemon(catalog, config)
    stages = [0, 3, config.num_epochs // 2, config.num_epochs - 2]
    resumed = None
    for epoch in stages:
        daemon.run(workload, until_epoch=epoch)
        text = daemon.checkpoint()
        assert LiveDaemon.restore(text).checkpoint() == text
        if resumed is None:
            resumed = LiveDaemon.restore(text)
        else:
            resumed.run(workload, until_epoch=epoch)
            assert resumed.checkpoint() == text
    assert daemon.records[-1].committed_streams > 0
    resumed_report, report = resumed.run(workload), daemon.run(workload)
    assert fleet_reports_equal(resumed_report.fleet, report.fleet) is None
    for name, ids in report.channels.items():
        np.testing.assert_array_equal(resumed_report.channels[name], ids)
    assert [r.to_payload() for r in resumed_report.records] == [
        r.to_payload() for r in report.records
    ]


def _chain_reference(per_object, counts_by_record):
    """The record chain hashed over every object at every link."""
    digests, head, prev = [], "", [0] * len(per_object)
    for counts in counts_by_record:
        new = [c - p for c, p in zip(counts, prev)]
        fresh = live_digest([(s[p:], e[p:]) for (s, e), p in zip(per_object, prev)], new)
        head = _link(head, new, fresh)
        digests.append(head)
        prev = list(counts)
    return digests


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chain_skipping_unmoved_objects_equals_the_full_loop(data):
    """Hashing only the objects whose counts moved gives every digest the
    loop over every object gives, with counts that stand still, move
    several objects at once, or (as a tampered report's may) shrink or
    run past an array's end."""
    m = data.draw(st.integers(1, 5), label="objects")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    per_object = []
    for _ in range(m):
        n = int(rng.integers(0, 12))
        starts = np.cumsum(rng.uniform(0.1, 2.0, n))
        per_object.append((starts, starts + rng.uniform(0.1, 5.0, n)))
    records = data.draw(
        st.lists(st.lists(st.integers(0, 14), min_size=m, max_size=m), max_size=8),
        label="counts",
    )
    grown = np.maximum.accumulate(np.array(records, dtype=int).reshape(-1, m), axis=0)
    for counts_by_record in (records, grown.tolist()):
        assert chain_digests(per_object, counts_by_record) == _chain_reference(
            per_object, counts_by_record
        )


def test_restore_before_any_epoch(catalog, workload):
    config = _config()
    text = LiveDaemon(catalog, config).checkpoint()
    restored = LiveDaemon.restore(text)
    assert restored.horizon.epoch == -1 and restored.records == []
    assert restored.checkpoint() == text
    report = restored.run(workload)
    assert fleet_reports_equal(report.fleet, LiveDaemon(catalog, config).run(workload).fleet) is None


@pytest.mark.parametrize("folded", [False, True])
def test_restore_before_any_epoch_counts_repairs_once(catalog, workload, folded):
    # run() folds a workload's repairs in before its first epoch: a token
    # taken before that fold must fold them, one taken after must not
    config = _config()
    dirty = dict(workload)
    dirty[catalog.objects[0].name] = np.array([5.0, 5.0, math.nan, 30.0])
    daemon = LiveDaemon(catalog, config)
    if folded:
        daemon.run(dirty, until_epoch=-1)
    resumed = LiveDaemon.restore(daemon.checkpoint()).run(dirty)
    uninterrupted = LiveDaemon(catalog, config).run(dirty)
    assert resumed.fleet.repaired == uninterrupted.fleet.repaired == 2
    assert fleet_reports_equal(resumed.fleet, uninterrupted.fleet) is None


# ---------------------------------------------------------------------------
# hostile tokens
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def token(catalog, workload):
    daemon = LiveDaemon(catalog, _config())
    daemon.run(workload, until_epoch=6)
    payload = json.loads(daemon.checkpoint())
    busy = max(payload["objects"], key=lambda n: payload["objects"][n]["streams"])
    obj = payload["objects"][busy]
    assert obj["streams"] > 4 and _decode(obj["open"]["arrivals"]).size > 2
    return payload, busy


def _decode(text, dtype="<f8"):
    return np.frombuffer(base64.b64decode(text), dtype=dtype).copy()


def _encode(values, dtype="<f8"):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def _rejects(payload, match):
    with pytest.raises(ValueError, match=match):
        LiveDaemon.restore(json.dumps(payload))


def _copy(token):
    payload, busy = token
    payload = copy.deepcopy(payload)
    return payload, payload["objects"][busy]


class TestHostileTokens:
    def test_clean_token_restores(self, token):
        payload, _ = _copy(token)
        assert LiveDaemon.restore(json.dumps(payload)).horizon.epoch == 6

    @pytest.mark.parametrize(
        "path",
        [
            ("config", "fence_minutes"),
            ("epoch",),
            ("records",),
            ("records", 0, "digest"),
            ("chain_head",),
            ("objects", None, "clients"),
            ("objects", None, "committed", "starts"),
            ("objects", None, "open", "watermark"),
            ("objects", None, "planner", "seq"),
        ],
    )
    def test_missing_key(self, token, path):
        payload, _ = _copy(token)
        node = payload
        for key in path[:-1]:
            node = node[token[1] if key is None else key]
        del node[path[-1]]
        _rejects(payload, rf"{path[-1]}: missing")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            (None, "clients", "7"),
            (None, "streams", 1.5),
            (None, "repaired", -1),
            (None, "committed", []),
            (None, "max_wait_slots", None),
            ("open", "offset", True),
            ("planner", "seq", "0"),
            ("committed", "starts", 42),
        ],
    )
    def test_wrong_type(self, token, section, key, value):
        payload, obj = _copy(token)
        (obj if section is None else obj[section])[key] = value
        _rejects(payload, rf"{key}: expected")

    def test_epoch_count_past_int64(self, token):
        """A horizon/epoch ratio whose epoch count overflows is a typed
        error naming the config, not an OverflowError."""
        payload, _ = _copy(token)
        payload["config"]["horizon_minutes"] = 1e308
        payload["config"]["epoch_minutes"] = 1e-300
        _rejects(payload, r"config.*int64")

    def test_wrong_top_level_types(self, token):
        for key, value in (("records", "x"), ("epoch", {"a": 1}), ("objects", [])):
            payload, _ = _copy(token)
            payload[key] = value
            _rejects(payload, rf"{key}: expected")
        with pytest.raises(ValueError, match="not a live checkpoint"):
            LiveDaemon.restore("[1, 2]")
        with pytest.raises(ValueError):
            LiveDaemon.restore("{not json")
        with pytest.raises(ValueError, match="nested too deeply"):
            LiveDaemon.restore("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("section,key", [("committed", "starts"), ("open", "arrivals")])
    def test_truncated_array(self, token, section, key):
        payload, obj = _copy(token)
        obj[section][key] = obj[section][key][:-4]  # drops the last 3 bytes
        _rejects(payload, rf"{section}\.{key}")
        raw = base64.b64decode(obj[section][key] + "====")
        obj[section][key] = base64.b64encode(raw[:-3]).decode()  # valid base64, 5-byte tail
        _rejects(payload, rf"{section}\.{key}")

    @pytest.mark.parametrize("key", ["starts", "ends", "channels"])
    def test_non_base64_array(self, token, key):
        payload, obj = _copy(token)
        obj["committed"][key] = "@@@@" + obj["committed"][key][4:]
        _rejects(payload, rf"committed\.{key}: not base64")

    @pytest.mark.parametrize("key", ["starts", "ends", "channels"])
    def test_array_length_differs_from_counters(self, token, key):
        payload, obj = _copy(token)
        dtype = "<i8" if key == "channels" else "<f8"
        obj["committed"][key] = _encode(_decode(obj["committed"][key], dtype)[:-1], dtype)
        _rejects(payload, rf"committed\.{key}")

    def test_stream_counter_differs_from_arrays(self, token):
        payload, obj = _copy(token)
        obj["streams"] += 1
        _rejects(payload, r"committed\.starts")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("section,key,match", [
        ("committed", "starts", r"committed\.starts: non-finite"),
        ("committed", "ends", r"committed\.ends: non-finite"),
        ("open", "arrivals", r"open\.arrivals: non-finite"),
        ("planner", "free_at", r"planner: channel free times must be finite"),
    ])
    def test_non_finite_values(self, token, section, key, match, value):
        payload, obj = _copy(token)
        values = _decode(obj[section][key])
        values[len(values) // 2] = value
        obj[section][key] = _encode(values)
        _rejects(payload, match)

    @pytest.mark.parametrize("section,key", [("committed", "starts"), ("open", "arrivals")])
    def test_unsorted_values(self, token, section, key):
        payload, obj = _copy(token)
        values = _decode(obj[section][key])
        values[[1, 2]] = values[[2, 1]]
        obj[section][key] = _encode(values)
        _rejects(payload, rf"{section}\.{key}: not (sorted|strictly increasing)")

    def test_live_arrival_at_or_below_watermark(self, token):
        payload, obj = _copy(token)
        obj["open"]["watermark"] = float(_decode(obj["open"]["arrivals"])[0])
        _rejects(payload, r"open\.arrivals: live arrival .* watermark")

    def test_committed_start_nudged_one_ulp_breaks_the_chain(self, token):
        payload, obj = _copy(token)
        starts = _decode(obj["committed"]["starts"])
        k = starts.size // 2
        starts[k] = np.nextafter(starts[k], math.inf)
        obj["committed"]["starts"] = _encode(starts)
        _rejects(payload, r"records\[\d+\]\.digest: .* does not chain")

    def test_committed_end_nudged_one_ulp_breaks_the_chain(self, token):
        payload, obj = _copy(token)
        ends = _decode(obj["committed"]["ends"])
        ends[-1] = np.nextafter(ends[-1], math.inf)
        obj["committed"]["ends"] = _encode(ends)
        _rejects(payload, r"digest")

    @pytest.mark.parametrize("drop", [0, 3, -1])
    def test_shortened_record_list(self, token, drop):
        payload, _ = _copy(token)
        del payload["records"][drop]
        _rejects(payload, "records")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_epoch_differs_from_last_record(self, token, delta):
        payload, _ = _copy(token)
        payload["epoch"] += delta
        _rejects(payload, "epoch")

    def test_chain_head_mismatch(self, token):
        payload, _ = _copy(token)
        payload["chain_head"] = payload["records"][-2]["digest"]
        _rejects(payload, "chain_head")

    def test_record_counts_moved_between_objects(self, token):
        payload, _ = _copy(token)
        rec = payload["records"][-1]
        counts = rec["committed_counts"]
        src = int(np.argmax(counts))
        counts[src] -= 1
        counts[(src + 1) % len(counts)] += 1
        _rejects(payload, "committed_counts")

    @pytest.mark.parametrize("count", [2**70, 0])
    def test_record_counts_out_of_order(self, token, count):
        # a count beyond any array (or shrinking back) never reaches the hash
        payload, _ = _copy(token)
        payload["records"][-3]["committed_counts"][0] = count
        payload["records"][-4]["committed_counts"][0] = max(
            1, payload["records"][-4]["committed_counts"][0]
        )
        for rec in payload["records"]:
            rec["committed_streams"] = sum(rec["committed_counts"])
        _rejects(payload, r"records\[\d+\]\.committed_counts")

    @pytest.mark.parametrize("key", ["committed_roots", "repaired"])
    def test_last_record_totals_differ_from_counters(self, token, key):
        # neither total is hashed into the chain
        payload, _ = _copy(token)
        payload["records"][-1][key] += 1
        _rejects(payload, rf"records\[6\]\.{key}: differs from the objects' counters")

    def test_record_streams_differ_from_its_counts(self, token):
        payload, _ = _copy(token)
        payload["records"][2]["committed_streams"] += 1
        _rejects(payload, r"records\[2\]\.committed_streams")

    @pytest.mark.parametrize("key", ["seq", "last_start"])
    def test_planner_differs_from_committed_streams(self, token, key):
        payload, obj = _copy(token)
        planner = obj["planner"]
        if key == "seq":
            planner["seq"] += 1
        else:
            planner["last_start"] = float(np.nextafter(planner["last_start"], -math.inf))
        _rejects(payload, rf"planner\.{key}")

    def test_v1_schema_is_rejected_by_name(self, token):
        payload, _ = _copy(token)
        payload["schema"] = "repro.live-checkpoint.v1"
        _rejects(payload, r"repro\.live-checkpoint\.v1")
        assert CHECKPOINT_SCHEMA == "repro.live-checkpoint.v2"

    def test_planner_release_sequence_must_be_distinct(self, token):
        payload, obj = _copy(token)
        seq = _decode(obj["planner"]["release_seq"], "<i8")
        seq[:] = 0
        obj["planner"]["release_seq"] = _encode(seq, "<i8")
        _rejects(payload, "planner")

    def test_channel_id_outside_the_planner(self, token):
        payload, obj = _copy(token)
        ids = _decode(obj["committed"]["channels"], "<i8")
        ids[0] = obj["planner"]["channels"]
        obj["committed"]["channels"] = _encode(ids, "<i8")
        _rejects(payload, r"committed\.channels")

    def test_unknown_object(self, token):
        payload, obj = _copy(token)
        payload["objects"]["intruder"] = obj
        _rejects(payload, "intruder")

    def test_every_leaf_replaced_raises_only_value_error(self, token):
        """Sweep: each scalar leaf swapped for wrong-typed values either
        restores or raises ``ValueError`` — never another exception."""
        payload, _ = _copy(token)

        def leaves(node, path=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if isinstance(value, (dict, list)) and not (
                    path == ("records",) and key not in (0, len(node) - 1)
                ):
                    yield from leaves(value, path + (key,))
                elif not isinstance(value, (dict, list)):
                    yield path + (key,)

        paths = list(leaves(payload))
        assert len(paths) > 100
        for path in paths:
            for value in (None, -1, 2.5, "x", [], True, 2**70, 10**400):
                mutated = copy.deepcopy(payload)
                node = mutated
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    LiveDaemon.restore(json.dumps(mutated))
                except ValueError:
                    pass


class TestTokenBeforeEpochZero:
    """A token with no record has ingested nothing: every ledger must be
    fresh but for its repairs (accepted by
    ``test_restore_before_any_epoch_counts_repairs_once``), whatever the
    empty chain says."""

    def test_committed_streams_are_rejected(self, catalog, token):
        payload, busy = token
        fresh = json.loads(LiveDaemon(catalog, _config()).checkpoint())
        fresh["objects"][busy] = copy.deepcopy(payload["objects"][busy])
        assert fresh["epoch"] == -1 and fresh["records"] == [] and fresh["chain_head"] == ""
        _rejects(fresh, rf"objects\[{re.escape(repr(busy))}\]\.clients: .*before epoch 0")

    def test_open_window_arrivals_are_rejected(self, catalog):
        payload = json.loads(LiveDaemon(catalog, _config()).checkpoint())
        obj = payload["objects"][catalog.objects[0].name]
        obj["open"]["arrivals"] = _encode([1.0, 2.0])
        obj["last_push"] = 2.0
        _rejects(payload, r"before epoch 0")


# ---------------------------------------------------------------------------
# open windows the restored clock and fence rule out
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def epoch5_tokens(catalog, workload):
    """Per policy: a token taken after epoch 5 (ingest clock 60 min, slot
    40; fence 45 min, slot 30) and its busiest object's name."""
    tokens = {}
    for policy in LIVE_POLICIES:
        daemon = LiveDaemon(catalog, _config(policy))
        daemon.run(workload, until_epoch=5)
        payload = json.loads(daemon.checkpoint())
        busy = max(payload["objects"], key=lambda n: payload["objects"][n]["streams"])
        assert _decode(payload["objects"][busy]["open"]["arrivals"]).size
        tokens[policy] = payload, busy
    return tokens


@pytest.mark.parametrize("policy", LIVE_POLICIES)
class TestOpenWindowAgainstClock:
    def test_value_from_the_future(self, epoch5_tokens, policy):
        payload, obj = _copy(epoch5_tokens[policy])
        arrivals = np.append(_decode(obj["open"]["arrivals"]), 10_000.0)
        obj["open"]["arrivals"] = _encode(arrivals)
        obj["last_push"] = 10_000.0
        # accepted, every later slot of the title would count as served
        _rejects(payload, r"last_push: 10000\.0 lies past the ingest clock")

    def test_last_push_from_the_future(self, epoch5_tokens, policy):
        payload, obj = _copy(epoch5_tokens[policy])
        obj["open"]["arrivals"] = _encode([])
        obj["last_push"] = 10_000.0
        if "watermark" in obj["open"]:
            obj["open"]["watermark"] = 10_000.0  # an empty window's last push
        _rejects(payload, r"last_push: 10000\.0 lies past the ingest clock")

    def test_window_the_fence_already_passed(self, epoch5_tokens, policy):
        payload, obj = _copy(epoch5_tokens[policy])
        arrivals = _decode(obj["open"]["arrivals"])
        obj["open"]["arrivals"] = _encode(np.insert(arrivals, 0, 0.5))
        if "watermark" in obj["open"]:
            obj["open"]["watermark"] = None
        _rejects(payload, r"open\.arrivals: the oldest open window ends at .* before the fence")

    def test_unordered_window_at_the_float_range_warns_nothing(self, epoch5_tokens, policy):
        """Finite neighbours whose difference overflows: the order check
        compares them, so the refusal comes without a RuntimeWarning."""
        payload, obj = _copy(epoch5_tokens[policy])
        obj["open"]["arrivals"] = _encode([1.23e295, -1.7976931348623157e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _rejects(payload, r"open\.arrivals: not strictly increasing")


@st.composite
def _open_values(draw, current, bound):
    """An open window to fuzz: arbitrary floats, or the token's own window
    with values dropped and added up to ``bound`` — slot ends or not, and
    sometimes a neighbour closer than the dyadic builder resolves."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return np.asarray(draw(st.lists(st.floats(width=64), max_size=6)), dtype=np.float64)
    keep = np.asarray(draw(st.lists(st.booleans(), min_size=current.size, max_size=current.size)), dtype=bool)
    lo = float(current[0]) if current.size else 0.0
    added = np.asarray(draw(st.lists(st.floats(min_value=lo, max_value=bound), max_size=4)))
    if draw(st.booleans()):
        added = np.floor(added) + 1.0
    values = np.concatenate([current[keep], added])
    if values.size and draw(st.booleans()):
        near = values[draw(st.integers(min_value=0, max_value=values.size - 1))]
        gap = draw(st.sampled_from([0.0, 1e-13, 1e-9]))
        values = np.append(values, np.nextafter(near, np.inf) + abs(near) * gap)
    return np.unique(values)


@settings(max_examples=fuzz_examples(300), deadline=None)
@given(st.data())
def test_fuzzed_open_window_restores_exactly_or_raises(epoch5_tokens, data):
    """Random float arrays re-encoded into ``open`` and ``last_push`` (ROADMAP
    item 5's restore fuzz): a restore either raises ``ValueError`` or
    round-trips byte for byte."""
    policy = data.draw(st.sampled_from(LIVE_POLICIES))
    payload, obj = _copy(epoch5_tokens[policy])
    values = data.draw(_open_values(_decode(obj["open"]["arrivals"]), bound=42.0))
    obj["open"]["arrivals"] = _encode(values)
    newest = float(values[-1]) if values.size and np.isfinite(values[-1]) else None
    obj["last_push"] = data.draw(
        st.sampled_from([newest, newest, None]) | st.floats(allow_nan=False, allow_infinity=False)
    )
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    try:
        restored = LiveDaemon.restore(text)
    except ValueError:
        return
    assert restored.checkpoint() == text
