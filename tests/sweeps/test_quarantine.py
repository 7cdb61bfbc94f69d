"""SweepCache corruption handling: quarantine, recount, recompute."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweeps import ARTIFACT_SCHEMA, Axis, SweepCache, SweepSpec, run_sweep
from repro.sweeps.evaluators import merge_cost_table_point
from tests.conftest import fuzz_examples


def _spec():
    return SweepSpec(
        name="quarantine-test",
        evaluator=merge_cost_table_point,
        axes=[Axis("n", (1, 2, 3))],
        metrics=("closed", "via_dp"),
    )


def _artifacts(cache: SweepCache):
    return [
        p
        for p in cache.root.rglob("*.json")
        if p.parent != cache.quarantine_dir
    ]


CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "not-json": lambda text: "{definitely not json",
    "wrong-schema": lambda text: json.dumps(
        {"schema": "bogus.v9", "metrics": {"x": 1}}
    ),
    "non-dict": lambda text: json.dumps([1, 2, 3]),
    "non-scalar-metric": lambda text: json.dumps(
        {"schema": ARTIFACT_SCHEMA, "metrics": {"x": [1, 2]}}
    ),
    "wrong-key": lambda text: json.dumps(
        {"schema": ARTIFACT_SCHEMA, "key": "f" * 64, "metrics": {"x": 1}}
    ),
    # the parser's own limits: recursion depth and integer digits
    "deep-array": lambda text: "[" * 100_000,
    "deep-object": lambda text: '{"a":' * 50_000,
    "huge-int": lambda text: (
        '{"schema": "%s", "metrics": {"closed": %s, "via_dp": 1}}'
        % (ARTIFACT_SCHEMA, "9" * 5000)
    ),
    # schema-valid, under the right key, but one metric short
    "missing-metric": lambda text: _without_metric(text, "closed"),
}


def _without_metric(text: str, name: str) -> str:
    payload = json.loads(text)
    del payload["metrics"][name]
    return json.dumps(payload)


class TestQuarantine:
    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_corrupt_artifact_quarantined_and_recomputed(self, tmp_path, mode):
        cache = SweepCache(tmp_path)
        warm = run_sweep(_spec(), cache=cache)
        victim = _artifacts(cache)[0]
        victim.write_text(CORRUPTIONS[mode](victim.read_text()))
        res = run_sweep(_spec(), cache=cache)
        assert cache.quarantined == 1
        assert res.evaluated == 1 and res.cache_hits == 2
        assert res.rows() == warm.rows()
        # the bad artifact is preserved for post-mortem, out of the path
        assert len(list(cache.quarantine_dir.glob("*.json"))) == 1

    def test_binary_garbage_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        victim = _artifacts(cache)[0]
        victim.write_bytes(b"\x00\xff\xfe binary trash")
        res = run_sweep(_spec(), cache=cache)
        assert cache.quarantined == 1 and res.evaluated == 1

    def test_quarantined_artifacts_not_counted_live(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        assert len(cache) == 3
        victim = _artifacts(cache)[0]
        victim.write_text("{torn")
        run_sweep(_spec(), cache=cache)
        # recomputed artifact replaced the torn one; quarantine not counted
        assert len(cache) == 3
        assert cache.quarantined == 1

    def test_clear_removes_quarantine_too(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        _artifacts(cache)[0].write_text("{torn")
        run_sweep(_spec(), cache=cache)
        removed = cache.clear()
        assert removed == 4  # 3 live + 1 quarantined
        assert len(cache) == 0

    def test_missing_artifact_is_plain_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("ab" * 32) is None
        assert cache.misses == 1 and cache.quarantined == 0

    def test_legacy_artifact_without_key_still_hits(self, tmp_path):
        """Artifacts written before the ``key`` field existed must keep
        hitting (schema compatibility)."""
        cache = SweepCache(tmp_path)
        key = "cd" * 32
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema": ARTIFACT_SCHEMA, "metrics": {"x": 1}})
        )
        assert cache.get(key) == {"x": 1}
        assert cache.hits == 1 and cache.quarantined == 0


# ---------------------------------------------------------------------------
# hypothesis fuzz over artifact text and JSON shapes
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=10,
)
_NON_SCALARS = st.one_of(
    st.lists(_JSON, max_size=3),
    st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
)


@st.composite
def _hostile_text(draw) -> str:
    """Text at the parser's limits: deep nesting or a huge integer."""
    depth = draw(st.integers(min_value=1, max_value=100_000))
    kind = draw(st.sampled_from(["array", "object", "int"]))
    if kind == "array":
        return "[" * depth + "]" * draw(st.integers(min_value=0, max_value=depth))
    if kind == "object":
        return '{"a":' * depth + "1" + "}" * draw(st.integers(min_value=0, max_value=depth))
    digits = draw(st.integers(min_value=4000, max_value=6000))
    return '{"schema": "%s", "metrics": {"closed": %s}}' % (ARTIFACT_SCHEMA, "7" * digits)


@st.composite
def _mutated_artifact(draw, payload) -> str:
    """The true artifact with its fields kept, dropped or replaced, its
    metrics thinned, padded or spoiled, and its text possibly torn.
    Kept metric values stay the true ones, so a hit is a correct hit."""
    doc = dict(payload)
    for field in ("schema", "key"):
        op = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if op == "drop":
            del doc[field]
        elif op == "replace":
            doc[field] = draw(_JSON)
    metrics = dict(payload["metrics"])
    op = draw(st.sampled_from(["keep", "thin", "pad", "spoil", "replace"]))
    if op == "thin":
        for name in draw(st.sets(st.sampled_from(sorted(metrics)), min_size=1)):
            del metrics[name]
    elif op == "pad":
        extra = draw(st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3))
        metrics = {**extra, **metrics}
    elif op == "spoil":
        metrics[draw(st.sampled_from(sorted(metrics)))] = draw(_NON_SCALARS)
    doc["metrics"] = metrics if op != "replace" else draw(_JSON)
    doc.update(draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=2)))
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """A warm cache of every point of ``_spec()``, its cold rows, and the
    first point's key and artifact."""
    root = tmp_path_factory.mktemp("artifact-fuzz")
    spec = _spec()
    cold = run_sweep(spec, cache=SweepCache(root))
    key = spec.point_key(spec.points()[0])
    payload = json.loads(SweepCache(root).path(key).read_text())
    return root, key, payload, cold.rows()


class TestArtifactFuzz:
    """Contract: ``get`` returns a dict holding every expected metric, or
    None with the file quarantined; a warm ``run_sweep`` then gives the
    cold run's rows."""

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(data=st.data())
    def test_hit_with_every_metric_or_quarantined(self, primed, data):
        root, key, payload, cold_rows = primed
        spec = _spec()
        text = data.draw(
            st.one_of(
                st.text(),
                _JSON.map(json.dumps),
                _hostile_text(),
                _mutated_artifact(payload),
            )
        )
        cache = SweepCache(root)
        path = cache.path(key)
        path.write_text(text)
        got = cache.get(key, spec.metrics)
        if got is None:
            assert not path.exists()
            assert (cache.quarantined, cache.misses, cache.hits) == (1, 1, 0)
        else:
            assert cache.hits == 1 and cache.quarantined == 0
            assert {m: got[m] for m in spec.metrics} == payload["metrics"]

        path.write_text(text)
        cache = SweepCache(root)
        warm = run_sweep(spec, cache=cache)
        assert warm.rows() == cold_rows
        assert warm.evaluated == cache.quarantined == (0 if got else 1)
