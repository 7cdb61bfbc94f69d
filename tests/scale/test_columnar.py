"""The out-of-core columnar arrival store: layout, atomicity, integrity.

Pins the ``repro.scale.store.v1`` contract that the rest of the PR
builds on: byte-identical files regardless of writer chunking, an index
published atomically (an aborted writer leaves no store), zero-copy
read-only mmap views, a per-process attach cache, and a ``verify`` that
catches every corruption mode :class:`repro.burnin.faults.TornSegment`
can inflict.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.burnin import TornSegment, check_columnar_store
from repro.scale import columnar
from repro.scale.columnar import (
    ColumnarStore,
    ColumnarWriter,
    StoreError,
    StoreSlice,
    is_store,
    read_slice,
    store_slices,
    write_store,
)
from tests.conftest import fuzz_examples, hostile_json_text, json_values


def _columns(seed: int, names=("alpha", "beta", "gamma"), sizes=(513, 0, 2048)):
    rng = np.random.default_rng(seed)
    return {
        name: np.sort(rng.uniform(0.0, 120.0, size=size))
        for name, size in zip(names, sizes)
    }


def _fingerprint(root) -> tuple:
    root = Path(root)
    seg = hashlib.sha256((root / "segment.bin").read_bytes()).hexdigest()
    idx = hashlib.sha256((root / "index.json").read_bytes()).hexdigest()
    return seg, idx


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        cols = _columns(0)
        write_store(tmp_path, cols.items())
        assert is_store(tmp_path)
        with ColumnarStore(tmp_path) as store:
            assert store.names == list(cols)
            for name, data in cols.items():
                view = store.column(name)
                assert view.dtype == np.float64
                assert not view.flags.writeable
                assert np.array_equal(view, data)

    def test_empty_column_and_empty_store(self, tmp_path):
        write_store(tmp_path / "a", [("only", np.empty(0))])
        with ColumnarStore(tmp_path / "a") as store:
            assert store.column("only").size == 0
        write_store(tmp_path / "b", [])
        with ColumnarStore(tmp_path / "b") as store:
            assert store.names == []

    def test_unknown_column_raises(self, tmp_path):
        write_store(tmp_path, [("x", np.arange(4.0))])
        with ColumnarStore(tmp_path) as store:
            with pytest.raises(StoreError, match="no column"):
                store.column("missing")

    def test_chunks_concatenate_to_column(self, tmp_path):
        cols = _columns(1)
        write_store(tmp_path, cols.items())
        with ColumnarStore(tmp_path) as store:
            for name, data in cols.items():
                parts = [chunk.copy() for chunk in store.chunks(name, 100)]
                joined = (
                    np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
                )
                assert np.array_equal(joined, data)

    def test_release_preserves_data(self, tmp_path):
        cols = _columns(2)
        write_store(tmp_path, cols.items())
        with ColumnarStore(tmp_path) as store:
            before = store.column("gamma").copy()
            store.release("gamma")  # madvise is advisory: pages reload clean
            assert np.array_equal(store.column("gamma"), before)


class TestWriterContract:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_byte_identical_across_chunk_sizes(self, tmp_path_factory, seed):
        cols = _columns(seed)
        n = max(c.size for c in cols.values())
        prints = set()
        for chunk in (1, 7, 64, 1 << 20, max(1, n)):
            root = tmp_path_factory.mktemp("store")
            write_store(root, cols.items(), chunk_size=chunk)
            prints.add(_fingerprint(root))
        assert len(prints) == 1  # chunk_size is I/O granularity only

    def test_slices_match_store_slices(self, tmp_path):
        cols = _columns(3)
        with ColumnarWriter(tmp_path) as writer:
            for name, data in cols.items():
                writer.add(name, data)
            slices = writer.slices()
        assert slices == store_slices(tmp_path)
        for sl in slices.values():
            assert isinstance(sl, StoreSlice)
            assert np.array_equal(read_slice(sl), cols[sl.name])
        columnar.detach(tmp_path)

    def test_duplicate_name_rejected(self, tmp_path):
        with ColumnarWriter(tmp_path) as writer:
            writer.add("x", np.arange(3.0))
            with pytest.raises(StoreError, match="duplicate"):
                writer.add("x", np.arange(3.0))
            writer.add("y", np.arange(2.0))

    def test_abort_publishes_nothing(self, tmp_path):
        root = tmp_path / "aborted"
        with pytest.raises(RuntimeError, match="mid-write"):
            with ColumnarWriter(root) as writer:
                writer.add("x", np.arange(100.0))
                raise RuntimeError("mid-write")
        assert not is_store(root)
        assert not (root / "index.json").exists()
        with pytest.raises(StoreError):
            ColumnarStore(root)


class TestAttachCache:
    def test_attach_is_cached_and_detach_clears(self, tmp_path):
        write_store(tmp_path, [("x", np.arange(8.0))])
        columnar.detach()  # isolate from other tests
        first = columnar.attach(tmp_path)
        assert columnar.attach(tmp_path) is first
        columnar.detach(tmp_path)
        second = columnar.attach(tmp_path)
        assert second is not first
        columnar.detach()
        assert not columnar._ATTACHED

    def test_read_slice_copy_is_writable(self, tmp_path):
        write_store(tmp_path, [("x", np.arange(8.0))])
        (sl,) = store_slices(tmp_path).values()
        view = read_slice(sl)
        assert not view.flags.writeable
        copy = read_slice(sl, copy=True)
        copy += 1.0  # must not raise
        assert np.array_equal(read_slice(sl), np.arange(8.0))
        columnar.detach()


def _set_index(root, **fields) -> None:
    """Rewrite a store's ``index.json``: ``fields`` go on the top level,
    ``object_<field>`` keys on its first column entry."""
    index = Path(root) / "index.json"
    doc = json.loads(index.read_text())
    for key, value in fields.items():
        if key.startswith("object_"):
            doc["objects"][0][key[len("object_"):]] = value
        else:
            doc[key] = value
    index.write_text(json.dumps(doc))


#: index fields that crashed the readers (``OverflowError`` from
#: ``int(inf)``) or were accepted silently (``int()`` truncation, a bool,
#: a crc32 past 32 bits, objects that are not a list); every one must be a
#: StoreError
MALFORMED_FIELDS = {
    "total-inf": {"total": float("inf")},
    "offset-inf": {"object_offset": float("inf")},
    "count-inf": {"object_count": float("inf")},
    "crc32-inf": {"object_crc32": float("inf")},
    "total-string": {"total": "3"},
    "total-float": {"total": 3.9},
    "offset-bool": {"object_offset": False},
    "crc32-past-32-bits": {"object_crc32": 2**32},
    "objects-not-a-list": {"objects": {}, "total": 0},
}


class TestIndexValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
    def test_malformed_field_is_a_store_error(self, tmp_path, case):
        write_store(tmp_path, [("title-001", np.arange(3.0))])
        _set_index(tmp_path, **MALFORMED_FIELDS[case])
        with pytest.raises(StoreError):
            store_slices(tmp_path)
        with pytest.raises(StoreError):
            ColumnarStore(tmp_path)
        assert not check_columnar_store(tmp_path).ok

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"total": %s}' % ("9" * 5000)],
        ids=["deep-nesting", "5000-digit-int"],
    )
    def test_parser_failure_is_a_store_error(self, tmp_path, text):
        write_store(tmp_path, [("title-001", np.arange(3.0))])
        (tmp_path / "index.json").write_text(text)
        with pytest.raises(StoreError, match="unreadable"):
            store_slices(tmp_path)
        with pytest.raises(StoreError, match="unreadable"):
            ColumnarStore(tmp_path)
        assert not check_columnar_store(tmp_path).ok

    def test_segment_size_mismatch(self, tmp_path):
        write_store(tmp_path, [("x", np.arange(16.0))])
        with (tmp_path / "segment.bin").open("ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(StoreError, match="torn write"):
            ColumnarStore(tmp_path)

    def test_missing_store_dir(self, tmp_path):
        assert not is_store(tmp_path / "nope")
        with pytest.raises(StoreError):
            ColumnarStore(tmp_path / "nope")

    def test_verify_deep_catches_bit_rot(self, tmp_path):
        write_store(tmp_path, [("x", np.arange(4096.0))])
        seg = tmp_path / "segment.bin"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        seg.write_bytes(bytes(raw))
        with ColumnarStore(tmp_path) as store:
            with pytest.raises(StoreError, match="checksum"):
                store.verify(deep=True)


class TestTornSegmentContract:
    """Every TornSegment mode must make check_columnar_store report a
    violation — and none may crash the checker."""

    def test_clean_store_verifies(self, tmp_path):
        cols = _columns(7)
        write_store(tmp_path, cols.items())
        report = check_columnar_store(tmp_path, expected=cols)
        assert report.ok
        assert {o.name for o in report.outcomes} >= {
            "store.readable",
            "store.checksums",
            "store.content",
        }

    @pytest.mark.parametrize("mode", TornSegment.MODES)
    def test_each_mode_detected(self, tmp_path, mode):
        write_store(tmp_path, _columns(8).items())
        injector = TornSegment(tmp_path, modes=(mode,))
        assert injector() == mode
        report = check_columnar_store(tmp_path)  # must not raise
        assert not report.ok
        assert any(not o.ok for o in report.outcomes)

    def test_modes_cycle(self, tmp_path):
        write_store(tmp_path, _columns(9).items())
        injector = TornSegment(tmp_path)
        seen = [injector() for _ in range(len(TornSegment.MODES) + 2)]
        assert tuple(seen[: len(TornSegment.MODES)]) == TornSegment.MODES
        assert seen[len(TornSegment.MODES)] == TornSegment.MODES[0]

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corruption"):
            TornSegment(tmp_path, modes=("shred",))

    def test_wrong_schema_message_names_schema(self, tmp_path):
        write_store(tmp_path, _columns(10).items())
        TornSegment(tmp_path, modes=("wrong-schema",))()
        doc = json.loads((tmp_path / "index.json").read_text())
        assert doc["schema"] == "bogus.v0"
        with pytest.raises(StoreError, match="schema"):
            ColumnarStore(tmp_path)


# ---------------------------------------------------------------------------
# index.json fuzz: a loaded index tiles the segment, or it is a StoreError
# ---------------------------------------------------------------------------

#: numbers an index field might hold by mistake, as JSON can spell them
_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(),
    st.just(2**32),
    st.floats(),
    st.booleans(),
    st.text(alphabet="0123456789-.e", max_size=6),
)


_HOSTILE = hostile_json_text(
    '{"schema": "' + columnar.SCHEMA + '", "dtype": "<f8", "total": %s, "objects": []}'
)


@st.composite
def _mutated_index(draw, doc) -> str:
    """The true index with top-level fields and column-entry fields kept,
    dropped or replaced, entries dropped, duplicated or reordered, and
    its text possibly torn."""
    doc = json.loads(json.dumps(doc))
    objects = doc["objects"]
    for entry in objects:
        for field in ("name", "offset", "count", "crc32"):
            op = draw(st.sampled_from(["keep"] * 6 + ["drop", "number", "json"]))
            if op == "drop":
                del entry[field]
            elif op != "keep":
                entry[field] = draw(_NUMBERS if op == "number" else json_values)
    op = draw(st.sampled_from(["keep", "keep", "drop", "duplicate", "reverse"]))
    if op == "drop":
        del objects[draw(st.integers(0, len(objects) - 1))]
    elif op == "duplicate":
        objects.append(draw(st.sampled_from(objects)))
    elif op == "reverse":
        objects.reverse()
    for field in ("schema", "dtype", "total", "objects"):
        op = draw(st.sampled_from(["keep", "keep", "keep", "drop", "number", "json"]))
        if op == "drop":
            del doc[field]
        elif op != "keep":
            doc[field] = draw(_NUMBERS if op == "number" else json_values)
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text


def _assert_tiles(slices, total):
    """Slices in index order cover ``[0, total)`` exactly, end to end."""
    offset = 0
    for sl in slices:
        assert type(sl.offset) is int and type(sl.count) is int
        assert sl.offset == offset and sl.count >= 0
        offset += sl.count
    assert offset == total


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory):
    """A three-column store (one column empty) and its true index."""
    root = tmp_path_factory.mktemp("index-fuzz")
    write_store(root, _columns(11, sizes=(5, 0, 9)).items())
    return root, json.loads((root / "index.json").read_text())


class TestIndexFuzz:
    """Contract: ``store_slices`` and ``ColumnarStore`` load slices that
    tile ``[0, total)`` exactly, or raise ``StoreError``; and
    ``check_columnar_store`` never raises."""

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(data=st.data())
    def test_loads_a_tiling_or_raises_store_error(self, fuzz_store, data):
        root, doc = fuzz_store
        text = data.draw(
            st.one_of(
                st.text(),
                json_values.map(json.dumps),
                _HOSTILE,
                _mutated_index(doc),
            )
        )
        (root / "index.json").write_text(text)
        try:
            slices = store_slices(root)
        except StoreError:
            slices = None
        else:
            _assert_tiles(slices.values(), json.loads(text)["total"])
        try:
            store = ColumnarStore(root)
        except StoreError:
            store = None  # an index store_slices accepts may still not fit the segment
        else:
            with store:
                assert slices == {sl.name: sl for sl in map(store.slice, store.names)}
                _assert_tiles(slices.values(), store.total)
                assert store.total == doc["total"]  # the segment's length
        report = check_columnar_store(root)  # must not raise
        assert store is not None or not report.ok


@pytest.fixture(scope="module")
def segment_store(tmp_path_factory):
    """A three-column store (one column empty) and its segment's bytes."""
    root = tmp_path_factory.mktemp("segment-fuzz")
    write_store(root, _columns(11, sizes=(5, 0, 9)).items())
    return root, (root / "segment.bin").read_bytes()


@st.composite
def _mutated_segment(draw, raw: bytes):
    """``(bytes, length_changed)``: a burst of up to 4 changed bytes (the
    span CRC-32 always detects), a truncation or an extension."""
    op = draw(st.sampled_from(["burst", "truncate", "extend"]))
    if op == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))], True
    if op == "extend":
        return raw + draw(st.binary(min_size=1, max_size=64)), True
    at = draw(st.integers(0, len(raw) - 1))
    masks = draw(st.lists(st.integers(0, 255), min_size=0, max_size=3))
    masks = [draw(st.integers(1, 255))] + masks[: len(raw) - at - 1]
    out = bytearray(raw)
    for k, mask in enumerate(masks):
        out[at + k] ^= mask
    return bytes(out), False


class TestSegmentFuzz:
    """Contract: a changed ``segment.bin`` fails ``check_columnar_store``
    without raising, and one of the wrong length does not open."""

    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(data=st.data())
    def test_fails_the_check_or_does_not_open(self, segment_store, data):
        root, raw = segment_store
        segment, length_changed = data.draw(_mutated_segment(raw))
        (root / "segment.bin").write_bytes(segment)
        assert not check_columnar_store(root).ok
        if length_changed:
            with pytest.raises(StoreError):
                ColumnarStore(root)
