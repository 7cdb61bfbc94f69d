"""Chunked, memory-mapped columnar arrival store.

The out-of-core half of ``repro.scale``: per-object arrival columns live
in **one** on-disk float64 segment (``segment.bin``) described by an
offsets index (``index.json``), so a catalog workload is written once —
streamed through a bounded write buffer, never whole — and every reader
attaches the segment once and takes **zero-copy read-only views** per
object.  This is the out-of-core route for store-backed fleet runs:
instead of pickling traces, the parent ships each worker a tiny
:class:`StoreSlice` ``(root, name, offset, count)`` and the worker maps
the pages lazily.

Layout (schema ``repro.scale.store.v1``)::

    <root>/segment.bin   all columns concatenated, little-endian float64
    <root>/index.json    {"schema", "dtype", "total", "objects": [
                             {"name", "offset", "count", "crc32"}, ...]}

Invariants the format guarantees (and :meth:`ColumnarStore.verify`
re-checks, for the burn-in torn-segment contract):

* columns are contiguous: offsets start at 0 and each column begins
  where the previous ended; ``total`` equals the sum of counts;
* ``segment.bin`` is exactly ``total * 8`` bytes;
* each column carries a CRC-32 of its raw bytes, computed streaming by
  the writer — a torn/overwritten segment is detected even when the
  file length is intact.

The write buffer (``chunk_size`` elements) is an I/O granularity only:
the emitted bytes are the concatenation of the column data regardless of
chunking, so stores written with chunk sizes 1, 7, 2^k or n are
**byte-identical** (tests assert this, and that fleet results are
bit-identical across chunk sizes).

Memory model: readers ``mmap`` the segment ``ACCESS_READ`` — views cost
address space, not resident memory; pages fault in as a kernel touches
them and :meth:`ColumnarStore.release` gives them back to the OS
(``MADV_DONTNEED``, advisory) once an object is folded.  A run over a
10^7-client catalog therefore keeps at most one object's touched pages
resident per process.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import zlib
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "SCHEMA",
    "StoreError",
    "StoreSlice",
    "ColumnarWriter",
    "ColumnarStore",
    "write_store",
    "store_slices",
    "is_store",
    "attach",
    "detach",
    "read_slice",
]

SCHEMA = "repro.scale.store.v1"
DTYPE = "<f8"
ITEMSIZE = 8
SEGMENT_NAME = "segment.bin"
INDEX_NAME = "index.json"
DEFAULT_CHUNK = 1 << 20  # elements per write-buffer flush (8 MiB)


class StoreError(ValueError):
    """A store directory violates the ``repro.scale.store.v1`` contract."""


class StoreSlice(NamedTuple):
    """Address of one object's column: ``segment[offset : offset+count]``.

    This is what travels to worker processes instead of the trace itself
    — four scalars, regardless of the column's size.
    """

    root: str
    name: str
    offset: int
    count: int


def _index_path(root) -> str:
    return os.path.join(os.fspath(root), INDEX_NAME)


def _segment_path(root) -> str:
    return os.path.join(os.fspath(root), SEGMENT_NAME)


def is_store(root) -> bool:
    """Whether ``root`` looks like a columnar store (has an index file)."""
    return os.path.isfile(_index_path(root))


class ColumnarWriter:
    """Streaming store writer with a bounded (``chunk_size``) buffer.

    Context-managed: the index is written (atomically, tmp + rename) only
    on clean ``close()``; an exception inside the ``with`` block aborts —
    the partial segment stays index-less, so readers refuse it as a store
    rather than trusting torn data.  Columns may be appended whole
    (:meth:`add`) or streamed in pieces (:meth:`add_chunks`) — a producer
    generating 10^7 arrivals never materialises the column either.
    """

    def __init__(self, root, chunk_size: int = DEFAULT_CHUNK):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.root = os.fspath(root)
        self.chunk_size = int(chunk_size)
        os.makedirs(self.root, exist_ok=True)
        self._seg = open(_segment_path(self.root), "wb")
        self._entries: List[dict] = []
        self._names: set = set()
        self._offset = 0
        self._closed = False

    # -- column append ------------------------------------------------------

    def add(self, name: str, values) -> StoreSlice:
        """Append one whole column (any float array-like)."""
        return self.add_chunks(name, (values,))

    def add_chunks(self, name: str, chunks: Iterable) -> StoreSlice:
        """Append one column from an iterable of array-like pieces."""
        if self._closed:
            raise StoreError("writer is closed")
        if name in self._names:
            raise StoreError(f"duplicate column name {name!r}")
        start = self._offset
        crc = 0
        for piece in chunks:
            arr = np.ascontiguousarray(piece, dtype=np.float64)
            if arr.ndim != 1:
                arr = arr.reshape(-1)
            for lo in range(0, arr.size, self.chunk_size):
                raw = arr[lo : lo + self.chunk_size].astype(
                    DTYPE, copy=False
                ).tobytes()
                self._seg.write(raw)
                crc = zlib.crc32(raw, crc)
                self._offset += min(self.chunk_size, arr.size - lo)
        entry = {
            "name": name,
            "offset": start,
            "count": self._offset - start,
            "crc32": crc,
        }
        self._entries.append(entry)
        self._names.add(name)
        return StoreSlice(self.root, name, start, entry["count"])

    # -- lifecycle ----------------------------------------------------------

    def slices(self) -> Dict[str, StoreSlice]:
        return {
            e["name"]: StoreSlice(self.root, e["name"], e["offset"], e["count"])
            for e in self._entries
        }

    def close(self) -> None:
        """Flush the segment and publish the index (atomic rename)."""
        if self._closed:
            return
        self._seg.flush()
        os.fsync(self._seg.fileno())
        self._seg.close()
        doc = {
            "schema": SCHEMA,
            "dtype": DTYPE,
            "total": self._offset,
            "objects": self._entries,
        }
        tmp = _index_path(self.root) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, _index_path(self.root))
        self._closed = True

    def abort(self) -> None:
        """Close the segment without publishing an index (torn write)."""
        if not self._closed:
            self._seg.close()
            self._closed = True

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_store(
    root, items: Iterable[Tuple[str, object]], chunk_size: int = DEFAULT_CHUNK
) -> Dict[str, StoreSlice]:
    """Write ``(name, values)`` pairs into a store at ``root``; return slices."""
    with ColumnarWriter(root, chunk_size=chunk_size) as writer:
        for name, values in items:
            writer.add(name, values)
    return writer.slices()


def _index_int(value, what: str, limit: Optional[int] = None) -> int:
    """An index field: a JSON integer >= 0 (not a bool), below ``limit``."""
    if type(value) is not int or value < 0 or (limit is not None and value >= limit):
        got = repr(value) if isinstance(value, (int, float)) else type(value).__name__
        raise StoreError(f"{what} must be an integer in [0, {limit or 'inf'}), got {got}")
    return value


def _load_index(root) -> dict:
    path = _index_path(root)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise StoreError(f"not a columnar store (no {INDEX_NAME}): {root}")
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an integer past the parser's
        # digit limit; RecursionError: nesting too deep to parse
        raise StoreError(f"unreadable store index {path}: {exc}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        raise StoreError(
            f"store index {path} has schema {got!r}, expected {SCHEMA!r}"
        )
    if doc.get("dtype") != DTYPE:
        raise StoreError(f"store dtype {doc.get('dtype')!r} != {DTYPE!r}")
    try:
        objects = doc["objects"]
        if not isinstance(objects, list):
            raise StoreError(f"store index objects must be a list, got {type(objects).__name__}")
        total = _index_int(doc["total"], "index total")
        offset = 0
        for e in objects:
            name = e["name"]
            if not isinstance(name, str):
                raise StoreError(f"non-string column name of type {type(name).__name__}")
            if _index_int(e["offset"], f"column {name!r} offset") != offset:
                raise StoreError(
                    f"column {name!r} not contiguous at offset {offset}"
                )
            _index_int(e["crc32"], f"column {name!r} crc32", 1 << 32)
            offset += _index_int(e["count"], f"column {name!r} count")
        if offset != total:
            raise StoreError(
                f"index total {total} != sum of column counts {offset}"
            )
    except (KeyError, TypeError) as exc:
        raise StoreError(f"malformed store index {path}: {exc}")
    names = [e["name"] for e in objects]
    if len(set(names)) != len(names):
        raise StoreError("duplicate column names in store index")
    return doc


def store_slices(root) -> Dict[str, StoreSlice]:
    """Column addresses of an existing store, from the index alone.

    No segment mapping — the parent of a sharded run uses this to build
    per-worker :class:`StoreSlice` arguments without touching the data.
    """
    root = os.fspath(root)
    doc = _load_index(root)
    return {
        e["name"]: StoreSlice(root, e["name"], int(e["offset"]), int(e["count"]))
        for e in doc["objects"]
    }


class ColumnarStore:
    """Read-only attachment to a store: one ``mmap``, zero-copy views."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self._doc = _load_index(self.root)
        self.total = int(self._doc["total"])
        self._slices = {
            e["name"]: StoreSlice(
                self.root, e["name"], int(e["offset"]), int(e["count"])
            )
            for e in self._doc["objects"]
        }
        self._crc = {e["name"]: int(e["crc32"]) for e in self._doc["objects"]}
        seg = _segment_path(self.root)
        try:
            size = os.path.getsize(seg)
        except OSError as exc:
            raise StoreError(f"missing store segment {seg}: {exc}")
        if size != self.total * ITEMSIZE:
            raise StoreError(
                f"segment {seg} is {size} bytes, index says "
                f"{self.total * ITEMSIZE} (torn write?)"
            )
        self._mm: Optional[mmap.mmap] = None
        self._flat = np.empty(0, dtype=np.float64)
        if self.total:
            with open(seg, "rb") as fh:
                self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            flat = np.frombuffer(self._mm, dtype=DTYPE, count=self.total)
            flat.flags.writeable = False
            self._flat = flat

    # -- queries ------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return list(self._slices)

    def slice(self, name: str) -> StoreSlice:
        try:
            return self._slices[name]
        except KeyError:
            raise StoreError(f"no column {name!r} in store {self.root}")

    def column(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one column."""
        return self.view(self.slice(name))

    def view(self, sl: StoreSlice) -> np.ndarray:
        """Zero-copy read-only view at an explicit slice address."""
        if sl.offset < 0 or sl.offset + sl.count > self.total:
            raise StoreError(f"slice {sl} outside segment of {self.total}")
        return self._flat[sl.offset : sl.offset + sl.count]

    def chunks(
        self, name: str, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[np.ndarray]:
        """Iterate one column in bounded views (for streaming consumers)."""
        sl = self.slice(name)
        for lo in range(0, sl.count, chunk_size):
            yield self._flat[
                sl.offset + lo : sl.offset + min(lo + chunk_size, sl.count)
            ]

    # -- memory give-back ---------------------------------------------------

    def release(self, name: str) -> None:
        self.release_slice(self.slice(name))

    def release_slice(self, sl: StoreSlice) -> None:
        """Advise the kernel the column's pages are no longer needed.

        Advisory: page-aligned ``MADV_DONTNEED`` on the column's byte
        range (neighbouring columns sharing an edge page just fault back
        in — the mapping is read-only and file-backed, so nothing is
        lost).  A no-op where madvise is unavailable.
        """
        if self._mm is None or sl.count <= 0:
            return
        byte_start = sl.offset * ITEMSIZE
        byte_stop = byte_start + sl.count * ITEMSIZE
        page = mmap.PAGESIZE
        start = (byte_start // page) * page
        if not hasattr(self._mm, "madvise") or not hasattr(mmap, "MADV_DONTNEED"):
            return  # pragma: no cover - non-Linux fallback
        with contextlib.suppress(ValueError, OSError):
            self._mm.madvise(mmap.MADV_DONTNEED, start, byte_stop - start)

    # -- integrity ----------------------------------------------------------

    def verify(self, deep: bool = True) -> None:
        """Re-check the store contract; raise :class:`StoreError` on breach.

        Construction already enforced the index schema, contiguity, and
        the exact segment length.  ``deep`` additionally re-hashes every
        column against its recorded CRC-32 in bounded chunks — this is
        what catches a segment whose *content* was torn or overwritten
        while the length stayed right (the burn-in ``TornSegment``
        injector's hardest mode).
        """
        seg = _segment_path(self.root)
        size = os.path.getsize(seg)
        if size != self.total * ITEMSIZE:
            raise StoreError(
                f"segment {seg} is {size} bytes, index says "
                f"{self.total * ITEMSIZE} (torn write?)"
            )
        if not deep:
            return
        for name, sl in self._slices.items():
            crc = 0
            for chunk in self.chunks(name):
                crc = zlib.crc32(chunk.tobytes(), crc)
            if crc != self._crc[name]:
                raise StoreError(
                    f"column {name!r} fails its checksum "
                    f"({crc} != {self._crc[name]}): segment corrupted"
                )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._flat = np.empty(0, dtype=np.float64)
        if self._mm is not None:
            # A caller may still hold column views (numpy buffers exported
            # from the mmap); closing would raise BufferError.  The mapping
            # is read-only and file-backed — letting it die with the last
            # view is safe, so a refused close is not an error.
            with contextlib.suppress(BufferError):
                self._mm.close()
            self._mm = None

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# per-process attach cache (workers attach once, then take views)
# ---------------------------------------------------------------------------

_ATTACHED: Dict[str, ColumnarStore] = {}


def attach(root) -> ColumnarStore:
    """Process-wide cached attachment: the first call maps the segment,
    later calls (every further object handed to this worker) are a dict
    hit.  Safe across ``fork`` — the mapping is inherited read-only."""
    root = os.fspath(root)
    store = _ATTACHED.get(root)
    if store is None:
        store = ColumnarStore(root)
        _ATTACHED[root] = store
    return store


def detach(root=None) -> None:
    """Drop cached attachments (one root, or all when ``root`` is None)."""
    if root is None:
        for store in _ATTACHED.values():
            store.close()
        _ATTACHED.clear()
        return
    store = _ATTACHED.pop(os.fspath(root), None)
    if store is not None:
        store.close()


def read_slice(sl: StoreSlice, copy: bool = False) -> np.ndarray:
    """One column by address, through the attach cache (worker entry)."""
    view = attach(sl.root).view(sl)
    return view.copy() if copy else view
