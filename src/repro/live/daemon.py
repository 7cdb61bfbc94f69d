"""The live serving daemon: epoch loop, committed chunks, digest chain, resume token.

:class:`LiveDaemon` turns the batch fleet pipeline inside out.  Offline,
:func:`repro.fleet.runner.run_fleet` sees every arrival up front,
sanitizes once, builds each object's merge forest whole, and folds a
:class:`~repro.fleet.runner.FleetReport`.  The daemon ingests the same
arrivals **epoch by epoch**, holds every object's open window in one
ragged :class:`~repro.fastpath.incremental.IncrementalFlatForest`, commits
streams as the fence passes their merge windows, building each tree once,
at commit, emits channel assignments through
:class:`~repro.live.schedule.ChannelPlanner`, and evicts committed trees
from live memory — yet its cumulative report is **bit-identical** to the
offline oracle on the same trace: same per-object ``starts``/``ends``
arrays, counters, bandwidth and startup metrics (``fleet_reports_equal`` returns None;
``tests/live/test_daemon.py`` and the burn-in live episodes assert it).

Why bit-identical is achievable at all: for every live-servable policy
(:data:`~repro.live.horizon.LIVE_POLICIES`) the realised forest is a pure
function of the arrival prefix, slot bucketing is exact in slot units
(``floor(t) + 1`` reproduces the event loop's searchsorted against float
slot-end times), tree structure depends only on a tree's own members, and
every per-stream quantity (Lemma 1 lengths via ``z``, minute-scale
``starts``/``ends``) is evaluated with the same scalar expressions the
batch kernel uses.  The fold order (catalog order, arrival order within
an object) matches, so even ``float(np.sum(...))`` reductions agree to
the last bit.

Each epoch is one ragged pass over the whole catalog: the titles'
arrivals laid end to end, one ``sanitize_times``, one bucketing pass,
one ``push_batch`` and one ``evict_committable``, so an epoch costs
O(epoch + open window), never O(history) or O(titles) numpy calls.  The
commit side is one pass too: the catalog's counters are arrays, one
:meth:`~repro.live.schedule.ChannelPlanner.assign` call gives every
stream the epoch commits its channel, the epoch keeps its committed
``starts``/``ends``/channel ids as one ragged chunk, and its record
hashes that chunk with one :func:`live_digest` call, touching only the
titles that committed.  :meth:`LiveDaemon.report` and
:meth:`LiveDaemon.checkpoint` scatter the chunks into per-title arrays,
each value copied once.

Digest chain.  Each epoch record's digest links the previous record's
digest, the per-object counts of streams committed since that record,
and :func:`live_digest` of exactly those streams::

    digest_k = H(digest_{k-1} || new counts_k || live_digest(new streams_k))

(``digest_{-1}`` is the empty string).  A record costs O(new commits),
never O(history), and :func:`chain_digests` re-derives every digest from
the final arrays in one pass — ``burnin.contracts.check_live_report``
uses it to prove that no committed stream changed, vanished or moved
between objects after it was emitted.

Resume token (``repro.live-checkpoint.v2``): compact JSON holding the
config, the catalog, the last ingested epoch, every record (the chain
head is the last record's digest) and, per object, its counters,
the committed ``starts``/``ends``/channel ids as base64 little-endian
arrays, the open window (live forest arrivals with id offset and
watermark, or the pending roots of root-only policies) and its state in
the channel planner (the title's free heap and counters).  :meth:`LiveDaemon.restore` validates every field —
a damaged or hostile token raises ``ValueError`` naming the field —
cross-checks the counters, the planner and the last record's totals
against the carried intervals, checks those against the record chain
and the open windows against the restored clock and fence, restores the
open windows directly (building them once, with one ragged
``dyadic_flat_forest`` call, so a window the builder refuses fails here)
and sets the horizon directly.  No epoch is replayed: restore costs O(open window) plus one
hash pass over the carried intervals.  The committed intervals still
travel in the token, so its size grows with the history.  Version-1
(replay) checkpoints are rejected.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.validation import non_increasing_within
from ..fastpath.incremental import IncrementalFlatForest, _ragged_extend, _ragged_split
from ..multiplex import Catalog, MediaObject, Workload
from ..fleet.runner import (
    FleetObjectResult,
    FleetReport,
    sanitize_times,
    stream_minutes,
)
from .horizon import LiveConfig, LiveHorizon
from .schedule import ChannelPlanner

__all__ = [
    "CHECKPOINT_SCHEMA",
    "EpochRecord",
    "LiveDaemon",
    "LiveReport",
    "chain_digests",
    "live_digest",
]

CHECKPOINT_SCHEMA = "repro.live-checkpoint.v2"
REPORT_SCHEMA = "repro.live-report.v1"

_EMPTY = np.empty(0, dtype=np.float64)
_INT64_MAX = int(np.iinfo(np.int64).max)

_FOREST_KINDS = ("batched-dyadic", "immediate-dyadic")
_SLOTTED_KINDS = ("batched-dyadic", "pure-batching")


def live_digest(
    per_object: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts: Sequence[int],
) -> str:
    """Digest of the first ``counts[i]`` intervals of each object's arrays.

    One link of the record chain: the daemon hashes the streams committed
    since the previous record with it (see :func:`chain_digests`).
    """
    h = hashlib.sha256()
    for (starts, ends), count in zip(per_object, counts):
        h.update(np.ascontiguousarray(starts[:count]).tobytes())
        h.update(np.ascontiguousarray(ends[:count]).tobytes())
    return h.hexdigest()[:16]


def _link(head: str, counts: Sequence[int], fresh: str) -> str:
    """``H(head || counts || fresh)``: one record's chained digest."""
    h = hashlib.sha256(head.encode())
    h.update(np.asarray(counts, dtype="<i8").tobytes())
    h.update(fresh.encode())
    return h.hexdigest()[:16]


def chain_digests(
    per_object: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts_by_record: Sequence[Sequence[int]],
) -> List[str]:
    """Every record digest, re-derived from committed arrays in one pass.

    ``counts_by_record[k]`` is record ``k``'s cumulative committed count
    per object; link ``k`` hashes the intervals between record ``k-1``'s
    counts and record ``k``'s.  Committed arrays only ever grow at the
    end, so the result equals the records' own digests unless a committed
    stream was rewritten, dropped or moved.  An object whose count did
    not move adds no bytes to a link's :func:`live_digest`, so each link
    slices only the objects whose counts moved.
    """
    records = len(counts_by_record)
    cumulative = np.zeros((records + 1, len(per_object)), dtype=np.int64)
    cumulative[1:] = np.array(counts_by_record, dtype=np.int64).reshape(
        records, len(per_object)
    )
    new = np.diff(cumulative, axis=0)
    moved_rows, moved = np.nonzero(new)
    cut = np.searchsorted(moved_rows, np.arange(records + 1)).tolist()
    moved_from = cumulative[moved_rows, moved].tolist()
    moved_by = new[moved_rows, moved].tolist()
    moved = moved.tolist()
    digests: List[str] = []
    head = ""
    for row, lo, hi in zip(new, cut[:-1], cut[1:]):
        fresh = live_digest(
            [
                (per_object[k][0][p:], per_object[k][1][p:])
                for k, p in zip(moved[lo:hi], moved_from[lo:hi])
            ],
            moved_by[lo:hi],
        )
        head = _link(head, row, fresh)
        digests.append(head)
    return digests


# -- resume-token encoding -----------------------------------------------------


def _encode(values, dtype: str = "<f8") -> str:
    """Base64 of ``values`` as little-endian ``dtype`` bytes."""
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _finite_or_none(value: float) -> Optional[float]:
    return None if value == -math.inf else value


def _or_minus_inf(value: Optional[float]) -> float:
    return -math.inf if value is None else value


class _Fields:
    """Typed reads from one mapping of a decoded resume token.

    Every failure — missing key, wrong type, non-finite number, bad base64,
    wrong length — raises ``ValueError`` naming the field's path, so a
    damaged or hostile token never surfaces as ``KeyError`` or
    ``TypeError``.
    """

    def __init__(self, mapping: Any, path: str):
        if not isinstance(mapping, dict):
            raise ValueError(f"checkpoint field {path or '<top>'}: expected an object")
        self._mapping = mapping
        self.path = path

    def error(self, key: str, problem: str) -> ValueError:
        where = f"{self.path}.{key}" if self.path else key
        return ValueError(f"checkpoint field {where}: {problem}")

    def keys(self) -> List[str]:
        return list(self._mapping)

    def value(self, key: str) -> Any:
        if key not in self._mapping:
            raise self.error(key, "missing")
        return self._mapping[key]

    def section(self, key: str, path: Optional[str] = None) -> "_Fields":
        where = f"{self.path}.{key}" if self.path else key
        return _Fields(self.value(key), path or where)

    def items(self, key: str) -> list:
        value = self.value(key)
        if not isinstance(value, list):
            raise self.error(key, f"expected a list, got {type(value).__name__}")
        return value

    def integer(self, key: str, lo: int = 0, hi: Optional[int] = None) -> int:
        value = self.value(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < lo:
            raise self.error(key, f"expected an integer >= {lo}, got {value!r}")
        if hi is not None and value > hi:
            raise self.error(key, f"expected an integer <= {hi}, got {value!r}")
        return value

    def number(self, key: str, optional: bool = False) -> Optional[float]:
        value = self.value(key)
        if value is None and optional:
            return None
        if isinstance(value, float) and math.isfinite(value):
            return value
        # an int converts exactly when within float range (JSON allows any size)
        if (
            isinstance(value, int)
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
        ):
            return float(value)
        raise self.error(key, f"expected a finite number, got {value!r}")

    def text(self, key: str) -> str:
        value = self.value(key)
        if not isinstance(value, str):
            raise self.error(key, f"expected a string, got {value!r}")
        return value

    def flag(self, key: str) -> bool:
        value = self.value(key)
        if not isinstance(value, bool):
            raise self.error(key, f"expected true or false, got {value!r}")
        return value

    def array(self, key: str, dtype: str, size: Optional[int] = None) -> np.ndarray:
        """A base64 little-endian array; ``size`` pins its length."""
        try:
            raw = base64.b64decode(self.text(key), validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise self.error(key, f"not base64 ({exc})") from None
        itemsize = np.dtype(dtype).itemsize
        if len(raw) % itemsize or (size is not None and len(raw) != size * itemsize):
            want = "a whole number of" if size is None else f"{size}"
            raise self.error(
                key, f"{len(raw)} bytes is not {want} {itemsize}-byte values"
            )
        native = np.float64 if dtype == "<f8" else np.intp
        return np.frombuffer(raw, dtype=dtype).astype(native)

    def increasing(self, key: str, values: np.ndarray, strict: bool) -> np.ndarray:
        """Check ``values`` (read from ``key``) are finite and sorted."""
        if not np.isfinite(values).all():
            raise self.error(key, "non-finite value")
        # Neighbours are compared, not subtracted: the difference of two
        # finite values can overflow.
        later, earlier = values[1:], values[:-1]
        if strict and np.any(later <= earlier):
            raise self.error(key, "not strictly increasing")
        if np.any(later < earlier):
            raise self.error(key, "not sorted")
        return values


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's decision summary (or the final drain record).

    All cumulative fields count from daemon birth; ``fence`` is None only
    on the drain record (the stream ended — everything commits).
    ``lead_seconds`` is the wall-clock margin by which the epoch's
    decisions beat the next batch's (accelerated) deadline; it is
    measurement, not state, and is excluded from the serialised payload
    so reports stay byte-reproducible.
    """

    epoch: int
    ingest_clock: float
    fence: Optional[float]
    drain: bool
    ingested: int
    repaired: int
    committed_streams: int
    committed_roots: int
    committed_counts: Tuple[int, ...]
    max_committed_cutoff: Optional[float]
    min_live_cutoff: Optional[float]
    digest: str
    lead_seconds: Optional[float] = None

    def to_payload(self) -> dict:
        return {
            "epoch": self.epoch,
            "ingest_clock": self.ingest_clock,
            "fence": self.fence,
            "drain": self.drain,
            "ingested": self.ingested,
            "repaired": self.repaired,
            "committed_streams": self.committed_streams,
            "committed_roots": self.committed_roots,
            "committed_counts": list(self.committed_counts),
            "max_committed_cutoff": self.max_committed_cutoff,
            "min_live_cutoff": self.min_live_cutoff,
            "digest": self.digest,
        }

    @classmethod
    def _from_token(cls, f: _Fields) -> "EpochRecord":
        counts = f.items("committed_counts")
        if any(isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in counts):
            raise f.error("committed_counts", "expected integers >= 0")
        return cls(
            epoch=f.integer("epoch"),
            ingest_clock=f.number("ingest_clock"),
            fence=f.number("fence", optional=True),
            drain=f.flag("drain"),
            ingested=f.integer("ingested"),
            repaired=f.integer("repaired"),
            committed_streams=f.integer("committed_streams"),
            committed_roots=f.integer("committed_roots"),
            committed_counts=tuple(counts),
            max_committed_cutoff=f.number("max_committed_cutoff", optional=True),
            min_live_cutoff=f.number("min_live_cutoff", optional=True),
            digest=f.text("digest"),
        )


class _Chunk(NamedTuple):
    """Streams committed together — one epoch's, or one title's restored
    history — titles end to end: ``titles[j]``'s streams are
    ``bounds[j]:bounds[j + 1]``, in start order."""

    titles: np.ndarray
    bounds: np.ndarray
    starts: np.ndarray  # minutes
    ends: np.ndarray
    channels: np.ndarray


@dataclass
class LiveReport:
    """Everything one daemon run produced."""

    config: LiveConfig
    fleet: FleetReport
    channels: Dict[str, np.ndarray]
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def peak_channels(self) -> int:
        return max((int(c.max()) + 1 for c in self.channels.values() if c.size), default=0)

    def render(self) -> str:
        epochs = sum(1 for r in self.records if not r.drain)
        leads = [r.lead_seconds for r in self.records if r.lead_seconds is not None]
        lines = [
            f"live report — policy={self.config.policy}"
            f"  delay={self.config.delay_minutes:g} min"
            f"  epoch={self.config.epoch_minutes:g} min"
            f"  fence lag={self.config.fence_minutes:g} min",
            f"  epochs={epochs}  drained={any(r.drain for r in self.records)}"
            f"  clients={self.fleet.clients}  streams={self.fleet.streams}"
            f"  repaired={self.fleet.repaired}",
            f"  committed bandwidth={self.fleet.total_units_minutes:,.0f}"
            f" stream-minutes  max start-up delay="
            f"{self.fleet.max_startup_delay_minutes():g} min",
        ]
        if leads:
            lines.append(
                f"  wall-clock lead: min={min(leads):.3f}s"
                f"  median={sorted(leads)[len(leads) // 2]:.3f}s"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_payload(),
            "records": [r.to_payload() for r in self.records],
            "objects": [
                {
                    "name": o.name,
                    "clients": o.clients,
                    "streams": o.streams,
                    "roots": o.roots,
                    "channels": (
                        int(self.channels[o.name].max()) + 1
                        if self.channels[o.name].size
                        else 0
                    ),
                    "total_units_minutes": o.total_units_minutes,
                    "max_startup_delay_minutes": o.max_startup_delay_minutes,
                }
                for o in self.fleet.objects
            ],
            "totals": {
                "clients": self.fleet.clients,
                "streams": self.fleet.streams,
                "repaired": self.fleet.repaired,
                "total_units_minutes": self.fleet.total_units_minutes,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class LiveDaemon:
    """Rolling-horizon online serving of a catalog (see module docstring).

    Two driving styles share one ingest path:

    * :meth:`run` — replay a workload mapping epoch by epoch (optionally
      paced against accelerated wall-clock), stopping early at
      ``until_epoch`` for mid-run checkpoints;
    * :meth:`step` — operational push of one epoch's raw batches, with
      per-batch sanitisation (entries outside the epoch window, below
      the trace contract, or duplicated are repaired away, exactly like
      the fleet's ingest path).

    Each epoch is one ragged pass over the whole catalog: every title's
    arrivals laid end to end, one ``sanitize_times``, one bucketing pass,
    one ``push_batch`` and one ``evict_committable``; what the epoch
    commits takes one channel-planner call and one digest pass.  Both read their
    mapping through :meth:`~repro.multiplex.Workload.of`, so a key that
    is not in the catalog, or a batch that is not a 1-D array of real
    numbers, raises ``ValueError`` before any state changes.
    """

    def __init__(self, catalog: Catalog, config: LiveConfig):
        self.catalog = catalog
        self.config = config
        self.horizon = LiveHorizon(config)
        self._names = tuple(obj.name for obj in catalog)
        m = len(self._names)
        self._L = np.array(
            [obj.units(config.delay_minutes) for obj in catalog], dtype=np.float64
        )
        # Ingest-side counters, one entry per object in catalog order.
        self._clients = np.zeros(m, dtype=np.int64)
        self._repaired = np.zeros(m, dtype=np.int64)
        self._max_wait = np.zeros(m)  # slot units, slotted kinds only
        self._last_push = np.full(m, -math.inf)  # newest value pushed, slot units
        # Committed side: counters per object, one channel planner for the
        # catalog, and the committed streams as chunks in commit order.
        self._streams = np.zeros(m, dtype=np.int64)
        self._roots = np.zeros(m, dtype=np.int64)
        self._max_cutoff = np.full(m, -math.inf)  # minutes; -inf: none yet
        self._planner = ChannelPlanner(m)
        self._chunks: List[_Chunk] = []
        # Open windows in slot units: a forest for the merging kinds; the
        # root-only kinds' pending starts, objects end to end.
        self._forest: Optional[IncrementalFlatForest] = (
            IncrementalFlatForest(self._L) if config.policy in _FOREST_KINDS else None
        )
        self._pending = _EMPTY
        self._pending_bounds = np.zeros(m + 1, dtype=np.intp)
        self.records: List[EpochRecord] = []
        self._repaired_folded = False

    # -- epoch machinery -------------------------------------------------------

    def _sanitized(self, mapping: Mapping) -> Tuple[np.ndarray, ...]:
        """:func:`sanitize_times` of every title's times (:meth:`Workload.of`);
        refused, as ``run_fleet`` refuses it, if dividing by the delay merges two."""
        horizon = self.config.horizon_minutes
        workload = Workload.of(self._names, mapping, horizon)
        clean, repaired, bounds = sanitize_times(workload.times, horizon, workload.offsets)
        if non_increasing_within(clean / self.config.delay_minutes, bounds).any():
            raise ValueError("arrival times must be strictly increasing in slot units")
        return clean, repaired, bounds

    def _ingest(self, minutes: np.ndarray, offsets: np.ndarray) -> None:
        """Absorb one epoch's clean, strictly-later arrival minutes."""
        counts = np.diff(offsets)
        self._clients += counts
        if not minutes.size:
            return
        m = counts.size
        ts = minutes / self.config.delay_minutes  # slot units, same division as object_run
        if self.config.policy in _SLOTTED_KINDS:
            # The serving slot end of arrival t is floor(t) + 1 — exactly
            # the slot the event ordering gives it (a boundary arrival
            # belongs to the *next* slot; see kernels.bucket_slots).
            service = np.floor(ts) + 1.0
            got = np.flatnonzero(counts)
            heads = offsets[got]
            self._max_wait[got] = np.maximum(
                self._max_wait[got], np.maximum.reduceat(service - ts, heads)
            )
            # each served slot once: the first arrival of each run of
            # equal slots, unless an earlier epoch already served it
            title = np.repeat(np.arange(m), counts)
            first = np.empty(ts.size, dtype=bool)
            first[0] = True
            np.not_equal(service[1:], service[:-1], out=first[1:])
            first[heads] = True
            first &= service > self._last_push[title]
            push = service[first]
            if not push.size:
                return
            offsets = np.zeros(m + 1, dtype=np.intp)
            np.cumsum(np.bincount(title[first], minlength=m), out=offsets[1:])
        else:
            push = ts  # immediate kinds serve at the arrival instant
        pushed = np.flatnonzero(offsets[1:] > offsets[:-1])
        self._last_push[pushed] = push[offsets[pushed + 1] - 1]
        if self._forest is not None:
            self._forest.push_batch(push, offsets)
        else:
            self._pending, self._pending_bounds = _ragged_extend(
                self._pending, self._pending_bounds, push, offsets
            )

    def _commit(self, fence_minutes: float) -> Optional[_Chunk]:
        """Commit every stream whose merge window closed before the fence;
        returns the committed chunk, or None when nothing committed."""
        delay = self.config.delay_minutes
        fence_slots = fence_minutes / delay
        if self._forest is not None:
            done = self._forest.evict_committable(fence_slots)
            if not done.roots.any():
                return None
            arrivals, offsets, roots, cutoffs = (
                done.forest.arrivals, done.offsets, done.roots, done.cutoffs
            )
            lengths = done.forest.stream_lengths(self._L.repeat(offsets[1:] - offsets[:-1]))
        else:
            # root-only kinds: a stream is final the moment it starts, so
            # its own start is its window end
            arrivals, offsets, self._pending, self._pending_bounds = _ragged_split(
                self._pending, self._pending_bounds, self._pending < fence_slots
            )
            if not arrivals.size:
                return None
            roots = np.diff(offsets)
            cutoffs = arrivals[np.maximum(offsets[1:] - 1, 0)]
            lengths = np.repeat(self._L, roots)
        starts, ends = stream_minutes(arrivals, lengths, delay)
        channels = self._planner.assign(starts, ends, offsets)
        titles = np.flatnonzero(roots)
        self._streams += offsets[1:] - offsets[:-1]
        self._roots += roots
        cut = cutoffs[titles] * delay
        top = self._max_cutoff[titles]
        self._max_cutoff[titles] = np.where(cut > top, cut, top)
        bounds = np.concatenate((offsets[titles], offsets[-1:]))
        chunk = _Chunk(titles, bounds, starts, ends, channels)
        self._chunks.append(chunk)
        return chunk

    def _oldest_open(self) -> np.ndarray:
        """Per object, the window end of its oldest open tree in slot
        units (a root-only start is its own window end); ``inf`` when the
        object has nothing open."""
        if self._forest is not None:
            return self._forest.min_live_cutoffs()
        lo, hi = self._pending_bounds[:-1], self._pending_bounds[1:]
        oldest = np.full(lo.size, math.inf)
        oldest[lo < hi] = self._pending[lo[lo < hi]]
        return oldest

    def _min_live_cutoff_minutes(self) -> Optional[float]:
        """Window end of the oldest live tree over every object, in minutes."""
        oldest = self._oldest_open()
        oldest = oldest[oldest < math.inf]
        if not oldest.size:
            return None
        return float(np.min(oldest * self.config.delay_minutes))

    def _make_record(
        self, ingested: int, drain: bool, fresh: Optional[_Chunk]
    ) -> EpochRecord:
        """The record closing this epoch; ``fresh`` is what it committed."""
        counts = tuple(self._streams.tolist())
        new_counts = np.zeros(len(counts), dtype=np.int64)
        per_object: List[Tuple[np.ndarray, np.ndarray]] = []
        sizes: List[int] = []
        if fresh is not None:
            new_counts[fresh.titles] = fresh.bounds[1:] - fresh.bounds[:-1]
            cuts = fresh.bounds.tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                per_object.append((fresh.starts[lo:hi], fresh.ends[lo:hi]))
                sizes.append(hi - lo)
        # argmax picks the first of equal maxima, as max() over the objects would
        top = float(self._max_cutoff[self._max_cutoff.argmax()])
        head = self.records[-1].digest if self.records else ""
        record = EpochRecord(
            epoch=self.horizon.epoch,
            ingest_clock=self.horizon.ingest_clock,
            fence=self.horizon.fence,
            drain=drain,
            ingested=ingested,
            repaired=sum(self._repaired.tolist()),
            committed_streams=sum(counts),
            committed_roots=sum(self._roots.tolist()),
            committed_counts=counts,
            max_committed_cutoff=_finite_or_none(top),
            min_live_cutoff=self._min_live_cutoff_minutes(),
            digest=_link(head, new_counts, live_digest(per_object, sizes)),
        )
        self.records.append(record)
        return record

    def _process_epoch(self, k: int, minutes: np.ndarray, offsets: np.ndarray) -> EpochRecord:
        self.horizon.begin_epoch(k)
        self._ingest(minutes, offsets)
        assert self.horizon.fence is not None
        fresh = self._commit(self.horizon.fence)
        return self._make_record(int(minutes.size), drain=False, fresh=fresh)

    # -- driving ---------------------------------------------------------------

    def step(self, batches: Mapping) -> EpochRecord:
        """Ingest the next epoch from raw operational batches.

        Epoch ``k`` accepts arrivals in its own window ``[t0, t1)``;
        everything else in a batch — non-finite, out-of-window (early
        *or* late), duplicate — is repaired away and counted, mirroring
        :func:`~repro.fleet.runner.sanitize_times`.  Every earlier
        epoch's arrivals lie below ``t0``, so a replayed batch is
        repaired away by the window alone.  A step that raises — an
        unknown title, a batch that is not a 1-D array of real numbers, an
        arrival that the delay division merges with its title's last one
        from an earlier epoch (immediate kinds), no epoch left to begin —
        leaves the daemon as it was.
        """
        clean, repaired, bounds = self._sanitized(batches)
        k, t0, t1 = self.horizon.next_epoch()
        inside = (clean >= t0) & (clean < t1)
        kept = np.concatenate(([0], np.cumsum(inside)))[bounds]
        minutes = clean[inside]
        if self.config.policy not in _SLOTTED_KINDS:
            # an immediate kind's last push is its last arrival in slot units
            got = np.flatnonzero(kept[1:] > kept[:-1])
            if (minutes[kept[got]] / self.config.delay_minutes <= self._last_push[got]).any():
                raise ValueError("arrival times must be strictly increasing in slot units")
        self._repaired += repaired + (np.diff(bounds) - np.diff(kept))
        self._repaired_folded = True  # step() accounts repairs itself
        return self._process_epoch(k, minutes, kept)

    def run(
        self,
        workload: Mapping,
        until_epoch: Optional[int] = None,
        accel: Optional[float] = None,
    ) -> Optional[LiveReport]:
        """Replay a workload mapping through the epoch loop.

        The workload is sanitised whole (identically to ``run_fleet``)
        and sliced into epochs, so the daemon sees exactly the clean
        trace the offline oracle would — the precondition for bit-exact
        report equality.  ``until_epoch`` stops after that epoch without
        draining (checkpoint, then call ``run`` again — on this daemon
        or a restored one — with the same workload to continue).
        ``accel`` paces ingestion against wall-clock at ``accel``
        simulated minutes per second: epoch ``k`` is processed no
        earlier than its data exists, and each record's ``lead_seconds``
        measures how far ahead of the next batch's deadline the commit
        decisions landed.  Returns the final :class:`LiveReport` after
        the drain, or None when stopping early.
        """
        clean, repaired, bounds = self._sanitized(workload)
        if not self._repaired_folded:
            self._repaired += repaired
        self._repaired_folded = True

        # every remaining epoch's slice of every title, found once
        first = self.horizon.epoch + 1
        windows = [self.config.epoch_bounds(k) for k in range(first, self.config.num_epochs)]
        t0s = np.array([t0 for t0, _t1 in windows])
        t1s = np.array([t1 for _t0, t1 in windows])
        starts = np.empty((len(self._names), len(windows)), dtype=np.intp)
        ends = np.empty_like(starts)
        for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            starts[k] = lo + np.searchsorted(clean[lo:hi], t0s, side="left")
            ends[k] = lo + np.searchsorted(clean[lo:hi], t1s, side="left")

        wall0 = time.monotonic()
        accel_base = self.horizon.ingest_clock  # resumed runs pace from here
        for i, (t0, t1) in enumerate(windows):
            k = first + i
            if until_epoch is not None and k > until_epoch:
                return None
            if accel is not None:
                due = (t1 - accel_base) / accel
                now = time.monotonic() - wall0
                if due > now:
                    time.sleep(due - now)
            lo, counts = starts[:, i], ends[:, i] - starts[:, i]
            slice_offsets = np.zeros(counts.size + 1, dtype=np.intp)
            np.cumsum(counts, out=slice_offsets[1:])
            take = np.arange(slice_offsets[-1]) + np.repeat(lo - slice_offsets[:-1], counts)
            self._process_epoch(k, clean[take], slice_offsets)
            if accel is not None:
                next_due = (t1 + self.config.epoch_minutes - accel_base) / accel
                lead = next_due - (time.monotonic() - wall0)
                self.records[-1] = replace(self.records[-1], lead_seconds=lead)
        if until_epoch is not None:
            return None
        self.drain()
        return self.report()

    def drain(self) -> EpochRecord:
        """End of stream: commit everything still live, close the run."""
        self.horizon.mark_drained()
        fresh = self._commit(math.inf)
        return self._make_record(0, drain=True, fresh=fresh)

    def _committed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every committed stream, objects end to end, as ``(starts, ends,
        channels, bounds)``: object ``k``'s are ``bounds[k]:bounds[k + 1]``,
        in commit order.  Each chunk is scattered into place once."""
        bounds = np.zeros(len(self._names) + 1, dtype=np.intp)
        np.cumsum(self._streams, out=bounds[1:])
        total = int(bounds[-1])
        starts, ends = np.empty(total), np.empty(total)
        channels = np.empty(total, dtype=np.intp)
        filled = bounds[:-1].copy()
        for chunk in self._chunks:
            counts = chunk.bounds[1:] - chunk.bounds[:-1]
            at = np.arange(chunk.starts.size) + (
                filled[chunk.titles] - chunk.bounds[:-1]
            ).repeat(counts)
            starts[at], ends[at], channels[at] = chunk.starts, chunk.ends, chunk.channels
            filled[chunk.titles] += counts
        return starts, ends, channels, bounds

    def report(self) -> LiveReport:
        delay = self.config.delay_minutes
        slotted = self.config.policy in _SLOTTED_KINDS
        all_starts, all_ends, all_channels, bounds = self._committed()
        cuts = bounds.tolist()
        objects = []
        channels = {}
        for k, (obj, lo, hi) in enumerate(zip(self.catalog, cuts[:-1], cuts[1:])):
            starts, ends = all_starts[lo:hi], all_ends[lo:hi]
            objects.append(
                FleetObjectResult(
                    name=obj.name,
                    L=obj.units(delay),
                    delay_minutes=delay,
                    clients=int(self._clients[k]),
                    streams=hi - lo,
                    roots=int(self._roots[k]),
                    total_units_minutes=float(np.sum(ends - starts)),
                    # immediate kinds serve at the arrival time
                    max_startup_delay_minutes=(
                        float(self._max_wait[k]) * delay if slotted else 0.0
                    ),
                    starts=starts,
                    ends=ends,
                    repaired=int(self._repaired[k]),
                )
            )
            channels[obj.name] = all_channels[lo:hi]
        fleet = FleetReport(
            policy=self.config.policy,
            delay_minutes=self.config.delay_minutes,
            horizon_minutes=self.config.horizon_minutes,
            objects=objects,
        )
        return LiveReport(
            config=self.config,
            fleet=fleet,
            channels=channels,
            records=list(self.records),
        )

    # -- checkpoint / restore --------------------------------------------------

    def _object_tokens(self) -> List[dict]:
        """Each object's token entry, in catalog order."""
        if self._forest is not None:
            values, bounds, evicted, watermark, _last = self._forest.open_window()
        else:
            values, bounds = self._pending, self._pending_bounds
        starts, ends, channels, cuts = self._committed()
        tokens = []
        for k in range(len(self._names)):
            open_window: Dict[str, Any] = {"arrivals": _encode(values[bounds[k] : bounds[k + 1]])}
            if self._forest is not None:
                open_window["offset"] = int(evicted[k])
                open_window["watermark"] = _finite_or_none(float(watermark[k]))
            lo, hi = cuts[k], cuts[k + 1]
            free_at, release_seq, seq, last_start = self._planner.state(k)
            tokens.append({
                "clients": int(self._clients[k]),
                "repaired": int(self._repaired[k]),
                "roots": int(self._roots[k]),
                "streams": int(self._streams[k]),
                "max_wait_slots": float(self._max_wait[k]),
                "max_cutoff_minutes": _finite_or_none(float(self._max_cutoff[k])),
                "last_push": _finite_or_none(float(self._last_push[k])),
                "committed": {
                    "starts": _encode(starts[lo:hi]),
                    "ends": _encode(ends[lo:hi]),
                    "channels": _encode(channels[lo:hi], "<i8"),
                },
                "open": open_window,
                "planner": {
                    "channels": int(free_at.size),
                    "free_at": _encode(free_at),
                    "release_seq": _encode(release_seq, "<i8"),
                    "seq": seq,
                    "last_start": _finite_or_none(last_start),
                },
            })
        return tokens

    def checkpoint(self) -> str:
        """Serialise the daemon as a resume token (compact, sorted JSON).

        See the module docstring for the layout; ``restore(text)
        .checkpoint() == text`` byte for byte.
        """
        if self.horizon.drained:
            raise RuntimeError("nothing to checkpoint: the stream was drained")
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "config": self.config.to_payload(),
            "catalog": [
                {
                    "name": obj.name,
                    "duration_minutes": obj.duration_minutes,
                    "weight": obj.weight,
                }
                for obj in self.catalog
            ],
            "epoch": self.horizon.epoch,
            "records": [r.to_payload() for r in self.records],
            "chain_head": self.records[-1].digest if self.records else "",
            "objects": dict(zip(self._names, self._object_tokens())),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def _restore_committed(self, k: int, f: _Fields) -> int:
        """Read object ``k``'s counters, committed intervals and planner
        state from its token entry; returns its committed stream count."""
        n = f.integer("streams")
        roots = f.integer("roots")
        if roots > n:
            raise f.error("roots", f"{roots} roots but {n} streams")
        max_cutoff = f.number("max_cutoff_minutes", optional=True)

        c = f.section("committed")
        starts = c.increasing("starts", c.array("starts", "<f8", n), strict=False)
        ends = c.array("ends", "<f8", n)
        if not np.isfinite(ends).all() or np.any(ends <= starts):
            raise c.error("ends", "non-finite, or not after its stream's start")

        # the planner has assigned exactly the committed streams, in order
        p = f.section("planner")
        channels = p.integer("channels")
        free_at = p.array("free_at", "<f8", channels)
        release_seq = p.array("release_seq", "<i8", channels)
        seq = p.integer("seq")
        if seq != n:
            raise p.error("seq", f"{seq} streams assigned but {n} committed")
        last_start = _or_minus_inf(p.number("last_start", optional=True))
        if last_start != (starts[-1] if n else -math.inf):
            raise p.error("last_start", "is not the last committed start")
        try:
            self._planner.resume(k, free_at, release_seq, seq, last_start)
        except ValueError as exc:
            raise ValueError(f"checkpoint field {p.path}: {exc}") from None
        ids = c.array("channels", "<i8", n)
        if n and (int(ids.min()) < 0 or int(ids.max()) >= channels):
            raise c.error("channels", f"channel id outside [0, {channels})")
        self._streams[k], self._roots[k] = n, roots
        self._max_cutoff[k] = _or_minus_inf(max_cutoff)
        if n:
            title = np.array([k], dtype=np.intp)
            self._chunks.append(
                _Chunk(title, np.array([0, n], dtype=np.intp), starts, ends, ids)
            )
        return n

    def _restore_object(self, k: int, f: _Fields) -> Tuple[np.ndarray, int, float]:
        """Read object ``k``'s token entry; returns its open window as
        ``(arrivals, evicted count, watermark)``."""
        streams = self._restore_committed(k, f)
        self._clients[k] = f.integer("clients", hi=_INT64_MAX)
        self._repaired[k] = f.integer("repaired", hi=_INT64_MAX)
        self._max_wait[k] = f.number("max_wait_slots")
        last_push = _or_minus_inf(f.number("last_push", optional=True))
        self._last_push[k] = last_push
        o = f.section("open")
        arrivals = o.increasing("arrivals", o.array("arrivals", "<f8"), strict=True)
        if self._forest is None:
            if arrivals.size and last_push != arrivals[-1]:
                raise o.error("arrivals", "newest pending root is not the last push")
            return arrivals, 0, -math.inf
        offset = o.integer("offset", hi=_INT64_MAX)
        if offset != streams:
            raise o.error(
                "offset", f"{offset} evicted nodes but {streams} committed streams"
            )
        watermark = _or_minus_inf(o.number("watermark", optional=True))
        try:
            IncrementalFlatForest.check_open_window(arrivals, watermark, last_push)
        except ValueError as exc:
            raise o.error("arrivals", str(exc)) from None
        return arrivals, offset, watermark

    def _check_open_against_clock(self) -> None:
        """Reject open windows the restored epoch could not have left.

        After epoch ``k`` no value pushed can exceed what an arrival
        before its ingest clock ``t1`` produces (each object's newest
        open value is its last push), and every tree (or root-only
        start) whose window end lies below its fence was committed.
        """
        delay = self.config.delay_minutes
        t1 = self.horizon.ingest_clock
        if self.config.policy in _SLOTTED_KINDS:
            bound = math.floor(t1 / delay) + 1.0
        else:
            bound = t1 / delay
        assert self.horizon.fence is not None
        fence_slots = self.horizon.fence / delay
        oldest = self._oldest_open()
        for k in np.flatnonzero((self._last_push > bound) | (oldest < fence_slots)).tolist():
            path = f"checkpoint field objects[{self._names[k]!r}]"
            if self._last_push[k] > bound:
                raise ValueError(
                    f"{path}.last_push: {float(self._last_push[k])} lies past the "
                    f"ingest clock (at most {bound} after epoch {self.horizon.epoch})"
                )
            raise ValueError(
                f"{path}.open.arrivals: the oldest open window ends at "
                f"{float(oldest[k])}, before the fence {fence_slots}, so it "
                "would have been committed"
            )

    @classmethod
    def restore(cls, text: str) -> "LiveDaemon":
        """Rebuild a daemon from :meth:`checkpoint` output, replaying nothing.

        The restored daemon is indistinguishable from one that never
        stopped (same counters, committed streams, records, digests, open
        windows, planner state); calling :meth:`run` with the original
        workload continues exactly where the checkpoint left off.  Any
        inconsistency raises ``ValueError`` naming the offending field.
        """
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("checkpoint JSON is nested too deeply") from None
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"not a live checkpoint of schema {CHECKPOINT_SCHEMA} "
                f"(schema={schema!r}); replay checkpoints (v1) are not read"
            )
        token = _Fields(payload, "")
        config_payload = token.value("config")
        try:
            config = LiveConfig.from_payload(config_payload)
        except ValueError as exc:
            raise token.error("config", str(exc)) from None
        catalog = _catalog_from(token.items("catalog"))
        epoch = token.integer("epoch", lo=-1)
        if epoch >= config.num_epochs:
            raise token.error("epoch", f"{epoch} is past the last epoch")

        records = [
            EpochRecord._from_token(_Fields(entry, f"records[{i}]"))
            for i, entry in enumerate(token.items("records"))
        ]
        prev_counts = (0,) * len(catalog)
        for i, rec in enumerate(records):
            if rec.epoch != i or rec.drain:
                raise ValueError(
                    f"checkpoint field records[{i}].epoch: expected undrained "
                    f"epoch {i}, got epoch {rec.epoch}"
                )
            counts = rec.committed_counts
            if len(counts) != len(catalog) or any(
                c < p for c, p in zip(counts, prev_counts)
            ):
                raise ValueError(
                    f"checkpoint field records[{i}].committed_counts: not one "
                    f"non-decreasing count per object ({len(catalog)} objects)"
                )
            if rec.committed_streams != sum(counts):
                raise ValueError(
                    f"checkpoint field records[{i}].committed_streams: "
                    f"{rec.committed_streams} is not the sum of its counts"
                )
            prev_counts = counts
        if len(records) != epoch + 1:
            raise token.error(
                "epoch",
                f"{epoch} differs from the last of the {len(records)} records",
            )

        daemon = cls(catalog, config)
        objects = token.section("objects")
        present = set(objects.keys())
        unknown = sorted(present - set(daemon._names))
        if unknown:
            raise token.error("objects", f"{unknown[0]!r} is not in the catalog")
        opened = []
        for k, name in enumerate(daemon._names):
            if name not in present:
                raise ValueError(f"checkpoint is missing object {name!r}")
            opened.append(
                daemon._restore_object(k, objects.section(name, f"objects[{name!r}]"))
            )
        values = np.concatenate([arrivals for arrivals, _, _ in opened])
        bounds = np.zeros(len(opened) + 1, dtype=np.intp)
        np.cumsum([arrivals.size for arrivals, _, _ in opened], out=bounds[1:])
        if daemon._forest is not None:
            try:
                daemon._forest = IncrementalFlatForest.resume(
                    daemon._L,
                    values,
                    bounds,
                    np.array([offset for _, offset, _ in opened], dtype=np.int64),
                    np.array([watermark for _, _, watermark in opened]),
                    daemon._last_push.copy(),
                )
            except ValueError as exc:
                raise token.error("objects", f"an open window is refused: {exc}") from None
        else:
            daemon._pending, daemon._pending_bounds = values, bounds

        if records:
            for key, total in (
                ("committed_counts", tuple(daemon._streams.tolist())),
                ("committed_roots", sum(daemon._roots.tolist())),
                ("repaired", sum(daemon._repaired.tolist())),
            ):
                if getattr(records[-1], key) != total:
                    raise ValueError(
                        f"checkpoint field records[{epoch}].{key}: differs from "
                        f"the objects' counters ({total})"
                    )
        else:
            # before epoch 0 every object is a fresh one, but for the
            # repairs run() folds in ahead of its first epoch
            fresh = cls(catalog, config)
            fresh._repaired[:] = daemon._repaired
            pairs = zip(daemon._names, fresh._object_tokens(), daemon._object_tokens())
            for name, want, got in pairs:
                changed = [key for key in want if got[key] != want[key]]
                if changed:
                    raise ValueError(
                        f"checkpoint field objects[{name!r}].{changed[0]}: "
                        "state ingested before epoch 0"
                    )
        # each restored chunk is one object's whole committed history
        committed = [(_EMPTY, _EMPTY)] * len(catalog)
        for chunk in daemon._chunks:
            committed[int(chunk.titles[0])] = (chunk.starts, chunk.ends)
        derived = chain_digests(committed, [rec.committed_counts for rec in records])
        for i, (rec, want) in enumerate(zip(records, derived)):
            if rec.digest != want:
                raise ValueError(
                    f"checkpoint field records[{i}].digest: {rec.digest} does not "
                    f"chain over the carried committed intervals (re-derived {want})"
                )
        if token.text("chain_head") != (derived[-1] if derived else ""):
            raise token.error("chain_head", "is not the last record's digest")

        daemon.horizon.seek(epoch)
        if records:
            if (
                records[-1].ingest_clock != daemon.horizon.ingest_clock
                or records[-1].fence != daemon.horizon.fence
            ):
                raise ValueError(
                    f"checkpoint field records[{epoch}].ingest_clock: the clock or "
                    f"fence differs from epoch {epoch}'s"
                )
            daemon._check_open_against_clock()
        daemon.records = records
        # run() folds a workload's repairs in once, before its first
        # epoch.  A token with no record and no repair may predate that
        # fold; folding then is exact (a clean workload's fold adds 0).
        daemon._repaired_folded = bool(records) or bool(daemon._repaired.any())
        return daemon


def _catalog_from(entries: list) -> Catalog:
    fields = [_Fields(entry, f"catalog[{i}]") for i, entry in enumerate(entries)]
    specs = [
        (f.text("name"), f.number("duration_minutes"), f.number("weight"))
        for f in fields
    ]
    try:
        objects = [MediaObject(*spec) for spec in specs]
        catalog = Catalog(objects)
    except ValueError as exc:
        raise ValueError(f"checkpoint field catalog: {exc}") from None
    # keep the carried weights exactly: re-normalising an already
    # normalised catalog can move a weight by one ULP
    catalog.objects = objects
    return catalog
