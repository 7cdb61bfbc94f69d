"""The live serving daemon: epoch loop, ledgers, digest chain, resume token.

:class:`LiveDaemon` turns the batch fleet pipeline inside out.  Offline,
:func:`repro.fleet.runner.run_fleet` sees every arrival up front,
sanitizes once, builds each object's merge forest whole, and folds a
:class:`~repro.fleet.runner.FleetReport`.  The daemon ingests the same
arrivals **epoch by epoch**, maintains each object's forest incrementally
on an :class:`~repro.fastpath.incremental.IncrementalFlatForest`, commits
streams as the fence passes their merge windows (emitting channel
assignments through :class:`~repro.live.schedule.ChannelPlanner` the
moment each tree is final), and evicts committed trees from live memory —
yet its cumulative report is **bit-identical** to the offline oracle on
the same trace: same per-object ``starts``/``ends`` arrays, counters,
bandwidth and startup metrics (``fleet_reports_equal`` returns None;
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
head is the last record's digest) and, per object, the ledger counters,
the committed ``starts``/``ends``/channel ids as base64 little-endian
arrays, the open window (live forest arrivals with id offset and
watermark, or the pending roots of root-only policies) and the channel
planner's free heap.  :meth:`LiveDaemon.restore` validates every field —
a damaged or hostile token raises ``ValueError`` naming the field —
cross-checks the counters, the planner and the last record's totals
against the carried intervals, checks those against the record chain,
rebuilds each open forest with one ``push_batch`` and sets the horizon
directly.  No epoch is replayed: restore costs O(open window) plus one
hash pass over the carried intervals.  The committed intervals still
travel in the token, so its size grows with the history.  Version-1
(replay) checkpoints are rejected.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..fastpath.incremental import IncrementalFlatForest
from ..multiplex.catalog import Catalog, MediaObject
from ..fleet.runner import (
    FleetObjectResult,
    FleetReport,
    _times_of,
    sanitize_times,
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
    stream was rewritten, dropped or moved.
    """
    digests: List[str] = []
    head = ""
    prev = [0] * len(per_object)
    for counts in counts_by_record:
        new = [c - p for c, p in zip(counts, prev)]
        fresh = live_digest(
            [(s[p:], e[p:]) for (s, e), p in zip(per_object, prev)], new
        )
        head = _link(head, new, fresh)
        digests.append(head)
        prev = list(counts)
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

    def integer(self, key: str, lo: int = 0) -> int:
        value = self.value(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < lo:
            raise self.error(key, f"expected an integer >= {lo}, got {value!r}")
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
        steps = np.diff(values)
        if strict and np.any(steps <= 0):
            raise self.error(key, "not strictly increasing")
        if np.any(steps < 0):
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


class _ObjectLedger:
    """One object's live state: forest, counters, committed intervals."""

    def __init__(self, obj: MediaObject, config: LiveConfig):
        self.obj = obj
        self.delay = config.delay_minutes
        self.kind = config.policy
        self.L = obj.units(config.delay_minutes)
        self.forest = (
            IncrementalFlatForest(self.L) if self.kind in _FOREST_KINDS else None
        )
        self.pending: List[float] = []  # root-only kinds: live starts, slot units
        self.planner = ChannelPlanner()
        self.clients = 0
        self.repaired = 0
        self.roots = 0
        self.streams = 0
        self.max_wait_slots = 0.0
        self.max_cutoff_minutes: Optional[float] = None
        self._last_push = -math.inf  # newest value pushed, slot units
        self.starts: List[np.ndarray] = []  # committed, minutes
        self.ends: List[np.ndarray] = []
        self.channel_ids: List[np.ndarray] = []
        self._recorded = 0  # committed chunks already hashed into a record

    def ingest(self, clean_minutes: np.ndarray) -> None:
        """Absorb one epoch's clean, strictly-later arrival minutes."""
        if clean_minutes.size == 0:
            return
        self.clients += int(clean_minutes.size)
        ts = clean_minutes / self.delay  # slot units, same division as object_run
        if self.kind in _SLOTTED_KINDS:
            # The serving slot end of arrival t is floor(t) + 1 — exactly
            # the slot the event ordering gives it (a boundary arrival
            # belongs to the *next* slot; see kernels.bucket_slots).
            service = np.floor(ts) + 1.0
            self.max_wait_slots = max(
                self.max_wait_slots, float(np.max(service - ts))
            )
            push = np.unique(service)
            push = push[push > self._last_push]  # slot already served earlier
            if push.size == 0:
                return
        else:
            push = ts  # immediate kinds serve at the arrival instant
        self._last_push = float(push[-1])
        if self.forest is not None:
            self.forest.push_batch(push)
        else:
            self.pending.extend(push.tolist())

    def commit(self, fence_slots: float) -> None:
        """Commit every stream whose merge window closed before the fence."""
        if self.forest is not None:
            trees = self.forest.evict_committable(fence_slots)
            if trees:
                self._emit(
                    np.concatenate([t.forest.arrivals for t in trees]),
                    np.concatenate([t.forest.stream_lengths(self.L) for t in trees]),
                    roots=len(trees),
                    cutoff_slots=trees[-1].cutoff,
                )
        elif self.pending:
            # root-only kinds: a stream is final the moment it starts, so
            # its own start is its window end
            n = bisect.bisect_left(self.pending, fence_slots)
            if n:
                vals = np.asarray(self.pending[:n], dtype=np.float64)
                del self.pending[:n]
                self._emit(
                    vals,
                    np.full(n, float(self.L), dtype=np.float64),
                    roots=n,
                    cutoff_slots=float(vals[-1]),
                )

    def _emit(
        self,
        arrivals_slots: np.ndarray,
        lengths_slots: np.ndarray,
        roots: int,
        cutoff_slots: float,
    ) -> None:
        # The exact minute-scale expressions of the fleet fold (runner._run_shard):
        # starts = arrivals * delay, ends = (arrivals + lengths) * delay.
        starts = arrivals_slots * self.delay
        ends = (arrivals_slots + lengths_slots) * self.delay
        self.starts.append(starts)
        self.ends.append(ends)
        self.channel_ids.append(self.planner.assign(starts, ends))
        self.roots += roots
        self.streams += int(starts.size)
        cutoff_minutes = cutoff_slots * self.delay
        if self.max_cutoff_minutes is None or cutoff_minutes > self.max_cutoff_minutes:
            self.max_cutoff_minutes = cutoff_minutes

    def fresh_streams(self) -> Tuple[np.ndarray, np.ndarray]:
        """Streams committed since the previous record, as one chunk.

        Compacts those commits into a single chunk, so the ledger holds
        at most one chunk per record however many trees committed.
        """
        k = self._recorded
        if len(self.starts) - k > 1:
            for chunks in (self.starts, self.ends, self.channel_ids):
                chunks[k:] = [np.concatenate(chunks[k:])]
        self._recorded = len(self.starts)
        if self._recorded == k:
            return _EMPTY, _EMPTY
        return self.starts[-1], self.ends[-1]

    def min_live_cutoff_minutes(self) -> Optional[float]:
        if self.forest is not None:
            cutoff = self.forest.min_live_cutoff()
            return None if cutoff is None else cutoff * self.delay
        if self.pending:
            return self.pending[0] * self.delay
        return None

    def committed_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.starts:
            return _EMPTY, _EMPTY
        return np.concatenate(self.starts), np.concatenate(self.ends)

    def channel_array(self) -> np.ndarray:
        if not self.channel_ids:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(self.channel_ids)

    def result(self) -> FleetObjectResult:
        starts, ends = self.committed_arrays()
        if self.kind in _SLOTTED_KINDS:
            max_startup = self.max_wait_slots * self.delay
        else:
            max_startup = 0.0  # immediate kinds serve at the arrival time
        return FleetObjectResult(
            name=self.obj.name,
            L=self.L,
            delay_minutes=self.delay,
            clients=self.clients,
            streams=int(starts.size),
            roots=self.roots,
            total_units_minutes=float(np.sum(ends - starts)),
            max_startup_delay_minutes=max_startup,
            starts=starts,
            ends=ends,
            repaired=self.repaired,
        )

    # -- resume token ----------------------------------------------------------

    def to_token(self) -> dict:
        starts, ends = self.committed_arrays()
        free_at, release_seq, seq, last_start = self.planner.state()
        if self.forest is not None:
            arrivals, offset, watermark, _last = self.forest.open_window()
            open_window = {
                "arrivals": _encode(arrivals),
                "offset": offset,
                "watermark": _finite_or_none(watermark),
            }
        else:
            open_window = {"arrivals": _encode(self.pending)}
        return {
            "clients": self.clients,
            "repaired": self.repaired,
            "roots": self.roots,
            "streams": self.streams,
            "max_wait_slots": self.max_wait_slots,
            "max_cutoff_minutes": self.max_cutoff_minutes,
            "last_push": _finite_or_none(self._last_push),
            "committed": {
                "starts": _encode(starts),
                "ends": _encode(ends),
                "channels": _encode(self.channel_array(), "<i8"),
            },
            "open": open_window,
            "planner": {
                "channels": int(free_at.size),
                "free_at": _encode(free_at),
                "release_seq": _encode(release_seq, "<i8"),
                "seq": seq,
                "last_start": _finite_or_none(last_start),
            },
        }

    @classmethod
    def from_token(
        cls, obj: MediaObject, config: LiveConfig, f: _Fields
    ) -> "_ObjectLedger":
        """Rebuild a ledger from :meth:`to_token` output, validating it."""
        led = cls(obj, config)
        led.clients = f.integer("clients")
        led.repaired = f.integer("repaired")
        led.streams = n = f.integer("streams")
        led.roots = f.integer("roots")
        if led.roots > n:
            raise f.error("roots", f"{led.roots} roots but {n} streams")
        led.max_wait_slots = f.number("max_wait_slots")
        led.max_cutoff_minutes = f.number("max_cutoff_minutes", optional=True)
        last_push = f.number("last_push", optional=True)
        led._last_push = _or_minus_inf(last_push)

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
            led.planner = ChannelPlanner.resume(free_at, release_seq, seq, last_start)
        except ValueError as exc:
            raise ValueError(f"checkpoint field {p.path}: {exc}") from None
        ids = c.array("channels", "<i8", n)
        if n and (int(ids.min()) < 0 or int(ids.max()) >= channels):
            raise c.error("channels", f"channel id outside [0, {channels})")
        if n:
            led.starts, led.ends, led.channel_ids = [starts], [ends], [ids]
            led._recorded = 1

        o = f.section("open")
        arrivals = o.increasing("arrivals", o.array("arrivals", "<f8"), strict=True)
        if led.forest is not None:
            offset = o.integer("offset")
            if offset != n:
                raise o.error("offset", f"{offset} evicted nodes but {n} committed streams")
            try:
                led.forest = IncrementalFlatForest.resume(
                    led.L,
                    arrivals,
                    offset,
                    _or_minus_inf(o.number("watermark", optional=True)),
                    last_push,
                )
            except ValueError as exc:
                raise o.error("arrivals", str(exc)) from None
        else:
            if arrivals.size and last_push != arrivals[-1]:
                raise o.error("arrivals", "newest pending root is not the last push")
            led.pending = arrivals.tolist()
        return led


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
    """

    def __init__(self, catalog: Catalog, config: LiveConfig):
        self.catalog = catalog
        self.config = config
        self.horizon = LiveHorizon(config)
        self._ledgers: Dict[str, _ObjectLedger] = {
            obj.name: _ObjectLedger(obj, config) for obj in catalog
        }
        self.records: List[EpochRecord] = []
        self._repaired_folded = False

    # -- epoch machinery -------------------------------------------------------

    def _commit_all(self, fence_minutes: float) -> None:
        fence_slots = fence_minutes / self.config.delay_minutes
        for obj in self.catalog:
            self._ledgers[obj.name].commit(fence_slots)

    def _make_record(self, ingested: int, drain: bool) -> EpochRecord:
        ledgers = [self._ledgers[obj.name] for obj in self.catalog]
        counts = tuple(led.streams for led in ledgers)
        cutoffs = [
            led.max_cutoff_minutes
            for led in ledgers
            if led.max_cutoff_minutes is not None
        ]
        live = [
            c for led in ledgers if (c := led.min_live_cutoff_minutes()) is not None
        ]
        fresh = [led.fresh_streams() for led in ledgers]
        new_counts = [int(starts.size) for starts, _ends in fresh]
        head = self.records[-1].digest if self.records else ""
        record = EpochRecord(
            epoch=self.horizon.epoch,
            ingest_clock=self.horizon.ingest_clock,
            fence=self.horizon.fence,
            drain=drain,
            ingested=ingested,
            repaired=sum(led.repaired for led in ledgers),
            committed_streams=sum(counts),
            committed_roots=sum(led.roots for led in ledgers),
            committed_counts=counts,
            max_committed_cutoff=max(cutoffs) if cutoffs else None,
            min_live_cutoff=min(live) if live else None,
            digest=_link(head, new_counts, live_digest(fresh, new_counts)),
        )
        self.records.append(record)
        return record

    def _process_epoch(self, k: int, slices: Dict[str, np.ndarray]) -> EpochRecord:
        self.horizon.begin_epoch(k)
        ingested = 0
        for obj in self.catalog:
            ts = slices.get(obj.name, _EMPTY)
            ingested += int(ts.size)
            self._ledgers[obj.name].ingest(ts)
        assert self.horizon.fence is not None
        self._commit_all(self.horizon.fence)
        return self._make_record(ingested, drain=False)

    # -- driving ---------------------------------------------------------------

    def step(self, batches: Dict[str, Union[ArrivalTrace, np.ndarray, Sequence[float]]]) -> EpochRecord:
        """Ingest the next epoch from raw operational batches.

        Epoch ``k`` accepts arrivals in its own window ``[t0, t1)``;
        everything else in a batch — non-finite, out-of-window (early
        *or* late), duplicate — is repaired away and counted, mirroring
        :func:`~repro.fleet.runner.sanitize_times`.  Every earlier
        epoch's arrivals lie below ``t0``, so a replayed batch is
        repaired away by the window alone.
        """
        k = self.horizon.epoch + 1
        t0, t1 = self.config.epoch_bounds(k)
        slices: Dict[str, np.ndarray] = {}
        for obj in self.catalog:
            raw = batches.get(obj.name)
            if raw is None:
                continue
            times = _times_of(raw)
            clean, repaired = sanitize_times(times, self.config.horizon_minutes)
            keep = clean[(clean >= t0) & (clean < t1)]
            self._ledgers[obj.name].repaired += repaired + int(clean.size - keep.size)
            slices[obj.name] = keep
        self._repaired_folded = True  # step() accounts repairs itself
        return self._process_epoch(k, slices)

    def run(
        self,
        workload: Dict[str, Union[ArrivalTrace, np.ndarray, Sequence[float]]],
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
        clean_by_name: Dict[str, np.ndarray] = {}
        for obj in self.catalog:
            raw = workload.get(obj.name)
            times = _EMPTY if raw is None else _times_of(raw)
            clean, repaired = sanitize_times(times, self.config.horizon_minutes)
            clean_by_name[obj.name] = clean
            if not self._repaired_folded:
                self._ledgers[obj.name].repaired += repaired
        self._repaired_folded = True

        wall0 = time.monotonic()
        accel_base = self.horizon.ingest_clock  # resumed runs pace from here
        for k in range(self.horizon.epoch + 1, self.config.num_epochs):
            if until_epoch is not None and k > until_epoch:
                return None
            t0, t1 = self.config.epoch_bounds(k)
            if accel is not None:
                due = (t1 - accel_base) / accel
                now = time.monotonic() - wall0
                if due > now:
                    time.sleep(due - now)
            slices = {
                name: clean[
                    np.searchsorted(clean, t0, side="left"):
                    np.searchsorted(clean, t1, side="left")
                ]
                for name, clean in clean_by_name.items()
            }
            self._process_epoch(k, slices)
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
        self._commit_all(math.inf)
        return self._make_record(0, drain=True)

    def report(self) -> LiveReport:
        fleet = FleetReport(
            policy=self.config.policy,
            delay_minutes=self.config.delay_minutes,
            horizon_minutes=self.config.horizon_minutes,
            objects=[self._ledgers[obj.name].result() for obj in self.catalog],
        )
        channels = {
            obj.name: self._ledgers[obj.name].channel_array()
            for obj in self.catalog
        }
        return LiveReport(
            config=self.config,
            fleet=fleet,
            channels=channels,
            records=list(self.records),
        )

    # -- checkpoint / restore --------------------------------------------------

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
            "objects": {
                obj.name: self._ledgers[obj.name].to_token() for obj in self.catalog
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def restore(cls, text: str) -> "LiveDaemon":
        """Rebuild a daemon from :meth:`checkpoint` output, replaying nothing.

        The restored daemon is indistinguishable from one that never
        stopped (same ledgers, records, digests, forests, planner state);
        calling :meth:`run` with the original workload continues exactly
        where the checkpoint left off.  Any inconsistency raises
        ``ValueError`` naming the offending field.
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
        unknown = sorted(present - {obj.name for obj in catalog})
        if unknown:
            raise token.error("objects", f"{unknown[0]!r} is not in the catalog")
        for obj in catalog:
            if obj.name not in present:
                raise ValueError(f"checkpoint is missing object {obj.name!r}")
            daemon._ledgers[obj.name] = _ObjectLedger.from_token(
                obj, config, objects.section(obj.name, f"objects[{obj.name!r}]")
            )
        ledgers = [daemon._ledgers[obj.name] for obj in catalog]
        if records:
            for key, total in (
                ("committed_counts", tuple(led.streams for led in ledgers)),
                ("committed_roots", sum(led.roots for led in ledgers)),
                ("repaired", sum(led.repaired for led in ledgers)),
            ):
                if getattr(records[-1], key) != total:
                    raise ValueError(
                        f"checkpoint field records[{epoch}].{key}: differs from "
                        f"the objects' counters ({total})"
                    )
        else:
            # before epoch 0 a ledger is a fresh one, but for the repairs
            # run() folds in ahead of its first epoch
            for obj, led in zip(catalog, ledgers):
                fresh = _ObjectLedger(obj, config)
                fresh.repaired = led.repaired
                want, got = fresh.to_token(), led.to_token()
                changed = [key for key in want if got[key] != want[key]]
                if changed:
                    raise ValueError(
                        f"checkpoint field objects[{obj.name!r}].{changed[0]}: "
                        "state ingested before epoch 0"
                    )
        derived = chain_digests(
            [led.committed_arrays() for led in ledgers],
            [rec.committed_counts for rec in records],
        )
        for i, (rec, want) in enumerate(zip(records, derived)):
            if rec.digest != want:
                raise ValueError(
                    f"checkpoint field records[{i}].digest: {rec.digest} does not "
                    f"chain over the carried committed intervals (re-derived {want})"
                )
        if token.text("chain_head") != (derived[-1] if derived else ""):
            raise token.error("chain_head", "is not the last record's digest")

        daemon.horizon.seek(epoch)
        if records and (
            records[-1].ingest_clock != daemon.horizon.ingest_clock
            or records[-1].fence != daemon.horizon.fence
        ):
            raise ValueError(
                f"checkpoint field records[{epoch}].ingest_clock: the clock or "
                f"fence differs from epoch {epoch}'s"
            )
        daemon.records = records
        # run() folds a workload's repairs in once, before its first
        # epoch.  A token with no record and no repair may predate that
        # fold; folding then is exact (a clean workload's fold adds 0).
        daemon._repaired_folded = bool(records) or any(led.repaired for led in ledgers)
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
