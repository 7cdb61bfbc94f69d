"""Sharded catalog runner: one batched engine pass per shard of objects.

The fleet question the paper's Section 5 poses — how many channels does a
*catalog* need for a given delay guarantee — multiplies one-trace
simulation by the catalog size.  This module groups the catalog into
*shards* (consecutive objects holding at most :data:`SHARD_ARRIVALS`
arrivals; a larger object is a shard of its own), fans them across
worker processes (one :func:`~repro.fleet.engine.simulate_batched` pass
per shard over a :class:`~repro.fleet.engine.RaggedTrace`, each object
in slot units of its own delay) and aggregates the flat interval arrays
into fleet-wide peak and profile.  Every folded object equals its
one-object run (:func:`object_run`) bit for bit.

Memory contract: workers return only per-object *summaries* plus the
stream interval arrays (O(streams), not O(requests)); per-client arrays
never leave the worker, and results are folded into the report as they
stream back — a shard holds at most max(:data:`SHARD_ARRIVALS`, largest
object) arrivals, so a 10^6-request catalog holds at most that many
clients' arrays in memory at a time (per worker).  Within one object
the per-client transients are a few arrays per client: the dyadic
build's member loop and the continuous replay verifier work one block
at a time, and the replay contract holds one object's replay at a time.  On the
flash-crowd run (``fleet --check --store``, immediate dyadic, one stream
per client, seed 1) the traced peak of the run and its replay contract
is about 139 B per client of the hottest object, the report and the
workload it must hold included.

Workloads come in two forms:

* a :class:`~repro.multiplex.Workload` (minutes), as the scenario
  library returns it or :meth:`~repro.multiplex.Workload.of` makes it of
  any title -> times mapping; a shard ships one zero-copy range of it;
* a columnar store (``store=``, the out-of-core route): the workload
  spooled to disk, or an existing store (its titles in any order) that
  workers read directly, so the parent never materialises the workload.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..core.validation import check_offsets, non_increasing_within
from ..multiplex import Catalog, MediaObject, Workload
from ..scale import columnar
from ..scale.columnar import StoreSlice
from ..simulation.channels import interval_profile, peak_concurrency
from .engine import BatchedResult, FleetPolicy, RaggedTrace, simulate_batched

__all__ = [
    "FleetObjectResult",
    "FleetReport",
    "install_task_fault_hook",
    "iter_fleet",
    "object_run",
    "pool_map",
    "run_fleet",
    "sanitize_times",
    "stored_workload",
    "stream_minutes",
]

_EMPTY = np.empty(0, dtype=np.float64)

#: burn-in fault injection point (see :mod:`repro.burnin.faults`): when
#: installed, the hook is shipped with every ``pool_map`` task and invoked
#: as ``hook(index, arg)`` in the executing process (worker or parent)
#: before the task body runs.  None in production.
_TASK_FAULT_HOOK: Optional[Callable] = None


def install_task_fault_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install (``None``: clear) the pool-task fault hook; returns the
    previous hook so callers can restore it.  The hook must be picklable
    (it travels to worker processes with each task)."""
    global _TASK_FAULT_HOOK
    previous = _TASK_FAULT_HOOK
    _TASK_FAULT_HOOK = hook
    return previous


def _fire_hook(hook: Callable, fault_points: Optional[Callable], index: int, arg) -> None:
    points = ((index, arg),) if fault_points is None else fault_points(index, arg)
    for i, a in points:
        hook(i, a)


def _invoke_hooked(payload) -> object:
    """Pooled task wrapper when a fault hook is installed (picklable)."""
    fn, hook, fault_points, index, arg = payload
    _fire_hook(hook, fault_points, index, arg)
    return fn(arg)


def pool_map(
    fn: Callable,
    args: Sequence,
    workers: int = 0,
    chunksize: int = 4,
    fault_points: Optional[Callable] = None,
) -> Iterator:
    """Map ``fn`` over ``args``, optionally sharded across processes.

    The shared fan-out/fold primitive of the fleet and sweep tiers:
    ``workers <= 1`` runs in-process (deterministic, zero pool overhead);
    larger values use a :class:`ProcessPoolExecutor`.  Results are always
    yielded **in argument order** regardless of completion order, so any
    fold over them is independent of the worker count.  ``fn`` and every
    argument must be picklable (module-level functions only).

    Worker-crash resilience: a task whose worker process dies mid-flight
    (hard ``os._exit``, OOM kill, segfault in native code) surfaces as
    :class:`BrokenProcessPool`.  Instead of propagating and losing the
    fold, the task at the fold frontier is retried **in-process** and the
    pool is rebuilt for the remainder; every crash advances the frontier
    by at least one task, so a pathological workload degrades to the
    deterministic serial path rather than failing.  Tasks must therefore
    be pure/idempotent — which the in-order fold contract already
    demands.  Ordinary exceptions raised *by* a task are not retried;
    they propagate to the caller as before.

    The fault hook fires once per task as ``hook(index, arg)``, or, for
    tasks that bundle several units of work, once per pair that the
    picklable ``fault_points(index, arg)`` returns, in the process that
    runs the task.
    """
    args = list(args)
    hook = _TASK_FAULT_HOOK
    if not (workers and workers > 1):
        for index, a in enumerate(args):
            if hook is not None:
                _fire_hook(hook, fault_points, index, a)
            yield fn(a)
        return
    # The pool machinery loads only when a run asks for worker processes.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    done = 0
    while done < len(args):
        if hook is None:
            payloads: Sequence = args[done:]
            task_fn = fn
        else:
            payloads = [
                (fn, hook, fault_points, i, a)
                for i, a in enumerate(args[done:], start=done)
            ]
            task_fn = _invoke_hooked
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(task_fn, payloads, chunksize=chunksize):
                    yield result
                    done += 1
            return
        except BrokenProcessPool:
            # The task at the frontier (or a chunk-mate that shared its
            # worker) took the process down.  Re-run it in-process —
            # results already yielded are untouched; chunk-mates re-run
            # in the fresh pool below.
            arg = args[done]
            if hook is not None:
                _fire_hook(hook, fault_points, done, arg)
            yield fn(arg)
            done += 1


@dataclass(frozen=True)
class FleetObjectResult:
    """One object's run, reduced to what fleet aggregation needs.

    ``starts``/``ends`` are the stream occupancy intervals in *minutes*
    on the common catalog timeline (the per-object slot is the delay).
    """

    name: str
    L: int
    delay_minutes: float
    clients: int
    streams: int
    roots: int
    total_units_minutes: float
    max_startup_delay_minutes: float
    starts: np.ndarray
    ends: np.ndarray
    #: malformed workload entries repaired away by :func:`sanitize_times`
    #: (non-finite, out-of-window, duplicate); 0 on a clean trace.
    repaired: int = 0

    @property
    def peak(self) -> int:
        return peak_concurrency(self.starts, self.ends)


@dataclass
class FleetReport:
    """Catalog-wide aggregation of batched runs."""

    policy: str
    delay_minutes: float
    horizon_minutes: float
    objects: List[FleetObjectResult] = field(default_factory=list)

    def _stacked(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.objects:
            return _EMPTY, _EMPTY
        starts = np.concatenate([o.starts for o in self.objects])
        ends = np.concatenate([o.ends for o in self.objects])
        return starts, ends

    @property
    def peak_channels(self) -> int:
        """Exact fleet-wide peak of simultaneously live streams."""
        starts, ends = self._stacked()
        return peak_concurrency(starts, ends)

    @property
    def total_units_minutes(self) -> float:
        return float(sum(o.total_units_minutes for o in self.objects))

    @property
    def clients(self) -> int:
        return sum(o.clients for o in self.objects)

    @property
    def streams(self) -> int:
        return sum(o.streams for o in self.objects)

    @property
    def repaired(self) -> int:
        """Total malformed workload entries repaired across the catalog."""
        return sum(o.repaired for o in self.objects)

    def max_startup_delay_minutes(self) -> float:
        return max(
            (o.max_startup_delay_minutes for o in self.objects), default=0.0
        )

    def profile(
        self, t0: float = 0.0, t1: Optional[float] = None, resolution: float = 1.0
    ) -> np.ndarray:
        """Per-bin live-stream counts (bin-occupancy rule, see
        :func:`~repro.simulation.channels.interval_profile`)."""
        starts, ends = self._stacked()
        return interval_profile(
            starts,
            ends,
            t0,
            self.horizon_minutes if t1 is None else t1,
            resolution,
        )

    def busiest_objects(self, k: int = 5) -> List[FleetObjectResult]:
        return sorted(self.objects, key=lambda o: -o.total_units_minutes)[:k]

    def render(self, top: int = 5) -> str:
        lines = [
            f"fleet report — policy={self.policy}  delay={self.delay_minutes:g} min"
            f"  horizon={self.horizon_minutes:g} min",
            f"  objects={len(self.objects)}  clients={self.clients}"
            f"  streams={self.streams}",
            f"  peak channels={self.peak_channels}"
            f"  total bandwidth={self.total_units_minutes:,.0f} stream-minutes",
            f"  max start-up delay={self.max_startup_delay_minutes():g} min",
            f"  busiest {top}:",
        ]
        for o in self.busiest_objects(top):
            lines.append(
                f"    {o.name:12s} clients={o.clients:>7d} streams={o.streams:>6d} "
                f"peak={o.peak:>4d} units={o.total_units_minutes:>12,.0f} min"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of NaN-free ``values``, without its first-call
    import of ``numpy.ma`` (tens of milliseconds): the same in-place sort
    of a copy, keeping the first of each run of equal values, so a
    ``-0.0``/``0.0`` tie keeps the one ``np.unique`` keeps."""
    out = np.sort(values)
    first = np.empty(out.size, dtype=bool)
    first[:1] = True
    np.not_equal(out[1:], out[:-1], out=first[1:])
    return out[first]


def sanitize_times(
    times: np.ndarray, horizon: float, offsets: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, ...]:
    """``(clean, repaired)`` — arrival times coerced onto the trace contract.

    The fleet ingests workloads from outside the library (deserialised
    traces, operator feeds); a malformed feed must degrade to the valid
    arrival multiset it contains, not crash the fold.  Non-finite and
    out-of-window entries are dropped, ordering is restored, and exact
    duplicates collapse — so a corruption that only *adds* garbage to or
    reorders a valid trace recovers the fault-free run exactly
    (``tests/burnin/test_faults.py`` asserts that equivalence).
    ``repaired`` counts the entries that had to go; 0 on any trace that
    already satisfies the contract.

    Ragged form: with ``offsets``, ``times`` holds several objects' feeds
    end to end (object ``k`` is ``times[offsets[k]:offsets[k + 1]]``);
    each is repaired on its own, ``repaired`` has one count per object,
    and a third array delimits the objects in ``clean``; ``offsets`` that
    do not run non-decreasing from 0 to ``times.size`` raise
    ``ValueError``.  In either form, a feed whose in-window entries
    already increase strictly is kept as it is (exactly what sorting and
    collapsing would return); only the others are sorted.
    """
    ts = np.asarray(times, dtype=np.float64)
    ragged = offsets is not None
    offsets = check_offsets(offsets, ts.size) if ragged else np.array([0, ts.size])
    ok = np.isfinite(ts)
    # & instead of chained comparisons: NaN must not reach the range test
    ok &= (ts >= 0.0) & (ts < horizon)
    kept = ts[ok]
    # each bound is its offset less the entries dropped before it
    bounds = offsets - np.searchsorted(np.flatnonzero(~ok), offsets)
    dec = non_increasing_within(kept, bounds)
    if dec.any():
        parts = [kept[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        unsorted = np.zeros(len(parts), dtype=bool)
        unsorted[np.searchsorted(bounds, np.flatnonzero(dec), side="right") - 1] = True
        for k in np.flatnonzero(unsorted).tolist():
            parts[k] = _sorted_distinct(parts[k])
        kept = np.concatenate(parts)
        bounds = np.concatenate(([0], np.cumsum([p.size for p in parts])))
    repaired = np.diff(offsets) - np.diff(bounds)
    if ragged:
        return kept, repaired, bounds
    return kept, int(repaired[0])


@contextlib.contextmanager
def stored_workload(
    catalog: Catalog,
    workload: Mapping,
    root=None,
) -> Iterator[Dict[str, StoreSlice]]:
    """Context-managed columnar-store shipping of an explicit workload.

    The out-of-core route: the parent spools each object's times into a
    :mod:`repro.scale.columnar` store under a fresh private directory
    (inside ``root``, or the system temp dir) and yields per-object
    :class:`StoreSlice` addresses; workers attach the segment once and
    map their column zero-copy.  This works under any start method —
    workers open the store by path — and the data never transits pickles.

    The store directory is removed on **every** exit path — a worker
    crash mid-attach, an exception in the fold, generator abandonment —
    and worker-held mmaps keep reading the unlinked inode harmlessly
    until the process exits (``tests/fleet/test_store_faults.py`` kills
    workers at every fold index and asserts the directory is gone).
    """
    workload = Workload.of([obj.name for obj in catalog], workload)
    if root is not None:
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
    base = tempfile.mkdtemp(prefix="repro-store-", dir=root)
    try:
        columns = np.split(workload.times, workload.offsets[1:-1])
        yield columnar.write_store(base, zip(workload.names, columns))
    finally:
        columnar.detach(base)  # drop any parent-side attachment first
        shutil.rmtree(base, ignore_errors=True)


def object_run(
    obj: MediaObject,
    times_minutes: np.ndarray,
    delay_minutes: float,
    horizon_minutes: float,
    policy: FleetPolicy,
) -> Tuple[Optional[BatchedResult], int]:
    """One object's batched run, in slot units of its delay guarantee.

    Returns ``(result, repaired)``; ``result`` is None only for the
    zero-arrival ``general-offline`` case (the optimum is undefined over
    zero served slots — the engine and the event policy both raise; a
    quiet object simply contributes nothing to the fleet).  Public so the
    burn-in contract layer can replay-verify the realised forests behind
    a folded :class:`FleetReport`.
    """
    L = obj.units(delay_minutes)
    clean, repaired = sanitize_times(times_minutes, horizon_minutes)
    if clean.size == 0 and policy.kind == "general-offline":
        return None, repaired
    ts, horizons = _slot_units(clean, np.array([0, clean.size]), delay_minutes, horizon_minutes)
    trace = ArrivalTrace(times=ts, horizon=float(horizons[0]))
    return simulate_batched(L, trace, policy), repaired


def _slot_units(
    clean: np.ndarray, offsets: np.ndarray, delay: float, horizon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival minutes and per-object horizons in slot units of the delay
    guarantee, for :func:`object_run` and the shard pass alike.  Float
    division can push a last arrival onto its horizon; the trace contract
    is arrivals strictly inside ``[0, horizon)``, so that horizon moves up."""
    ts = clean / delay
    horizons = np.full(offsets.size - 1, horizon / delay)
    busy = np.diff(offsets) > 0
    last = ts[offsets[1:][busy] - 1]
    horizons[busy] = np.where(
        last >= horizons[busy], np.nextafter(last, np.inf), horizons[busy]
    )
    return ts, horizons


#: Arrival budget of one pool task, a *shard*: consecutive catalog
#: objects are grouped until the next one would take the shard past it,
#: and an object larger than the budget is a shard of its own.  Shards
#: depend only on arrival counts, never on timing or the worker count.
SHARD_ARRIVALS = 1 << 16


def _shards(entries: Sequence, sizes: List[float], budget: float) -> List[tuple]:
    """Consecutive ``entries`` grouped into runs of at most ``budget`` in
    total ``sizes`` (:data:`SHARD_ARRIVALS` arrivals for a shard), one
    oversized entry alone."""
    shards: List[tuple] = []
    current: List = []
    total = 0.0
    for entry, size in zip(entries, sizes):
        if current and total + size > budget:
            shards.append(tuple(current))
            current, total = [], 0.0
        current.append(entry)
        total += size
    if current:
        shards.append(tuple(current))
    return shards


def _shard_points(index: int, shard) -> List[tuple]:
    """Fault-hook points of a shard task: one ``(index, object)`` entry
    per catalog object it holds (``pool_map``'s ``fault_points``)."""
    return [(i, (i, obj)) for i, obj in enumerate(shard[1], start=shard[0])]


def _shard_times(columns, horizon) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(clean, repaired, offsets)``: a shard's arrival times end to end
    (see :func:`_fleet_shards`), through :func:`sanitize_times`."""
    if isinstance(columns, tuple):
        return sanitize_times(columns[0], horizon, columns[1])
    views: List[np.ndarray] = []
    releases: List[Tuple[columnar.ColumnarStore, StoreSlice]] = []
    try:
        for source in columns:
            if isinstance(source, StoreSlice):
                # Columnar store: attach once per process (cached) and take
                # a zero-copy view; the pages go back once the shard's
                # times are sanitized (a copy).
                store = columnar.attach(source.root)
                releases.append((store, source))
                source = store.view(source)
            views.append(source)
        offsets = np.concatenate(([0], np.cumsum([v.size for v in views])))
        times = views[0] if len(views) == 1 else np.concatenate(views)
        return sanitize_times(times, horizon, offsets)
    finally:
        for store, sl in releases:
            store.release_slice(sl)


def stream_minutes(
    arrivals: np.ndarray, lengths: np.ndarray, delay: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Stream ``(starts, ends)`` in minutes from slot-unit arrivals and
    stream lengths.

    The fleet fold, the live daemon's commit and the replay contract all
    take their intervals from here, so they agree bit for bit:
    ``arrivals * delay + lengths * delay`` differs from ``(arrivals +
    lengths) * delay`` in the last ULP whenever ``delay`` is not a power
    of two.
    """
    return arrivals * delay, (arrivals + lengths) * delay


def _run_shard(shard) -> List[FleetObjectResult]:
    """Module-level worker entry (picklable for process pools): one
    engine pass over a shard of objects, folded per object."""
    _first, objects, columns, delay, horizon, policy = shard
    clean, repaired, offsets = _shard_times(columns, horizon)
    ts, horizons = _slot_units(clean, offsets, delay, horizon)
    L = [obj.units(delay) for obj in objects]
    result = simulate_batched(L, RaggedTrace(ts, offsets, horizons), policy)
    if result.forest is None:
        starts_all = ends_all = _EMPTY
    else:
        starts_all, ends_all = stream_minutes(
            result.forest.arrivals, result.lengths, delay
        )
    # One subtraction a shard: a title's bandwidth is the sum of its own
    # slice, the same pairwise sum bit for bit as a fresh ``ends - starts``.
    lengths = ends_all - starts_all
    bounds = result.node_offsets.tolist()
    clients, roots = result.clients.tolist(), result.roots.tolist()
    waits, repaired = result.max_startup_delay.tolist(), repaired.tolist()
    out = []
    for j, obj in enumerate(objects):
        lo, hi = bounds[j], bounds[j + 1]
        out.append(
            FleetObjectResult(
                name=obj.name,
                L=L[j],
                delay_minutes=delay,
                clients=clients[j],
                streams=hi - lo,
                roots=roots[j],
                total_units_minutes=float(np.add.reduce(lengths[lo:hi])),
                max_startup_delay_minutes=waits[j] * delay,
                starts=starts_all[lo:hi],
                ends=ends_all[lo:hi],
                repaired=repaired[j],
            )
        )
    return out


def _fleet_shards(
    catalog: Catalog,
    workload: Optional[Workload],
    delay_minutes: float,
    horizon_minutes: float,
    policy: FleetPolicy,
    views: Optional[Dict[str, StoreSlice]] = None,
) -> List[tuple]:
    """Pool tasks ``(first, objects, columns, delay, horizon, policy)``,
    one per shard of the catalog's ``objects`` from index ``first`` on:
    ``columns`` is a zero-copy ``(times, offsets)`` range of the
    ``workload``, or, from a store, a :class:`StoreSlice` per object."""
    objects = list(catalog)
    if workload is None:
        # Store-only workload: every object's times come from the
        # columnar store by name; absent objects are quiet.
        sources = [views.get(obj.name, _EMPTY) for obj in objects]
        sizes = [s.count if isinstance(s, StoreSlice) else 0 for s in sources]
    else:
        sizes = np.diff(workload.offsets).tolist()
    tasks = []
    for shard in _shards(range(len(objects)), sizes, SHARD_ARRIVALS):
        lo, hi = shard[0], shard[-1] + 1
        if workload is None:
            columns = sources[lo:hi]
        else:
            o = workload.offsets[lo : hi + 1]
            columns = (workload.times[o[0] : o[-1]], o - o[0])
        tasks.append((lo, objects[lo:hi], columns, delay_minutes, horizon_minutes, policy))
    return tasks


def iter_fleet(
    catalog: Catalog,
    delay_minutes: float,
    horizon_minutes: float,
    policy: Optional[FleetPolicy] = None,
    workload: Optional[Mapping] = None,
    workers: int = 0,
    store=None,
) -> Iterator[FleetObjectResult]:
    """Stream per-object results in catalog order as workers fold them.

    The incremental core of :func:`run_fleet`: each
    :class:`FleetObjectResult` is yielded the moment its shard returns,
    so a consumer can accumulate peaks/profiles
    (:func:`~repro.simulation.channels.interval_profile` on stacked
    intervals) or spill results without ever holding a full
    :class:`FleetReport`.  A columnar-store spool is torn down when the
    generator finishes **or is abandoned** — the ``finally`` runs on
    ``close()``/GC, so early exits leak nothing.

    ``store`` selects how the workload reaches the shards; a call with
    neither a ``workload`` nor a ``store`` raises ``ValueError``:

    * ``None`` — each shard carries its objects' times as one range of
      the workload (pickled to the worker when sharded, on every start method);
    * ``True`` or a directory path, with ``workload`` — the workload is
      spooled through a private on-disk columnar store
      (:func:`stored_workload`; the path is the spool's parent
      directory) and workers attach it instead of receiving the data;
    * a directory created by :mod:`repro.scale.columnar`, with
      ``workload=None`` — objects read their columns straight from the
      existing store; the parent only ever touches the index, so a
      10^7-client catalog run never materialises the workload in any
      process.
    """
    for name, value in (("delay_minutes", delay_minutes), ("horizon_minutes", horizon_minutes)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if workload is None and (store is None or store is False):
        raise ValueError("need a workload mapping or a columnar store (store=)")
    if workload is not None:
        workload = Workload.of([obj.name for obj in catalog], workload, horizon_minutes)
    policy = policy or FleetPolicy.batched_dyadic()
    with contextlib.ExitStack() as stack:
        views: Optional[Dict[str, StoreSlice]] = None
        if store is not None and store is not False:
            if workload is not None:
                root = None if store is True else os.fspath(store)
                views = stack.enter_context(
                    stored_workload(catalog, workload, root=root)
                )
                workload = None  # everything ships through the store
            else:
                views = columnar.store_slices(store)
        shards = _fleet_shards(
            catalog, workload, delay_minutes, horizon_minutes, policy, views
        )
        for results in pool_map(
            _run_shard, shards, workers=workers, chunksize=1,
            fault_points=_shard_points,
        ):
            yield from results


def run_fleet(
    catalog: Catalog,
    delay_minutes: float,
    horizon_minutes: float,
    policy: Optional[FleetPolicy] = None,
    workload: Optional[Mapping] = None,
    workers: int = 0,
    store=None,
) -> FleetReport:
    """Serve a whole catalog through the batched kernel, optionally sharded.

    ``workers <= 1`` runs in-process (deterministic, no pool overhead);
    larger values fan objects across a process pool.  Results are folded
    into the report in catalog order as they complete, so output is
    independent of worker count — ``tests/fleet/test_runner.py`` asserts
    byte-identical reports for ``workers=0``, ``workers=2`` and
    ``workers=2`` with ``store=True``.

    Workload values (read through :meth:`~repro.multiplex.Workload.of`)
    may be :class:`ArrivalTrace` objects or raw arrays; either way the
    times pass through :func:`sanitize_times` before simulation, so a
    malformed external feed (NaN, unsorted, duplicated, out-of-window
    entries) degrades to its valid arrival multiset — counted per object
    in ``FleetObjectResult.repaired`` — instead of crashing the fold.  A
    key that is not in the catalog, or a value that is not a 1-D array of
    real numbers, raises ``ValueError`` before any work.  A worker process
    dying mid-fold is retried in-process (see :func:`pool_map`); a
    columnar-store spool is torn down on every exit path (see :func:`stored_workload`).

    ``store`` (see :func:`iter_fleet`) routes workload shipping through
    the out-of-core columnar store: pass ``True``/a spool directory with
    a ``workload``, or an existing store directory with
    ``workload=None`` to run straight off disk; with neither a workload
    nor a store it raises ``ValueError``.  Reports are
    bit-identical to the in-memory path for every store write-buffer
    size and worker count (``tests/scale/test_store_equivalence.py``).
    """
    report = FleetReport(
        policy=(policy or FleetPolicy.batched_dyadic()).kind,
        delay_minutes=delay_minutes,
        horizon_minutes=horizon_minutes,
    )
    for result in iter_fleet(
        catalog,
        delay_minutes,
        horizon_minutes,
        policy=policy,
        workload=workload,
        workers=workers,
        store=store,
    ):
        report.objects.append(result)
    return report
