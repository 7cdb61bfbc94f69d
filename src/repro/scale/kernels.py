"""Hot-loop kernels of the fleet engine and the replay verifiers.

Five loops the flat refactors left on the hot paths live here, each a
pure function of its inputs with one numpy (or, for the inherently
sequential passes, list-loop) implementation:

* :class:`SortedTable` — ``searchsorted(side="right")`` by bucket-table
  lookup, for the Zipf title draw of
  :func:`repro.multiplex.split_requests`, slot bucketing and the dyadic
  interval classification of :mod:`repro.fastpath.dyadic`;
* :func:`bucket_slots` — slot bucketing in
  :func:`repro.fleet.engine.simulate_batched`;
* :func:`forest_z` — the subtree-maximum pass of flat-forest
  construction;
* :func:`replay_walk` — the per-tree-level replay demand walk of
  :mod:`repro.fastpath.replay`;
* :func:`hysteresis_scan` — the sequential mode scan that cuts a hybrid
  run of :func:`repro.fleet.engine.simulate_batched` into segments.

``tests/scale/test_kernels.py`` checks each against an independent
reference (``np.searchsorted``, two-pointer bucketing, per-client walk,
ancestor walk, the event policy's deque window) on adversarial grids.

numpy is the only backend.  :func:`configure_backend` and
:func:`active_backend` stay for callers that request or record one
(perfbench, sweep results, benchmark rows), whose outputs keep their
shape.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..core.validation import check_count, check_offsets

__all__ = [
    "SortedTable",
    "active_backend",
    "configure_backend",
    "bucket_slots",
    "forest_z",
    "hysteresis_scan",
    "replay_walk",
]


def configure_backend(name: str = "auto") -> str:
    """Check a kernel backend request; returns the backend in use.

    ``auto`` and ``numpy`` both mean numpy, the only backend; any other
    name raises ``ValueError``.
    """
    if name not in ("auto", "numpy"):
        raise ValueError(f"unknown backend {name!r}; the kernels run on numpy")
    return "numpy"


def active_backend() -> str:
    """The backend the kernels run on: always ``"numpy"``."""
    return "numpy"


#: :meth:`SortedTable.index` bisects key arrays shorter than this, and
#: than ``LOOKUP_KEYS_PER_BUCKET`` keys per bucket-table entry: a bucket
#: table costs about one key's lookup per entry to build, and a small
#: call (a sweep point's slot table, a live epoch's dyadic level) would
#: pay for it and never earn it back.
LOOKUP_MIN_KEYS = 2**12
LOOKUP_KEYS_PER_BUCKET = 4

#: The bucket table's size cap, in entries (1 MB of intp).
MAX_BUCKETS = 2**17

#: A table whose fullest bucket holds more distinct entries than this is
#: bisected: each one costs another pass over the keys.
MAX_WALK = 16

#: Keys are looked up this many at a time, so every temporary is
#: cache-sized and the output is the only key-sized array a call makes.
LOOKUP_BLOCK = 2**14


class SortedTable:
    """``np.searchsorted(table, keys, side="right")``, looked up instead of
    bisected.

    ``table`` is a 1-D, finite, non-decreasing float64 array (ties
    allowed; anything else is a ``ValueError``).  :meth:`index` returns
    exactly what ``np.searchsorted`` returns for every non-NaN float64
    key, ``-0.0``, ``+-inf``, negatives and subnormals included.

    A non-negative float's int64 bit pattern orders like the float, so
    ``bits >> (52 - m)`` cuts the positive axis into buckets at most
    ``2 ** -m`` wide relative to the values in them.  ``m`` is the
    smallest that keeps the table's smallest relative gap between
    distinct entries out of one bucket (at most 51, so that a shifted
    pattern never overflows when offset), lowered until the bucket table
    has at most ``MAX_BUCKETS`` entries.  A key's bucket, clamped to
    between one bucket below ``table[0]``'s and one above
    ``table[-1]``'s (negative keys and ``-0.0`` have negative patterns,
    ``+inf`` one above every finite float's), gives the exact count of
    distinct entries below that bucket's lowest float.  Exact
    comparisons against the NaN-padded distinct entries then walk the
    count up, one step per distinct entry the fullest bucket holds: one
    step when no bucket holds two, which the bucket table's builder
    counts.  With ties, a rank table turns the count of distinct entries
    into the count of entries.

    Bisected instead: key arrays shorter than ``max(LOOKUP_MIN_KEYS,
    LOOKUP_KEYS_PER_BUCKET * bucket entries)``, where the bucket table
    costs more than it saves; tables with a non-positive entry (or none),
    whose bit patterns do not order like their values; and tables whose
    fullest bucket holds more than ``MAX_WALK`` distinct entries.  The
    bucket table is built on the first call that takes the lookup, and
    kept.
    """

    def __init__(self, table) -> None:
        table = np.ascontiguousarray(table, dtype=np.float64)
        if table.ndim != 1 or not (
            np.isfinite(table).all() and (table[1:] >= table[:-1]).all()
        ):
            raise ValueError("a sorted table must be 1-D, finite and non-decreasing")
        self.table = table
        # None: not planned yet; False: always bisect.
        self._plan = None if table.size and table[0] > 0 else False
        self._walk = None

    def _make_plan(self) -> None:
        """Distinct entries, bucket shift and clamped bucket range."""
        t = self.table
        new = np.empty(t.size, dtype=bool)
        new[0] = True
        np.not_equal(t[1:], t[:-1], out=new[1:])
        distinct = t[new]
        m = 0
        if distinct.size > 1:
            gap = float(((distinct[1:] - distinct[:-1]) / distinct[1:]).min())
            m = min(51, math.ceil(-math.log2(gap)))
        bits = distinct.view(np.int64)
        while True:
            shift = 52 - m
            lo = int(bits[0] >> shift) - 1
            hi = int(bits[-1] >> shift) + 1
            if hi - lo < MAX_BUCKETS or m == 0:
                break
            m -= 1
        self._plan = (distinct, shift, lo, hi)

    def _make_walk(self) -> None:
        """The bucket table: per bucket, the count of distinct entries
        below its lowest float (its predecessors' occupancy summed)."""
        distinct, shift, lo, hi = self._plan
        occupancy = np.bincount((distinct.view(np.int64) >> shift) - lo, minlength=hi - lo + 1)
        steps = int(occupancy.max())
        if steps > MAX_WALK:
            self._plan = False
            return
        below = np.zeros(hi - lo + 1, dtype=np.intp)
        np.cumsum(occupancy[:-1], out=below[1:])
        rank = None
        if distinct.size < self.table.size:
            t = self.table
            last = np.append(t[1:] != t[:-1], True)
            rank = np.concatenate(([0], np.flatnonzero(last) + 1))
        self._walk = (shift, lo, below, np.append(distinct, np.nan), steps, rank)

    def _looks_up(self, nkeys: int) -> bool:
        """Whether ``nkeys`` keys take the lookup, planning and building
        the bucket table the first time a call is large enough."""
        if self._plan is None and nkeys >= LOOKUP_MIN_KEYS:
            self._make_plan()
        if not self._plan:
            return False
        _, _, lo, hi = self._plan
        if nkeys < max(LOOKUP_MIN_KEYS, LOOKUP_KEYS_PER_BUCKET * (hi - lo + 1)):
            return False
        if self._walk is None:
            self._make_walk()
        return self._walk is not None

    def index(self, keys) -> np.ndarray:
        """``np.searchsorted(self.table, keys, side="right")`` for an array
        of float64 ``keys``, as an intp array of its shape."""
        keys = np.asarray(keys, dtype=np.float64)
        if not self._looks_up(keys.size):
            return np.searchsorted(self.table, keys, side="right")
        shift, lo, below, padded, steps, rank = self._walk
        out = np.empty(keys.shape, dtype=np.intp)
        flat_keys, flat_out = keys.reshape(-1), out.reshape(-1)
        for s in range(0, keys.size, LOOKUP_BLOCK):
            k = flat_keys[s : s + LOOKUP_BLOCK]
            c = flat_out[s : s + LOOKUP_BLOCK]
            # shift >= 1, so no bucket offset overflows int64
            bucket = k.view(np.int64) >> shift
            bucket -= lo
            np.take(below, bucket, mode="clip", out=c)  # the clamp
            for _ in range(steps):
                c += np.take(padded, c) <= k
            if rank is not None:
                c[...] = rank[c]
        return out


def bucket_slots(
    times: np.ndarray,
    slot_ends: np.ndarray,
    offsets: Optional[np.ndarray] = None,
    nslots: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """``(client_slot, served_idx)`` for sorted arrivals against slot ends.

    ``client_slot[i]`` is the slot whose end serves arrival ``i`` under
    the event ordering: a SlotEnd fires before an Arrival at the same
    time, so an arrival exactly on a boundary belongs to the *next* slot,
    hence ``side="right"`` against the float end times.  Arrivals past
    the last slot end are never flushed by any SlotEnd (the event loop
    parks them forever): -1.  ``served_idx`` is the sorted non-empty
    slots.  ``times`` must be non-decreasing (the :class:`ArrivalTrace`
    contract) and ``slot_ends`` strictly increasing.

    Ragged form: with ``offsets``, ``times`` holds several objects'
    arrivals end to end (object ``k`` is ``times[offsets[k]:offsets[k +
    1]]``, each non-decreasing), object ``k`` has the first ``nslots[k]``
    entries of ``slot_ends`` as its slots, and a third array comes back:
    ``served_idx`` is every object's served slots end to end and
    ``served_offsets`` (``len(offsets)`` entries) delimits them.

    ``client_slot`` is non-decreasing within an object, with any -1
    entries in its tail, so the served slots are the starts of its runs:
    one comparison per arrival, no ``np.unique``.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    slot_ends = np.ascontiguousarray(slot_ends, dtype=np.float64)
    ragged = offsets is not None
    if ragged:
        offsets = check_offsets(offsets, times.size)
        nslots = np.ascontiguousarray(nslots, dtype=np.intp)
        if nslots.shape != (offsets.size - 1,) or not (
            (nslots >= 0).all() and (nslots <= slot_ends.size).all()
        ):
            raise ValueError("need one slot count per object, within len(slot_ends)")
    else:
        offsets = np.array([0, times.size], dtype=np.intp)
        nslots = np.array([slot_ends.size], dtype=np.intp)
    client_slot = SortedTable(slot_ends).index(times)
    limit = nslots[0] if not ragged else np.repeat(nslots, np.diff(offsets))
    client_slot[client_slot >= limit] = -1
    client_slot = client_slot.astype(np.intp, copy=False)
    # A run starts at each object's first arrival and wherever the slot
    # changes; runs of -1 are not served.
    head = np.empty(times.size, dtype=bool)
    if times.size:
        head[0] = True
        np.not_equal(client_slot[1:], client_slot[:-1], out=head[1:])
        head[offsets[:-1][offsets[:-1] < times.size]] = True
        head &= client_slot >= 0
    heads = np.flatnonzero(head)
    served_idx = client_slot[heads]
    if not ragged:
        return client_slot, served_idx
    return client_slot, served_idx, np.searchsorted(heads, offsets)


def forest_z(arrivals: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Subtree maxima ``z[i] = max arrival in subtree(i)`` in one reverse pass.

    The construction half of "slot bucketing + flat-forest construction":
    builders that cannot hand a trusted ``z`` to
    :class:`~repro.fastpath.flat_forest.FlatForest` pay this O(n) pass on
    every forest they create.  Inherently sequential (a child's maximum
    feeds its parent's), so it runs as a plain list loop.
    """
    zl = arrivals.tolist()
    pl = parent.tolist()
    for i in range(len(zl) - 1, 0, -1):
        p = pl[i]
        if p >= 0:
            zi = zl[i]
            if zi > zl[p]:
                zl[p] = zi
    return np.asarray(zl, dtype=np.float64)


def hysteresis_scan(
    counts: np.ndarray, window: int, rate_high: float, rate_low: float
) -> np.ndarray:
    """Per-slot DG/dyadic mode bits for the hybrid policy, in one pass.

    ``counts[k]`` is the number of arrivals slot ``k`` caught
    (``np.bincount`` over ``bucket_slots`` output); the return is an
    int8 array with ``mode[k] = 1`` when slot ``k`` is served in DG mode
    and 0 for dyadic — exactly the trajectory the event-driven
    ``HybridPolicy`` realises (append count, update mode with hysteresis,
    serve under the updated mode).  The rate at slot ``k`` is the integer
    sum of the last ``min(k+1, window)`` counts divided by that length —
    int/int division, so it and the oracle's running-sum ``_rate``
    evaluate the identical IEEE quotient.  Inherently sequential (the
    mode bit feeds back), like :func:`forest_z`: a plain list loop.
    """
    check_count(window, "window")
    if not 0 <= rate_low <= rate_high:
        raise ValueError("need 0 <= rate_low <= rate_high")
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    mode = np.empty(counts.size, dtype=np.int8)
    cl = counts.tolist()
    running = 0
    m = 0
    for k in range(len(cl)):
        running += cl[k]
        if k >= window:
            running -= cl[k - window]
        length = k + 1 if k + 1 < window else window
        rate = running / length
        if m == 0:
            if rate >= rate_high:
                m = 1
        elif rate < rate_low:
            m = 0
        mode[k] = m
    return mode


def replay_walk(
    x: np.ndarray,
    par: np.ndarray,
    lengths: np.ndarray,
    L: float,
    model: str,
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """The replay demand walk over a flat forest, one tree level per pass.

    Returns ``(demanded, t2max, used_total, fail_client, fail_stream,
    fail_demand)``:

    * ``demanded[u]`` — the largest part any client ever takes from
      stream ``u`` (each client's own stream included);
    * ``t2max[i]`` — client ``i``'s last two-delivery slot (-inf when it
      never listens to two streams; receive-two only);
    * ``used_total`` — number of (client, ancestor) stream uses beyond
      the client's own stream (the oracle's ``streams_used`` count);
    * the ``fail_*`` triples — every over-demand ``(client node, stream
      node, demand)``, the numeric halves of the oracle's failure
      messages (own-stream failures first, then level by level).
    """
    if model not in ("receive-two", "receive-all"):
        raise ValueError(f"unknown model {model!r}")
    n = x.size
    nonroot = par >= 0
    fail_client: list = []
    fail_stream: list = []
    fail_demand: list = []

    p_safe = np.where(nonroot, par, 0)
    own_demand = np.where(nonroot, np.minimum(x - x[p_safe], float(L)), float(L))
    demanded = own_demand.copy()
    bad = np.nonzero(own_demand > lengths)[0]
    for i in bad.tolist():
        fail_client.append(i)
        fail_stream.append(i)
        fail_demand.append(float(own_demand[i]))

    cl = np.nonzero(nonroot)[0]
    wprev = cl
    wcur = par[cl]
    t2max = np.full(n, -np.inf)
    used_total = 0
    while cl.size:
        y = x[cl]
        a_prev = x[wprev]
        a_cur = x[wcur]
        pcur = par[wcur]
        cur_is_root = pcur < 0
        q = x[np.where(cur_is_root, 0, pcur)]
        if model == "receive-two":
            used = (2 * y - a_prev - a_cur) < L
            demand = np.where(
                cur_is_root, float(L), np.minimum(2 * y - a_cur - q, float(L))
            )
            tu = np.minimum(2 * y - a_cur, a_cur + L)
            valid = tu > 2 * y - a_prev
            np.maximum.at(t2max, cl[valid], tu[valid])
        else:  # receive-all (Lemma 17 programs)
            used = (y - a_cur) < L
            demand = np.where(
                cur_is_root, float(L), np.minimum(y - q, float(L))
            )
        used_total += int(np.count_nonzero(used))
        fail = used & (demand > lengths[wcur])
        for j in np.nonzero(fail)[0].tolist():
            fail_client.append(int(cl[j]))
            fail_stream.append(int(wcur[j]))
            fail_demand.append(float(demand[j]))
        np.maximum.at(demanded, wcur[used], demand[used])
        step = pcur >= 0
        cl = cl[step]
        wprev = wcur[step]
        wcur = pcur[step]
    return (
        demanded,
        t2max,
        used_total,
        np.asarray(fail_client, dtype=np.intp),
        np.asarray(fail_stream, dtype=np.intp),
        np.asarray(fail_demand, dtype=np.float64),
    )
