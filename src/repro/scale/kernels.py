"""Backend-selected hot-loop kernels: numba JIT with a numpy/pure-Python
fallback contract-tested equal.

ROADMAP item 1 names the three kernels that stayed pure-numpy-bound after
the flat refactors: slot bucketing + flat-forest construction in
:func:`repro.fleet.engine.simulate_batched`, the per-tree-level replay
algebra in :mod:`repro.fastpath.replay`, and the Knuth window scan in
:mod:`repro.fastpath.general`; the segmented hybrid engine adds the
sequential hysteresis mode scan (:func:`hysteresis_scan`, driving
:func:`repro.fleet.engine.simulate_segmented`).  This module carries
each of them twice:

* a **scalar body** written in the numba-compatible subset of Python
  (plain loops over contiguous arrays, no allocation beyond outputs) —
  compiled with ``numba.njit`` when numba is importable, and still
  runnable (slowly) as plain Python so numpy-only environments can
  contract-test the exact code that would be JIT-compiled;
* the **fallback path** — the vectorised numpy (or, for the inherently
  sequential passes, list-loop) implementation that was the production
  code before this module existed.

Backend: whatever the platform has — numba when it imports (the
``repro[fast]`` extra installs it), numpy otherwise, with a one-time
notice.  No option selects it; :func:`configure_backend` is the seam
through which tests and benchmarks compare the two.  Every public kernel
is a pure function of its inputs and the two backends are
**bit-identical** by construction: the scalar bodies evaluate the same
IEEE expressions in the same association order as the fallbacks
(``tests/scale/test_kernels.py`` asserts equality on adversarial grids
for every kernel, on the plain-Python bodies always and on the
JIT-compiled ones whenever numba is present).
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

import numpy as np

from ..core.validation import check_offsets

__all__ = [
    "HAVE_NUMBA",
    "active_backend",
    "configure_backend",
    "bucket_slots",
    "forest_z",
    "hysteresis_scan",
    "knuth_tables",
    "replay_walk",
]

_log = logging.getLogger("repro.scale")

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # graceful degradation (satellite contract)
    _njit = None
    HAVE_NUMBA = False
    _log.info(
        "numba is not installed — repro.scale.kernels falls back to the "
        "pure-numpy backend (install the `repro[fast]` extra to enable "
        "the JIT kernels)"
    )

#: the active backend: "numba" or "numpy" (``auto`` in every new process).
_BACKEND = "numba" if HAVE_NUMBA else "numpy"


def configure_backend(name: str = "auto") -> str:
    """Select the kernel backend; returns the backend now active.

    ``auto`` picks numba when importable, else numpy; ``numba`` without
    numba installed raises ``ValueError``.  Tests and benchmarks use this
    to compare the backends; every fresh process starts on ``auto``.
    """
    global _BACKEND
    if name not in ("auto", "numpy", "numba"):
        raise ValueError(f"unknown backend {name!r}; choose auto|numpy|numba")
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("backend 'numba' requested but numba is not installed")
    _BACKEND = "numba" if HAVE_NUMBA and name != "numpy" else "numpy"
    return _BACKEND


def active_backend() -> str:
    """The backend public kernels dispatch to ("numpy" or "numba")."""
    return _BACKEND


# ---------------------------------------------------------------------------
# scalar bodies (numba-compatible; compiled below when numba is present)
# ---------------------------------------------------------------------------


def _bucket_slots_body(times, offsets, nslots, slot_ends, client_slot):
    """Two-pointer slot bucketing over sorted arrivals, object by object.

    Exactly ``searchsorted(slot_ends[:nslots[k]], times, side="right")``
    per object ``k`` (``times[offsets[k]:offsets[k + 1]]``) with the
    past-the-last-slot -1 rule: ``client_slot[i]`` is the first slot end
    strictly after ``times[i]`` (SlotEnd fires before Arrival at equal
    timestamps).  The pointer restarts at every object, because each
    object's arrivals are one sorted run of their own.
    """
    for k in range(nslots.shape[0]):
        ns = nslots[k]
        j = 0
        for i in range(offsets[k], offsets[k + 1]):
            t = times[i]
            while j < ns and slot_ends[j] <= t:
                j += 1
            client_slot[i] = j if j < ns else -1


def _forest_z_body(arrivals, parent, z):
    """Reverse subtree-maximum propagation (children have larger indices)."""
    for i in range(arrivals.shape[0] - 1, 0, -1):
        p = parent[i]
        if p >= 0 and z[i] > z[p]:
            z[p] = z[i]


def _hysteresis_scan_body(counts, window, rate_high, rate_low, mode):
    """Sequential sliding-window rate scan with hysteresis.

    The mode recurrence of ``HybridPolicy``: at slot ``k`` the window
    holds the last ``min(k+1, window)`` per-slot arrival counts
    *including* slot ``k`` (the policy appends before deciding), the
    rate is their integer sum over the window length (one exact int/int
    IEEE division — identical to ``sum(deque)/len(deque)``), and the
    mode bit flips dyadic->dg at ``rate >= rate_high``, dg->dyadic at
    ``rate < rate_low``.  ``mode[k]`` is the bit the slot is *served*
    under (1 = dg).
    """
    running = 0
    m = 0
    for k in range(counts.shape[0]):
        running += counts[k]
        if k >= window:
            running -= counts[k - window]
        length = k + 1 if k + 1 < window else window
        rate = running / length
        if m == 0:
            if rate >= rate_high:
                m = 1
        elif rate < rate_low:
            m = 0
        mode[k] = m


def _knuth_tables_body(ts, cost, split):
    """The Knuth-windowed interval DP of ``fastpath.general`` on 2-D arrays.

    Same expressions, same association order, same ``<=`` largest-h
    tie-break as the list-based ``_knuth_tables_py`` — bit-identical
    tables on every input (the float arithmetic is identical IEEE ops).
    """
    n = ts.shape[0]
    for i in range(n - 1):
        cost[i, i + 1] = 2 * ts[i + 1] - ts[i + 1] - ts[i]
        split[i, i + 1] = i + 1
    for width in range(2, n):
        for i in range(n - width):
            j = i + width
            lo = split[i, j - 1]
            hi = split[i + 1, j]
            best = cost[i, lo - 1] + cost[lo, j] + (2 * ts[j] - ts[lo] - ts[i])
            best_h = lo
            for h in range(lo + 1, hi + 1):
                v = cost[i, h - 1] + cost[h, j] + (2 * ts[j] - ts[h] - ts[i])
                if v <= best:
                    best = v
                    best_h = h
            cost[i, j] = best
            split[i, j] = best_h


def _replay_walk_body(x, par, lengths, L, receive_two, demanded, t2max):
    """Per-client ancestor walk of the replay demand algebra.

    The scalar twin of the per-level vectorised walk in
    ``fastpath.replay``: same Lemma 1/17 demand expressions in the same
    IEEE evaluation order, ``max`` accumulation instead of
    ``np.maximum.at`` (order-free for finite floats).  Returns
    ``(used_total, fail_count)``; failure *records* are produced by the
    numpy path only — a positive count triggers that (cold) path, so
    clean forests never leave compiled code.
    """
    n = x.shape[0]
    used_total = 0
    fail_count = 0
    for i in range(n):
        p = par[i]
        if p >= 0:
            own = x[i] - x[p]
            if own > L:
                own = L
        else:
            own = L
        demanded[i] = own
        if own > lengths[i]:
            fail_count += 1
    for i in range(n):
        if par[i] < 0:
            continue
        y = x[i]
        wprev = i
        wcur = par[i]
        while True:
            a_prev = x[wprev]
            a_cur = x[wcur]
            pcur = par[wcur]
            if receive_two:
                used = (2 * y - a_prev - a_cur) < L
                if pcur < 0:
                    demand = L
                else:
                    demand = 2 * y - a_cur - x[pcur]
                    if demand > L:
                        demand = L
                tu = 2 * y - a_cur
                if a_cur + L < tu:
                    tu = a_cur + L
                if tu > 2 * y - a_prev and tu > t2max[i]:
                    t2max[i] = tu
            else:
                used = (y - a_cur) < L
                if pcur < 0:
                    demand = L
                else:
                    demand = y - x[pcur]
                    if demand > L:
                        demand = L
            if used:
                used_total += 1
                if demand > lengths[wcur]:
                    fail_count += 1
                if demand > demanded[wcur]:
                    demanded[wcur] = demand
            if pcur < 0:
                break
            wprev = wcur
            wcur = pcur
    return used_total, fail_count


if HAVE_NUMBA:  # pragma: no cover - exercised only when numba is installed
    _bucket_slots_jit = _njit(cache=True)(_bucket_slots_body)
    _forest_z_jit = _njit(cache=True)(_forest_z_body)
    _hysteresis_scan_jit = _njit(cache=True)(_hysteresis_scan_body)
    _knuth_tables_jit = _njit(cache=True)(_knuth_tables_body)
    _replay_walk_jit = _njit(cache=True)(_replay_walk_body)
else:
    _bucket_slots_jit = _bucket_slots_body
    _forest_z_jit = _forest_z_body
    _hysteresis_scan_jit = _hysteresis_scan_body
    _knuth_tables_jit = _knuth_tables_body
    _replay_walk_jit = _replay_walk_body


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------


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
    contract) and ``slot_ends`` strictly increasing.  Both backends
    reproduce ``searchsorted(..., side="right")`` exactly.

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
    if _BACKEND == "numba":
        client_slot = np.empty(times.size, dtype=np.intp)
        _bucket_slots_jit(times, offsets, nslots, slot_ends, client_slot)
    else:
        client_slot = np.searchsorted(slot_ends, times, side="right")
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
    every forest they create.  The numpy backend is the original
    list-loop; the numba backend runs the same recurrence compiled.
    """
    if _BACKEND == "numba":
        z = arrivals.copy()
        _forest_z_jit(arrivals, parent, z)
        return z
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
    int/int division, so both backends (and the oracle's running-sum
    ``_rate``) evaluate the identical IEEE quotient.  Inherently
    sequential (the mode bit feeds back), like :func:`forest_z`: the
    numpy backend runs the same recurrence as a plain list loop.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0 <= rate_low <= rate_high:
        raise ValueError("need 0 <= rate_low <= rate_high")
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    mode = np.empty(counts.size, dtype=np.int8)
    if _BACKEND == "numba":
        _hysteresis_scan_jit(counts, window, rate_high, rate_low, mode)
        return mode
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


def knuth_tables(ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth-windowed merge DP tables ``(cost, split)`` as 2-D arrays.

    Array twin of ``fastpath.general._knuth_tables_py`` (which remains
    the numpy-backend path and the property-tested oracle); ``split``
    carries the reference's largest-optimal-``h`` tie-break.  O(n^2)
    time *and* memory — callers keep ``n`` at DP scale, this kernel
    makes the window scan compiled, not the table asymptotics smaller.
    """
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    n = ts.size
    cost = np.zeros((n, n), dtype=np.float64)
    split = np.zeros((n, n), dtype=np.int64)
    if n > 1:
        _knuth_tables_jit(ts, cost, split)
    return cost, split


def replay_walk(
    x: np.ndarray,
    par: np.ndarray,
    lengths: np.ndarray,
    L: float,
    model: str,
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """The replay demand walk over a flat forest, backend-dispatched.

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
      messages.

    The numba path computes the demand algebra compiled and only falls
    back to the numpy walk to *enumerate* failures when its failure
    count is non-zero — corrupted forests pay a second pass, clean ones
    never leave compiled code.  Failure record ordering differs between
    backends (level order vs client order); the failure *multiset* is
    identical, matching the documented replay contract.
    """
    if model not in ("receive-two", "receive-all"):
        raise ValueError(f"unknown model {model!r}")
    if _BACKEND == "numba":
        demanded = np.empty(x.size, dtype=np.float64)
        t2max = np.full(x.size, -np.inf)
        used_total, fail_count = _replay_walk_jit(
            x, par, lengths, float(L), model == "receive-two", demanded, t2max
        )
        if fail_count:
            return _replay_walk_numpy(x, par, lengths, L, model)
        empty_i = np.empty(0, dtype=np.intp)
        return (
            demanded,
            t2max,
            int(used_total),
            empty_i,
            empty_i,
            np.empty(0, dtype=np.float64),
        )
    return _replay_walk_numpy(x, par, lengths, L, model)


def _replay_walk_numpy(
    x: np.ndarray,
    par: np.ndarray,
    lengths: np.ndarray,
    L: float,
    model: str,
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """The per-tree-level vectorised walk (the pre-JIT production code)."""
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
