"""Hot-loop kernels of the fleet engine and the replay verifiers.

Four loops the flat refactors left on the hot paths live here, each a
pure function of its inputs with one numpy (or, for the inherently
sequential passes, list-loop) implementation:

* :func:`bucket_slots` — slot bucketing in
  :func:`repro.fleet.engine.simulate_batched`;
* :func:`forest_z` — the subtree-maximum pass of flat-forest
  construction;
* :func:`replay_walk` — the per-tree-level replay demand walk of
  :mod:`repro.fastpath.replay`;
* :func:`hysteresis_scan` — the sequential mode scan that cuts a hybrid
  run of :func:`repro.fleet.engine.simulate_batched` into segments.

``tests/scale/test_kernels.py`` checks each against an independent
per-element reference (two-pointer bucketing, per-client walk,
ancestor walk, the event policy's deque window) on adversarial grids.

numpy is the only backend.  :func:`configure_backend` and
:func:`active_backend` stay for callers that request or record one
(perfbench, sweep results, benchmark rows), whose outputs keep their
shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.validation import check_count, check_offsets

__all__ = [
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
