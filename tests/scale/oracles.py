"""Per-element reference loops for the :mod:`repro.scale.kernels` tests.

Each loop evaluates the same IEEE expressions as its vectorised kernel,
one element at a time, so the kernels must match them exactly.
"""

from __future__ import annotations

import numpy as np


def bucket_slots_two_pointer(times, offsets, nslots, slot_ends):
    """Two-pointer slot bucketing over sorted arrivals, object by object.

    Exactly ``searchsorted(slot_ends[:nslots[k]], times, side="right")``
    per object ``k`` (``times[offsets[k]:offsets[k + 1]]``) with the
    past-the-last-slot -1 rule: ``client_slot[i]`` is the first slot end
    strictly after ``times[i]`` (SlotEnd fires before Arrival at equal
    timestamps).  The pointer restarts at every object, because each
    object's arrivals are one sorted run of their own.
    """
    client_slot = np.empty(times.shape[0], dtype=np.intp)
    for k in range(nslots.shape[0]):
        ns = nslots[k]
        j = 0
        for i in range(offsets[k], offsets[k + 1]):
            t = times[i]
            while j < ns and slot_ends[j] <= t:
                j += 1
            client_slot[i] = j if j < ns else -1
    return client_slot


def forest_z_ancestors(arrivals, parent):
    """Subtree maxima by brute force: every node raises each ancestor."""
    z = arrivals.copy()
    for i in range(arrivals.shape[0]):
        p = parent[i]
        while p >= 0:
            if arrivals[i] > z[p]:
                z[p] = arrivals[i]
            p = parent[p]
    return z


def replay_walk_per_client(x, par, lengths, L, receive_two):
    """Per-client ancestor walk of the replay demand algebra.

    The same Lemma 1/17 demand expressions as the per-level walk of
    :func:`repro.scale.kernels.replay_walk`, in the same IEEE evaluation
    order, with ``max`` accumulation instead of ``np.maximum.at``
    (order-free for finite floats).  Returns ``(demanded, t2max,
    used_total, fail_count)``.
    """
    n = x.shape[0]
    demanded = np.empty(n, dtype=np.float64)
    t2max = np.full(n, -np.inf)
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
    return demanded, t2max, used_total, fail_count
