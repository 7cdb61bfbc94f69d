"""Batched replay verification — vectorised per-stream interval algebra.

``repro.simulation.verify`` replays the Section 2 receiving programs one
client and one part at a time: every client materialises O(L)
``Reception`` objects, and the buffer bookkeeping is quadratic in the
parts per client.  At 10^5 clients that is tens of millions of Python
objects for checks whose outcomes are closed-form functions of the
client's root path.  This module evaluates the same checks wholesale on
:class:`~repro.fastpath.flat_forest.FlatForest` arrays, walking all
clients' ancestor chains *level by level* (one numpy pass per tree
level), so the work is O(sum of path depths) vector operations:

* **completeness / deadlines / fan-in** — the Section 2 stage ranges are
  contiguous, start at part 1, and every path stream starts no later
  than the client, so for any valid parent array these checks pass
  identically to the oracle (the oracle can only fail them on inputs
  ``FlatForest`` rejects outright); they are accounted, not re-derived.
* **stream-length sufficiency** (per client and stream) — the last part
  a client takes from path stream ``u`` with path predecessor ``w`` and
  parent ``q`` is ``min(2y - u - q, L)`` (receive-two) or
  ``min(y - q, L)`` (receive-all), demanded at all iff the first part
  ``2y - w - u + 1`` (resp. ``y - u + 1``) is at most ``L``.
* **Lemma 1 / Lemma 17 tightness** — per-stream maxima of those demands
  (``np.maximum.at``) against the analytic lengths.
* **Lemma 15 buffer peaks** — a client buffers one extra part per slot
  exactly while it listens to two streams, and two-stream slots form one
  contiguous run from its arrival, so the replayed high-water mark is
  ``t2max - y`` with ``t2max`` the last two-delivery slot
  ``min(2y - u', u' + L)`` over the path pairs ``(u, u')``.

The continuous verifier (real-valued forests such as immediate dyadic)
walks the same chains: at each level a client's pair ``(u, lo)`` yields
the stage pieces ``(2(y - u), 2y - u - lo]`` from ``u`` and
``(2y - u - lo, 2(y - lo)]`` from ``lo``, clipped to ``L``.  A level
gathers only ``lo``: ``y`` and ``u`` (the previous level's ``lo``) ride
along with the surviving clients, ``2y - u - lo`` and each clipped end
are computed once, pieces are compressed only when some are dropped
(none are on a dyadic forest with ``beta <= 1/2``), and failure messages
are rebuilt from the failing pairs' indices alone.  Continuous demands
print as floats here and in the oracle, whatever the labels' type, so a
failure message needs no second walk.

The continuous verifier takes the nodes in contiguous blocks of
``WALK_BLOCK`` (2**14, so each per-level array is about 128 KB and a
level's two dozen passes stay in L2 rather than streaming 6 MB arrays of
a hot title through memory): the walk, the root-stream tails and, once
every demand is in, the tightness test.  The node-sized arrays it keeps
are the stream lengths and the per-stream demand maxima ``demanded``; a
piece is compared against ``lengths[stream] + eps`` as it goes, with no
per-node limit array.  Blocking is exact: a client's pieces depend only
on its own root path, every check counts pieces one by one, and
``demanded`` is a maximum, which no order changes; only the order of the
failure list moves.  The slotted verifier walks every client at once.

Exactness contract (same shape as ``fastpath.general``): all arithmetic
is the oracle's integer (or, for the continuous verifier, float)
expressions evaluated elementwise, so reports are **identical** to the
per-client oracles ``verify_forest_reference`` /
``verify_forest_continuous_reference`` — same check counts, same failure
set (message strings included; ordering within the list may differ) — on
every forest both accept, including corrupted ones.
``tests/fastpath/test_replay.py`` asserts that on randomized optimal,
on-line and dyadic forests with injected violations, with the
continuous verifier's nodes in blocks of 1, 7 and ``WALK_BLOCK``.  One
caveat: node labels in failure messages print collapsed-to-int when
exact (``4``, not ``4.0``), matching what the reference sees for any
``FlatForest`` input (its ``to_forest`` collapses exact labels); a
``MergeForest`` input that stores an exact label as a float would print
it uncollapsed in the reference only.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..core.merge_tree import MergeForest, _as_int_if_exact
from ..core.validation import check_finite_value
from ..scale.kernels import replay_walk
from .flat_forest import FlatForest, as_flat_forest

__all__ = ["replay_verify_forest", "replay_verify_forest_continuous"]

#: Nodes per block of the continuous walk and its per-node checks: 2**14
#: nodes keep each per-level array near 128 KB, so a level's passes run
#: in L2.  The verification's other blocked reductions (the analytic cost,
#: ``BandwidthMetrics.total_units``, ``BatchedResult.max_startup_delay``)
#: take the same blocks.
WALK_BLOCK = 1 << 14


def _node_blocks(n: int):
    """Node indices ``0 .. n - 1`` in contiguous blocks of ``WALK_BLOCK``."""
    for first in range(0, n, WALK_BLOCK):
        yield np.arange(first, min(first + WALK_BLOCK, n))


def _fmt(value: float):
    """Format a node label the way the object oracle prints it (int when
    exact, since ``FlatForest.to_forest`` collapses exact labels)."""
    return _as_int_if_exact(float(value))


def _new_report():
    from ..simulation.verify import VerificationReport

    return VerificationReport()


def _finish(report, checks: int, failures: List[str]):
    report.checks += checks
    if failures:
        report.ok = False
        report.failures.extend(failures)
    return report


def _validated_flat(forest, L, report) -> Optional[FlatForest]:
    check_finite_value(L, "L")
    flat = as_flat_forest(forest)
    try:
        flat.validate_for_length(L)
    except ValueError as exc:
        report.record(False, f"forest infeasible for L={L}: {exc}")
        return None
    return flat


def replay_verify_forest(
    forest: Union[MergeForest, FlatForest],
    L: int,
    model: str = "receive-two",
    buffer_bound: Optional[float] = None,
):
    """Batched equivalent of the per-client ``verify_forest_reference``."""
    if model not in ("receive-two", "receive-all"):
        raise ValueError(f"unknown model {model!r}")
    if buffer_bound is not None:
        check_finite_value(buffer_bound, "buffer_bound")
    report = _new_report()
    flat = _validated_flat(forest, L, report)
    if flat is None:
        return report
    x = flat.arrivals
    n = x.size
    not_integral = x != np.floor(x)
    if not_integral.any():
        t = float(x[np.nonzero(not_integral)[0][0]])
        raise ValueError(
            "receiving programs are defined on slotted (integer) "
            f"arrival times; got {t!r} — slot the trace first"
        )
    par = flat.parent
    lengths = flat.stream_lengths(L, model)
    nonroot = par >= 0
    checks = 0
    failures: List[str] = []

    # -- demand walk (own-stream + every ancestor level) ---------------------
    demanded, t2max, used_total, fail_client, fail_stream, fail_demand = (
        replay_walk(x, par, lengths, float(L), model)
    )
    checks += n  # one streams_used check per client for its own stream
    checks += used_total
    for c, s, d in zip(
        fail_client.tolist(), fail_stream.tolist(), fail_demand.tolist()
    ):
        failures.append(
            f"client {_fmt(x[c])} needs part {int(d)} of stream "
            f"{_fmt(x[s])}, which only has {float(lengths[s])}"
        )

    # -- per-client structural checks ---------------------------------------
    # Completeness, playback deadlines and (receive-two) fan-in <= 2 hold
    # for every strictly-increasing root path — the stage part ranges are
    # contiguous from part 1 and stages occupy disjoint slot ranges — so
    # on any forest FlatForest accepts they pass, as in the oracle.
    checks += 3 * n if model == "receive-two" else 2 * n

    if model == "receive-two":
        # Lemma 15: replayed buffer peak must equal min(y - r, L - (y - r)).
        peak = np.where(np.isfinite(t2max), t2max - x, 0.0)
        gap = x - x[flat.root_index]
        expected = np.minimum(gap, L - gap)
        checks += n
        for i in np.nonzero(peak != expected)[0].tolist():
            failures.append(
                f"client {_fmt(x[i])}: buffer peak {int(peak[i])} != "
                f"Lemma 15 value {int(expected[i])}"
            )
        if buffer_bound is not None:
            checks += n
            for i in np.nonzero(peak > buffer_bound)[0].tolist():
                failures.append(
                    f"client {_fmt(x[i])}: buffer peak {int(peak[i])} > "
                    f"bound {buffer_bound}"
                )

    # -- tightness: every non-root stream fully consumed --------------------
    nr = np.nonzero(nonroot)[0]
    checks += nr.size
    for i in nr[demanded[nr] != lengths[nr]].tolist():
        failures.append(
            f"stream {float(x[i])}: length {float(lengths[i])} but only "
            f"part {int(demanded[i])} ever read (not tight)"
        )
    return _finish(report, checks, failures)


def replay_verify_forest_continuous(
    forest: Union[MergeForest, FlatForest], L: float
):
    """Batched equivalent of ``verify_forest_continuous_reference``."""
    report = _new_report()
    flat = _validated_flat(forest, L, report)
    if flat is None:
        return report
    x = flat.arrivals
    n = x.size
    par = flat.parent
    root = flat.root_index
    lengths = flat.stream_lengths(L)
    eps = 1e-9
    checks = 0
    failures: List[str] = []
    demanded = np.zeros(n)

    def _demand_checks(keep, streams, b, clients):
        # The pieces ``keep`` selects; on valid forests that is all of
        # them, and nothing is compressed.
        nonlocal checks
        if not keep.all():
            streams, b, clients = streams[keep], b[keep], clients[keep]
        checks += streams.size
        for j in np.flatnonzero(b > lengths[streams] + eps).tolist():
            c, s = int(clients[j]), int(streams[j])
            failures.append(
                f"client {_fmt(x[c])} needs position {float(b[j])} "
                f"of stream {_fmt(x[s])} (length {float(lengths[s])})"
            )
        np.maximum.at(demanded, streams, b)

    # Stage pieces, level by level: at level s the pair is
    # (u, lo) = (w_{s-1}, w_s) and contributes the stage's piece from u
    # (positions (2(y-u), 2y-u-lo]) and from lo ((2y-u-lo, 2(y-lo)]).
    # y and u ride along; only lo is gathered per level.  The clients
    # walk one WALK_BLOCK of nodes at a time, so a level's arrays stay
    # cache-sized; each client's pieces do not depend on the others.
    for block in _node_blocks(n):
        cl = block[par[block] >= 0]
        wprev = cl
        wcur = par[cl]
        y = u = x[cl]
        while cl.size:
            lo = x[wcur]
            mid = 2 * y - u - lo
            end = np.minimum(mid, L)
            _demand_checks(end > 2 * (y - u), wprev, end, cl)
            end = np.minimum(2 * (y - lo), L)
            _demand_checks(end > mid, wcur, end, cl)
            pcur = par[wcur]
            step = pcur >= 0
            cl, y, u = cl[step], y[step], lo[step]
            wprev = wcur[step]
            wcur = pcur[step]
        # Root-stream tails: positions (2(y - r), L] — always float(L).
        r = root[block]
        _demand_checks(
            L > 2 * (x[block] - x[r]), r, np.full(block.size, float(L)), block
        )

    # Coverage of (0, L]: the pieces are contiguous from 0 and clipped to
    # end exactly at L for every strictly-increasing path, so this check
    # passes identically to the oracle on any forest FlatForest accepts.
    checks += n

    # Tightness, once every demand is in: a stream's readers come after
    # it, possibly in a later block.
    for block in _node_blocks(n):
        nonroot = block[par[block] >= 0]
        checks += nonroot.size
        bad = nonroot[np.abs(demanded[nonroot] - lengths[nonroot]) > eps]
        for i in bad.tolist():
            failures.append(
                f"stream {float(x[i])}: length {float(lengths[i])} vs demand "
                f"{float(demanded[i])} (not tight)"
            )
    return _finish(report, checks, failures)

