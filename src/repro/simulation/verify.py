"""End-to-end verification of merge forests and simulation runs.

This module is the reproduction's safety net: it *replays* the Section 2
receiving programs against a forest (or against what a simulation actually
broadcast) and checks every claim the analysis makes:

* every client receives parts ``1..L`` exactly once (completeness);
* every part arrives no later than its playback slot (uninterrupted
  playback with start-up delay honoured);
* no client ever listens to more than two streams at once (receive-two) —
  or reports the true fan-in (receive-all);
* every stream is long enough for all its readers (Lemma 1 / Lemma 17
  sufficiency) and no longer than the last part anyone reads (tightness);
* client buffer high-water marks equal ``min(x - r, L - (x - r))``
  (Lemma 15) and respect an optional bound ``B``;
* a simulation's measured bandwidth equals the forest's analytic cost.

Integer-slotted forests get exact part-by-part replay; real-valued forests
(immediate dyadic) get the continuous-interval analogue.

Since the flat-simulation refactor the public entry points run the
*batched* replay of :mod:`repro.fastpath.replay` — vectorised per-stream
interval algebra on :class:`~repro.fastpath.flat_forest.FlatForest`
arrays, ~10^3x faster at 10^5 clients.  The original per-client object
walks survive here as :func:`verify_forest_reference` and
:func:`verify_forest_continuous_reference`; the fastpath property tests
assert report-for-report identity (same check counts, same failure sets)
between the two on valid *and* corrupted forests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING, Union

import numpy as np

from ..core.merge_tree import MergeForest, _as_int_if_exact
from ..core.validation import check_finite_value
from ..fastpath.flat_forest import FlatForest, as_flat_forest
from ..fastpath import replay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import SimulationResult

__all__ = [
    "VerificationReport",
    "verify_forest",
    "verify_forest_continuous",
    "verify_forest_reference",
    "verify_forest_continuous_reference",
    "verify_simulation",
    "record_bandwidth_check",
]


@dataclass
class VerificationReport:
    """Outcome of a verification pass."""

    ok: bool = True
    checks: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.ok = False
            self.failures.append(message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                f"verification failed ({len(self.failures)} of "
                f"{self.checks} checks):\n" + "\n".join(self.failures[:20])
            )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "OK" if self.ok else "FAILED"
        return f"VerificationReport({status}, {self.checks} checks, {len(self.failures)} failures)"


def verify_forest(
    forest: Union[MergeForest, FlatForest],
    L: int,
    model: str = "receive-two",
    buffer_bound: Optional[float] = None,
) -> VerificationReport:
    """Exact replay verification of an integer-slotted merge forest.

    Accepts either forest representation; runs entirely on the batched
    flat replay (:func:`repro.fastpath.replay.replay_verify_forest`).
    :func:`verify_forest_reference` is the per-client oracle it is
    property-tested against.
    """
    return replay.replay_verify_forest(forest, L, model=model, buffer_bound=buffer_bound)


def verify_forest_reference(
    forest: Union[MergeForest, FlatForest],
    L: int,
    model: str = "receive-two",
    buffer_bound: Optional[float] = None,
) -> VerificationReport:
    """Per-client object-walk replay — the verification oracle.

    Builds every client's :class:`~repro.core.receiving_program.
    ReceivingProgram` part by part and checks it directly; O(total parts)
    Python objects.  Kept as the reference the batched replay must match
    report-for-report.
    """
    from ..core.buffers import buffer_requirement
    from ..core.receiving_program import forest_programs

    if buffer_bound is not None:
        check_finite_value(buffer_bound, "buffer_bound")
    check_finite_value(L, "L")
    report = VerificationReport()
    flat = as_flat_forest(forest)
    if isinstance(forest, FlatForest):
        forest = forest.to_forest()
    try:
        flat.validate_for_length(L)
    except ValueError as exc:
        report.record(False, f"forest infeasible for L={L}: {exc}")
        return report

    programs = forest_programs(forest, L, model=model)
    lengths = _model_stream_lengths(flat, L, model)
    demanded: dict = {}

    for arrival, prog in programs.items():
        report.record(prog.is_complete(), f"client {arrival}: parts missing or duplicated")
        report.record(prog.is_on_time(), f"client {arrival}: playback would stall")
        fan_in = prog.max_parallel_streams()
        if model == "receive-two":
            report.record(
                fan_in <= 2, f"client {arrival}: listens to {fan_in} > 2 streams"
            )
        for stream in prog.streams_used():
            last = prog.last_part_from(stream)
            demanded[stream] = max(demanded.get(stream, 0), last)
            report.record(
                last <= lengths[stream],
                f"client {arrival} needs part {last} of stream {stream}, "
                f"which only has {lengths[stream]}",
            )
        if model == "receive-two":
            tree, _node = forest.find(arrival)
            expected = buffer_requirement(arrival, tree.root.arrival, L)
            got = prog.max_buffer()
            report.record(
                got == expected,
                f"client {arrival}: buffer peak {got} != Lemma 15 value {expected}",
            )
            if buffer_bound is not None:
                report.record(
                    got <= buffer_bound,
                    f"client {arrival}: buffer peak {got} > bound {buffer_bound}",
                )

    # Tightness: every non-root stream's length is fully consumed.
    for label in flat.arrivals[flat.parent >= 0].tolist():
        report.record(
            demanded.get(label, 0) == lengths[label],
            f"stream {label}: length {lengths[label]} but only part "
            f"{demanded.get(label, 0)} ever read (not tight)",
        )
    return report


def _model_stream_lengths(flat: FlatForest, L: int, model: str) -> dict:
    """Per-stream lengths under the requested client model, vectorised.

    Receive-two: Lemma 1 (``2z - x - p``); receive-all: Lemma 17
    (``z - p``).  Roots carry ``L`` either way.
    """
    return flat.stream_length_map(L, model)


def _client_intervals_continuous(
    path: Tuple[float, ...], L: float
) -> List[Tuple[float, float, float]]:
    """Continuous receive-two demand: (stream, pos_from, pos_to] pieces.

    Mirrors the Section 2 stages with real-valued arrivals: media position
    ``q`` stands for the slot-model part ``ceil(q)``; stage ``i`` takes
    positions ``(2(y - u), 2y - u - u']`` from stream ``u = x_{k-i}`` and
    ``(2y - u - u', 2(y - u')]`` from ``u' = x_{k-i-1}``, clipped to ``L``.
    """
    y = path[-1]
    k = len(path) - 1
    pieces: List[Tuple[float, float, float]] = []
    for i in range(k):
        u = path[k - i]
        lo = path[k - i - 1]
        a, b = 2 * (y - u), 2 * y - u - lo
        if min(b, L) > a:
            pieces.append((u, a, min(b, L)))
        a2, b2 = 2 * y - u - lo, 2 * (y - lo)
        if min(b2, L) > a2:
            pieces.append((lo, a2, min(b2, L)))
    tail_from = 2 * (y - path[0])
    if L > tail_from:
        pieces.append((path[0], tail_from, float(L)))
    return pieces


def verify_forest_continuous(
    forest: Union[MergeForest, FlatForest], L: float
) -> VerificationReport:
    """Interval-based verification for real-valued (unslotted) forests.

    Runs on the batched flat replay; the per-client walk survives as
    :func:`verify_forest_continuous_reference`.
    """
    return replay.replay_verify_forest_continuous(forest, L)


def verify_forest_continuous_reference(
    forest: Union[MergeForest, FlatForest], L: float
) -> VerificationReport:
    """Per-client continuous-interval verification — the oracle."""
    check_finite_value(L, "L")
    report = VerificationReport()
    flat = as_flat_forest(forest)
    if isinstance(forest, FlatForest):
        forest = forest.to_forest()
    try:
        flat.validate_for_length(L)
    except ValueError as exc:
        report.record(False, f"forest infeasible for L={L}: {exc}")
        return report
    lengths = flat.stream_length_map(L)
    demanded: dict = {}
    eps = 1e-9

    for tree in forest:
        for arrival in tree.arrivals():
            path = tuple(n.arrival for n in tree.node(arrival).path_from_root())
            pieces = _client_intervals_continuous(path, L)
            # Coverage of (0, L] without gaps or overlaps.
            pieces_sorted = sorted(pieces, key=lambda p: p[1])
            pos = 0.0
            ok_cover = True
            for _stream, a, b in pieces_sorted:
                if abs(a - pos) > eps:
                    ok_cover = False
                    break
                pos = b
            ok_cover = ok_cover and abs(pos - L) <= eps
            report.record(
                ok_cover, f"client {arrival}: continuous coverage of (0, L] broken"
            )
            for stream, _a, b in pieces:
                demanded[stream] = max(demanded.get(stream, 0.0), b)
                report.record(
                    b <= lengths[stream] + eps,
                    f"client {arrival} needs position {float(b)} of stream "
                    f"{stream} (length {lengths[stream]})",
                )

    for label in flat.arrivals[flat.parent >= 0].tolist():
        report.record(
            abs(demanded.get(label, 0.0) - lengths[label]) <= eps,
            f"stream {label}: length {lengths[label]} vs demand "
            f"{float(demanded.get(label, 0.0))} (not tight)",
        )
    return report


def record_bandwidth_check(
    report: VerificationReport, flat: FlatForest, L: float, measured: float
) -> None:
    """Record whether ``measured`` bandwidth equals the forest's analytic
    full cost ``s L + Mcost`` (receive-two), to a relative 1e-6.

    A forest with a tree spanning more than ``L - 1`` has no full cost;
    the replay has recorded it infeasible, so no check is made.  The cost
    is summed one node block at a time (``replay.WALK_BLOCK``), with no
    node-sized temporary, so its last bits may differ from
    :meth:`FlatForest.full_cost` on real-valued labels.
    """
    x, parent, z = flat.arrivals, flat.parent, flat.z
    trees, merge = 0, 0.0
    for lo in range(0, x.size, replay.WALK_BLOCK):
        block = slice(lo, lo + replay.WALK_BLOCK)
        root = parent[block] < 0
        if np.any(z[block][root] - x[block][root] > L - 1):
            return
        trees += int(np.count_nonzero(root))
        nonroot = ~root
        zs, xs, ps = z[block][nonroot], x[block][nonroot], parent[block][nonroot]
        merge += float(np.sum(2 * zs - xs - x[ps]))
    analytic = _as_int_if_exact(trees * L + _as_int_if_exact(merge))
    report.record(
        abs(measured - analytic) <= 1e-6 * max(1.0, abs(analytic)),
        f"measured bandwidth {measured} != analytic full cost {analytic}",
    )


def verify_simulation(
    result: "SimulationResult", continuous: bool = False
) -> VerificationReport:
    """Check a simulation run against its own reconstructed forest.

    * measured total bandwidth == the forest's analytic full cost;
    * every client's recorded path exists in the forest and ends at its
      assigned stream;
    * per-model replay of the forest itself (exact or continuous).

    Everything runs on the flat forest the run reconstructs
    (:meth:`~repro.simulation.server.SimulationResult.flat_forest`) — no
    ``MergeNode`` graph is built at any client count.
    """
    flat = result.flat_forest()
    if continuous:
        report = verify_forest_continuous(flat, result.L)
    else:
        report = verify_forest(flat, result.L)

    record_bandwidth_check(report, flat, result.L, result.metrics.total_units)
    paths = flat.paths()
    for client in result.clients:
        if client.tree_label is None:
            report.record(False, f"client {client.client_id} was never assigned")
            continue
        try:
            node = flat.find(client.tree_label)
        except KeyError:
            report.record(
                False,
                f"client {client.client_id} assigned to unknown stream "
                f"{client.tree_label}",
            )
            continue
        actual_path = paths[node]
        report.record(
            actual_path == client.path,
            f"client {client.client_id}: recorded path {client.path} != "
            f"forest path {actual_path}",
        )
    return report
