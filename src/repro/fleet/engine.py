"""The batched slot-sweep simulation kernel.

:class:`~repro.simulation.server.Simulation` drives every policy through
a heap-ordered event queue: one Python callback per arrival, per slot
end, and per stream end, plus a reschedule (now a lazy postpone) per
Lemma 1 stream extension.  Since PR 3 every *policy decision* inside
those callbacks is flat, so the queue itself — O(n log n) heap churn and
O(n) Python frames — dominates every run.  This module retires the queue
for the policies whose realised run is a pure function of the slotted
trace, and keeps the event-driven ``Simulation`` as the oracle the
equivalence tests (``tests/fleet/test_engine_equivalence.py``) replay
against.

Which policies are slot-sweepable, and why
------------------------------------------

A policy can be swept instead of simulated when its final merge forest
and final stream lengths depend only on (a) the multiset of served slot
ends (or raw arrival times for immediate policies) and (b) per-node
quantities the flat forest already carries — the parent ``p(x)`` and the
subtree's last arrival ``z(x)``.  Every stream's realised interval is
then ``[x, x + len(x))`` with ``len`` the Lemma 1 value ``2 z - x - p``
(roots: ``L``), because the event-driven server only ever *extends* a
live stream monotonically toward exactly that value — the last extension
wins, and the batched kernel evaluates it directly:

* ``delay-guaranteed`` — forest is the static tiled Fibonacci template
  over *all* slots (:func:`~repro.core.online.build_online_flat_forest`);
* ``offline-optimal`` — the Theorem 10/12 forest over all slots
  (:func:`~repro.core.full_cost.build_optimal_flat_forest`);
* ``general-offline`` — the [6] optimum over the *served* slot ends
  (:func:`~repro.fastpath.general.optimal_flat_forest_general`);
* ``batched-dyadic`` — the (alpha, beta)-dyadic forest over served slot
  ends (:func:`~repro.fastpath.dyadic.dyadic_flat_forest`, bit-identical
  to the ``DyadicOnline`` pushes the event policy performs);
* ``immediate-dyadic`` — the dyadic forest over the raw arrival times;
* ``pure-batching`` / ``unicast`` — every served slot end / every
  arrival is a root of length ``L``.

``HybridPolicy`` is not slot-sweepable in one shot — its DG/dyadic mode
bit is a stateful function of a sliding rate window with hysteresis, so
the forest a slot contributes depends on the arrival *prefix* through
the mode trajectory, not on the slot multiset.  But the trajectory
itself is a pure function of the per-slot arrival **counts**, so
:func:`simulate_batched` retires the hybrid's event queue too.  Every
slotted run is a list of segments of consecutive slots, each built by
one per-kind construction: a single-policy kind is one segment over the
whole horizon, and for the hybrid the sequential hysteresis scan
(:func:`repro.scale.kernels.hysteresis_scan`) only cuts the horizon at
mode switches into DG and batched-dyadic segments.  A DG segment is the
tiled Fibonacci template anchored at mode entry (a mode-exit cut is a
preorder prefix, hence a valid forest whose ``z`` values already encode
that extensions stopped); a dyadic segment is ``dyadic_flat_forest``
over the segment's served slot ends (exact because the event policy
resets its dyadic builder at every mode entry).  No tree spans a cut,
so the segments' forests concatenate with their own ``z`` values and
evaluate stream ends closed-form via Lemma 1.  This is the template for
any policy with feedback from realised load to structure (admission
control, load-shedding, QoE-adaptive selection): compute the feedback
trajectory from counts, then slot-sweep the segments.

Shards.  Given a :class:`RaggedTrace` (several objects' arrivals end to
end, as the fleet runner ships them), :func:`simulate_batched` runs the
whole shard as one pass, whatever the kind.  One ragged ``bucket_slots``
call buckets every object of a slotted kind, and one reduction takes
every object's longest wait.  The dyadic kinds build every object's
forest with one ragged ``dyadic_flat_forest`` call; pure batching and
unicast need no build, every stream being a root.  DG, offline-optimal,
general-offline and hybrid build each object's segments with
:func:`_slotted_parts`, the helper the one-object run uses, on the
object's slice of that bucketing.  The one-object run stays the oracle:
each object's slice of the :class:`ShardResult` is bit-identical to it.

Exactness contract
------------------

The engine's clock is the slot of one guaranteed start-up delay: slot
``k`` ends at ``k + 1``, and L is a slot count.  Minutes become slots at
the fleet and live boundary (``fleet.runner``, ``live.daemon``), never
below it.  Arrivals are bucketed with ``searchsorted`` against the float
slot-end times the event loop itself uses, so edge-of-slot arrivals land
in exactly the slot the event ordering (SlotEnd < Arrival at equal
timestamps) gives them.  Slot ends are integers, exact in float64, so
the Lemma 1 lengths ``2 z - x - p`` over them are exact too, and the
immediate kinds evaluate that expression in the order the event
policy's extensions do.  Metrics and parent arrays are therefore
bit-identical to the event-driven run.

The one observable difference by construction: the oracle's
``BandwidthMetrics.intervals`` list is in stream *finish* order (end
time, ties by extension sequence), while the kernel's array-backed
metrics read back sorted by ``(end, start)``.  The oracle pairing in
``tests/fleet/oracles.py`` canonicalises both sides before comparing;
every derived metric is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..baselines.dyadic import DyadicParams
from ..core.validation import check_count, check_offsets, non_increasing_within
from ..fastpath import replay
from ..fastpath.dyadic import dyadic_flat_forest
from ..fastpath.flat_forest import FlatForest
from ..scale.kernels import bucket_slots, hysteresis_scan
from ..simulation.metrics import BandwidthMetrics
from ..simulation.verify import (
    VerificationReport,
    record_bandwidth_check,
    verify_forest,
    verify_forest_continuous,
)

__all__ = [
    "FleetPolicy",
    "FLEET_POLICIES",
    "SEGMENTED",
    "SLOT_SWEEPABLE",
    "BatchedResult",
    "RaggedTrace",
    "ShardResult",
    "simulate_batched",
]

#: policy kinds whose whole run is one slot sweep (no mode feedback).
SLOT_SWEEPABLE = (
    "delay-guaranteed",
    "offline-optimal",
    "general-offline",
    "batched-dyadic",
    "immediate-dyadic",
    "pure-batching",
    "unicast",
)

#: feedback-coupled kinds swept per mode segment (see module docstring).
SEGMENTED = ("hybrid",)

#: every kind the fleet tier accepts, all run by :func:`simulate_batched`.
FLEET_POLICIES = SLOT_SWEEPABLE + SEGMENTED

_IMMEDIATE = ("immediate-dyadic", "unicast")

#: kinds whose template covers every slot, served or not
_EVERY_SLOT = ("delay-guaranteed", "offline-optimal")

#: kinds whose every stream is a root of length L
_ROOTS = ("pure-batching", "unicast")

_EMPTY = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class FleetPolicy:
    """A declarative policy spec the batched kernel can sweep.

    The event-driven :mod:`repro.simulation.policies` classes are
    callback objects; the kernel needs only the *kind* (plus dyadic
    parameters).  ``tests/fleet/oracles.py`` builds the matching callback
    policy for oracle runs.
    """

    kind: str
    params: Optional[DyadicParams] = None
    #: hybrid-only knobs (ignored by every other kind): sliding-window
    #: length and the hysteresis thresholds of the mode scan.
    window_slots: int = 20
    rate_high: float = 1.0
    rate_low: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FLEET_POLICIES:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; "
                f"choose from {FLEET_POLICIES}"
            )
        if self.params is not None and (
            "dyadic" not in self.kind and self.kind not in SEGMENTED
        ):
            raise ValueError(f"{self.kind} takes no dyadic params")
        if self.kind == "hybrid":
            check_count(self.window_slots, "window_slots")
            if not 0 <= self.rate_low <= self.rate_high:
                raise ValueError("need 0 <= rate_low <= rate_high")

    @property
    def uses_slots(self) -> bool:
        return self.kind not in _IMMEDIATE

    # -- conveniences --------------------------------------------------------

    @staticmethod
    def delay_guaranteed() -> "FleetPolicy":
        return FleetPolicy("delay-guaranteed")

    @staticmethod
    def offline_optimal() -> "FleetPolicy":
        return FleetPolicy("offline-optimal")

    @staticmethod
    def general_offline() -> "FleetPolicy":
        return FleetPolicy("general-offline")

    @staticmethod
    def batched_dyadic(params: Optional[DyadicParams] = None) -> "FleetPolicy":
        return FleetPolicy("batched-dyadic", params)

    @staticmethod
    def immediate_dyadic(params: Optional[DyadicParams] = None) -> "FleetPolicy":
        return FleetPolicy("immediate-dyadic", params)

    @staticmethod
    def pure_batching() -> "FleetPolicy":
        return FleetPolicy("pure-batching")

    @staticmethod
    def unicast() -> "FleetPolicy":
        return FleetPolicy("unicast")

    @staticmethod
    def hybrid(
        params: Optional[DyadicParams] = None,
        window_slots: int = 20,
        rate_high: float = 1.0,
        rate_low: float = 0.5,
    ) -> "FleetPolicy":
        return FleetPolicy("hybrid", params, window_slots, rate_high, rate_low)


@dataclass
class BatchedResult:
    """Everything a batched run produces — flat arrays, no per-client objects.

    The array twin of :class:`~repro.simulation.server.SimulationResult`:
    ``client_node[i]`` indexes the stream node serving client ``i`` in
    :attr:`forest` (-1 when the client was never served — only possible
    for arrivals past the last slot end, which the event loop also leaves
    unassigned), ``client_service[i]`` its service time (NaN when
    unserved).
    """

    policy_name: str
    L: int
    horizon: float
    metrics: BandwidthMetrics
    #: realised forest, labels in slots; None when the run started no
    #: streams (empty trace under an arrival-driven policy)
    forest: Optional[FlatForest]
    #: per-node final stream lengths in slots
    lengths: np.ndarray
    client_arrival: np.ndarray
    client_service: np.ndarray
    client_node: np.ndarray
    #: (slot_index, mode) switch history for segmented kinds, matching the
    #: event policy's ``mode_log`` entry for entry; None for pure sweeps.
    mode_log: Optional[List[Tuple[int, str]]] = None

    def flat_forest(self) -> FlatForest:
        """The realised merge forest (same contract as the event result)."""
        if self.forest is None:
            raise ValueError("run started no streams — nothing to reconstruct")
        return self.forest

    def max_startup_delay(self) -> float:
        """The longest wait of a served client (0.0 when none was served),
        taken ``replay.WALK_BLOCK`` clients at a time: no client-sized
        copies."""
        worst = -math.inf
        for lo in range(0, self.client_node.size, replay.WALK_BLOCK):
            block = slice(lo, lo + replay.WALK_BLOCK)
            wait = self.client_service[block] - self.client_arrival[block]
            served = self.client_node[block] >= 0
            worst = max(worst, float(np.max(wait, where=served, initial=-math.inf)))
        return 0.0 if worst == -math.inf else worst

    def verify(self, continuous: bool = False) -> VerificationReport:
        """Replay-verify the realised forest, mirroring ``verify_simulation``.

        Checks the forest replay, measured-vs-analytic bandwidth, and that
        every client was assigned a node that exists in the forest.
        """
        flat = self.flat_forest()
        report = (
            verify_forest_continuous(flat, self.L)
            if continuous
            else verify_forest(flat, self.L)
        )
        record_bandwidth_check(report, flat, self.L, self.metrics.total_units)
        report.record(
            bool((self.client_node >= 0).all()),
            "some clients were never served",
        )
        return report


@dataclass(frozen=True, eq=False)
class RaggedTrace:
    """Several objects' arrival traces end to end, run as one engine pass.

    Object ``k`` arrives at ``times[offsets[k]:offsets[k + 1]]``, strictly
    increasing inside ``[0, horizons[k])``: each slice meets the
    :class:`~repro.arrivals.traces.ArrivalTrace` contract, checked here
    in one vectorised pass.  Empty objects are allowed.
    """

    times: np.ndarray
    offsets: np.ndarray
    horizons: np.ndarray

    def __post_init__(self) -> None:
        ts = np.ascontiguousarray(self.times, dtype=np.float64)
        horizons = np.ascontiguousarray(self.horizons, dtype=np.float64)
        if ts.ndim != 1 or horizons.ndim != 1:
            raise ValueError("times and horizons must be one-dimensional")
        offsets = check_offsets(self.offsets, ts.size)
        if offsets.size != horizons.size + 1:
            raise ValueError("need one horizon per object")
        if not (np.isfinite(horizons).all() and (horizons > 0).all()):
            raise ValueError("horizons must be positive and finite")
        # Every comparison is False on NaN, so the range test rejects it.
        if not ((ts >= 0) & (ts < np.repeat(horizons, np.diff(offsets)))).all():
            raise ValueError("arrivals must be finite and lie in [0, horizon)")
        if non_increasing_within(ts, offsets).any():
            raise ValueError("arrival times must be strictly increasing")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "horizons", horizons)

    def __len__(self) -> int:
        return self.horizons.size

    def trace(self, k: int) -> ArrivalTrace:
        """Object ``k``'s arrivals as a one-object trace."""
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return ArrivalTrace(self.times[lo:hi], float(self.horizons[k]))


@dataclass
class ShardResult:
    """The run of a :class:`RaggedTrace`: every object's streams end to end.

    Object ``k``'s streams are nodes ``node_offsets[k]:node_offsets[k +
    1]`` of :attr:`forest` (a :meth:`FlatForest.concatenated` forest,
    labels on that object's clock) with :attr:`lengths`; the per-object
    counters are what the fleet fold reads.  Slicing object ``k`` out
    gives exactly the one-object :class:`BatchedResult`'s forest labels,
    lengths, root count and maximum start-up delay.
    """

    #: None when no object started a stream
    forest: Optional[FlatForest]
    lengths: np.ndarray
    node_offsets: np.ndarray
    #: arrivals, root streams and maximum start-up delay (0.0 when no
    #: client was served) per object
    clients: np.ndarray
    roots: np.ndarray
    max_startup_delay: np.ndarray


def _check_L(L) -> None:
    lengths = np.asarray(L, dtype=np.float64)
    # NaN fails every comparison, so the range test rejects it too.
    if not ((lengths >= 1) & (lengths < math.inf)).all():
        raise ValueError(f"L must be finite and >= 1, got {L}")


def simulate_batched(L: int, trace: ArrivalTrace, policy: FleetPolicy) -> BatchedResult:
    """Run one policy without an event queue.

    The batched equivalent of ``Simulation(L, trace, policy).run()`` for
    every kind in :data:`FLEET_POLICIES` — same metrics, same flat
    forest, same mode log (see the module docstring: a slotted run is a
    list of segments, each built by :func:`_construct`).

    Given a :class:`RaggedTrace` (and one ``L`` per object), the whole
    shard of objects runs as one engine pass and a :class:`ShardResult`
    comes back; see :func:`_simulate_shard`.
    """
    if isinstance(trace, RaggedTrace):
        return _simulate_shard(L, trace, policy)
    _check_L(L)
    times = np.asarray(trace.times, dtype=np.float64)
    n_clients = times.size
    mode_log = None
    if policy.uses_slots:
        nslots = trace.num_slots()
        # The exact float end times the event loop schedules SlotEnd at.
        slot_ends = np.arange(1, nslots + 1, dtype=np.float64)
        client_slot, served_idx = bucket_slots(times, slot_ends)
        parts, mode_log = _slotted_parts(
            policy, L, slot_ends, client_slot, served_idx, nslots
        )
        forest, lengths = _joined(parts)
        served = client_slot >= 0
        slots = client_slot[served]
        client_service = np.full(n_clients, math.nan)
        client_service[served] = slot_ends[slots]
        client_node = np.full(n_clients, -1, dtype=np.intp)
        if forest is not None:
            # A node's label is its slot's end k + 1, an integer exact in
            # float64.  Any slot with arrivals is served in every mode, so
            # a served client never reads a -1 entry.
            node_of_slot = np.full(nslots, -1, dtype=np.intp)
            node_of_slot[forest.arrivals.astype(np.intp) - 1] = np.arange(len(forest))
            client_node[served] = node_of_slot[slots]
    else:
        # Each client is served on arrival by a stream of its own.
        part = _construct(policy.kind, L, times, policy.params or DyadicParams())
        forest, lengths = _joined([] if part is None else [part])
        client_service = times  # the trace's read-only times
        client_node = np.arange(n_clients, dtype=np.intp)

    if forest is None:
        metrics = BandwidthMetrics(L=L, clients_served=n_clients)
    else:
        starts = forest.arrivals
        metrics = BandwidthMetrics.from_arrays(
            L, starts, starts + lengths, forest.is_root, n_clients
        )
    return BatchedResult(
        policy_name=policy.kind,
        L=L,
        horizon=trace.horizon,
        metrics=metrics,
        forest=forest,
        lengths=lengths,
        client_arrival=times,
        client_service=client_service,
        client_node=client_node,
        mode_log=mode_log,
    )


def _slotted_parts(
    policy: FleetPolicy,
    L: int,
    slot_ends: np.ndarray,
    client_slot: np.ndarray,
    served_idx: np.ndarray,
    nslots: int,
):
    """One object's slotted run as ``(parts, mode_log)``: the
    ``(forest, lengths)`` of each segment that starts a stream, in slot
    order, from the object's bucketing (``bucket_slots`` output against
    the first ``nslots`` of ``slot_ends``).  A single-policy kind is one
    segment over every slot; the hybrid's mode scan cuts the slots into
    DG and batched-dyadic segments."""
    if policy.kind in SEGMENTED:
        segments, mode_log = _mode_segments(policy, client_slot, nslots)
    else:
        segments, mode_log = [(policy.kind, 0, nslots)], None
    params = policy.params or DyadicParams()
    parts = []
    for kind, s, e in segments:
        if kind in _EVERY_SLOT:
            labels = slot_ends[s:e]
        else:
            lo, hi = np.searchsorted(served_idx, (s, e))
            labels = slot_ends[served_idx[lo:hi]]
        part = _construct(kind, L, labels, params)
        if part is not None:
            parts.append(part)
    return parts, mode_log


def _mode_segments(policy: FleetPolicy, client_slot: np.ndarray, nslots: int):
    """The hybrid's ``(segments, mode_log)``: the hysteresis scan over the
    per-slot arrival counts cuts the horizon into constant-mode stretches
    ``(kind, first slot, end slot)``, DG where the mode bit is set and
    batched dyadic elsewhere."""
    counts = np.bincount(client_slot[client_slot >= 0], minlength=nslots)
    mode = hysteresis_scan(counts, policy.window_slots, policy.rate_high, policy.rate_low)
    # A stretch starts wherever the mode bit changes.  The event policy
    # starts in dyadic mode (0) and logs each switch at the slot it takes
    # effect; plain-int entries keep the log's repr identical to the
    # oracle's.
    starts = np.flatnonzero(np.diff(mode, prepend=-1)).tolist()
    mode_log = [(k, "dg" if mode[k] else "dyadic") for k in starts if k or mode[k]]
    segments = [
        ("delay-guaranteed" if mode[s] else "batched-dyadic", s, e)
        for s, e in zip(starts, starts[1:] + [nslots])
    ]
    return segments, mode_log


def _construct(kind: str, L, labels: np.ndarray, params: DyadicParams):
    """One segment's ``(forest, lengths)`` under ``kind`` (None if it
    starts no stream), ``labels`` being its stream starts in slots."""
    n = labels.size
    if kind == "delay-guaranteed":
        from ..core.online import build_online_flat_forest

        forest = FlatForest(labels, build_online_flat_forest(L, n).parent)
        return forest, forest.stream_lengths(L)
    if kind == "offline-optimal":
        from ..core.full_cost import build_optimal_flat_forest

        units = build_optimal_flat_forest(L, n)
        forest = FlatForest(labels, units.parent)
    elif n == 0:
        if kind == "general-offline":
            raise ValueError("need at least one served slot")
        return None
    elif kind in _ROOTS:
        return FlatForest(labels, np.full(n, -1, dtype=np.intp)), np.full(n, float(L))
    elif kind == "general-offline":
        from ..fastpath.general import optimal_flat_forest_general

        forest = units = optimal_flat_forest_general(labels.tolist(), L)
    else:
        forest = units = dyadic_flat_forest(labels, L, params)
    return forest, units.stream_lengths(L)


def _joined(parts):
    """Consecutive segments' ``(forest, lengths)`` as one, the objects of
    a shard included; no tree spans a cut, so each segment's ``z``
    stands."""
    if len(parts) < 2:
        return parts[0] if parts else (None, _EMPTY)
    forests, lengths = zip(*parts)
    bases = np.cumsum([0] + [len(f) for f in forests[:-1]])
    parent = [np.where(f.parent < 0, -1, f.parent + b) for f, b in zip(forests, bases)]
    forest = FlatForest.concatenated(
        np.concatenate([f.arrivals for f in forests]),
        np.concatenate(parent),
        np.concatenate([f.z for f in forests]),
    )
    return forest, np.concatenate(lengths)


def _simulate_shard(L, trace: RaggedTrace, policy: FleetPolicy) -> ShardResult:
    """One engine pass over a shard of objects, for every kind (see the
    module docstring's "Shards").  Object ``k``'s slice is bit-identical
    to ``simulate_batched(L[k], trace.trace(k), policy)``, which the
    fleet replay contract checks."""
    _check_L(L)
    L = np.asarray(L, dtype=np.int64)
    if L.shape != (len(trace),):
        raise ValueError(f"need one L per object, got shape {L.shape}")
    times, offsets = trace.times, trace.offsets
    # Immediate kinds serve every client on arrival: no wait at all.
    max_wait = np.zeros(len(trace))
    if policy.uses_slots:
        nslots = np.ceil(trace.horizons).astype(np.intp)
        # Object k's slots are the first nslots[k] of these.
        slot_ends = np.arange(1, nslots.max(initial=0) + 1, dtype=np.float64)
        client_slot, served_idx, node_offsets = bucket_slots(
            times, slot_ends, offsets, nslots
        )
        labels = slot_ends[served_idx]
        # A served client waits > 0; 0 stands for the unserved, so an
        # object nobody was served reads 0.  max is exact in any order.
        wait = np.where(
            client_slot >= 0, slot_ends[np.maximum(client_slot, 0)] - times, 0.0
        )
        busy = np.diff(offsets) > 0
        if busy.any():
            max_wait[busy] = np.maximum.reduceat(wait, offsets[:-1][busy])
    else:
        labels, node_offsets = times, offsets
    if "dyadic" in policy.kind or policy.kind in _ROOTS:
        node_L = np.repeat(L, np.diff(node_offsets))
        if not labels.size:
            forest, lengths = None, _EMPTY
        elif "dyadic" in policy.kind:
            forest = dyadic_flat_forest(
                labels, L, policy.params or DyadicParams(), offsets=node_offsets
            )
            lengths = forest.stream_lengths(node_L)
        else:  # every stream is a root of length L
            forest = FlatForest.concatenated(
                labels, np.full(labels.size, -1, dtype=np.intp), labels
            )
            lengths = node_L.astype(np.float64)
    else:
        parts, sizes = [], [0]
        for k in range(len(trace)):
            served = served_idx[node_offsets[k] : node_offsets[k + 1]]
            title = []
            if served.size or policy.kind != "general-offline":
                # The optimum is undefined over zero served slots; a quiet
                # object contributes nothing.
                title, _ = _slotted_parts(
                    policy, int(L[k]), slot_ends,
                    client_slot[offsets[k] : offsets[k + 1]], served, int(nslots[k]),
                )
            parts += title
            sizes.append(sum(len(f) for f, _ in title))
        forest, lengths = _joined(parts)
        node_offsets = np.cumsum(sizes, dtype=np.intp)
    roots = np.zeros(len(trace), dtype=np.int64)
    if forest is not None:
        roots = np.diff(np.searchsorted(np.flatnonzero(forest.is_root), node_offsets))
    return ShardResult(
        forest=forest,
        lengths=lengths,
        node_offsets=node_offsets,
        clients=np.diff(offsets),
        roots=roots,
        max_startup_delay=max_wait,
    )
