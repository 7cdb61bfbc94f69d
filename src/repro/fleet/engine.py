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
  to the ``DyadicFlatOnline`` pushes the event policy performs);
* ``immediate-dyadic`` — the dyadic forest over the raw arrival times;
* ``pure-batching`` / ``unicast`` — every served slot end / every
  arrival is a root of length ``L``.

``HybridPolicy`` is not slot-sweepable in one shot — its DG/dyadic mode
bit is a stateful function of a sliding rate window with hysteresis, so
the forest a slot contributes depends on the arrival *prefix* through
the mode trajectory, not on the slot multiset.  But the trajectory
itself is a pure function of the per-slot arrival **counts**, so
:func:`simulate_segmented` retires the hybrid's event queue too:
bucket arrivals once, run the sequential hysteresis scan
(:func:`repro.scale.kernels.hysteresis_scan` — backend-dispatched like
every scale-tier kernel), cut the trace at mode switches, and sweep
each constant-mode segment with the construction above — DG segments
are the tiled Fibonacci template anchored at mode entry (a mode-exit
cut is a preorder prefix, hence a valid forest whose ``z`` values
already encode that extensions stopped), dyadic segments are
``dyadic_flat_forest`` over the segment's served slot ends (exact
because the event policy resets its dyadic builder at every mode
entry).  The concatenated per-segment forests evaluate stream ends
closed-form via Lemma 1 exactly as the single-policy kinds do.  This
is the template for any policy with feedback from realised load to
structure (admission control, load-shedding, QoE-adaptive selection):
compute the feedback trajectory from counts, then slot-sweep the
segments.

Exactness contract
------------------

Arrivals are bucketed with ``searchsorted`` against the *float* slot-end
times the event loop itself uses (``(k+1) * slot``), so edge-of-slot
arrivals land in exactly the slot the event ordering (SlotEnd < Arrival
at equal timestamps) gives them.  Metrics and parent arrays are
bit-identical to the event-driven run for ``slot`` values that are
powers of two (including the default 1.0) — the same binary-exactness
contract as ``fastpath.general`` — because then the per-policy scale
conversions (``label / slot``, ``length * slot``) are exact in IEEE
arithmetic.  On other slot values, deviations are confined to the last
ULP of never-extended leaf stream lengths.

The one observable difference by construction: the oracle's
``BandwidthMetrics.intervals`` list is in stream *finish* order (end
time, ties by extension sequence), while the kernel's array-backed
metrics read back sorted by ``(end, start)``.
:func:`assert_equivalent_run` canonicalises both sides before
comparing; every derived metric is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..baselines.dyadic import DyadicParams
from ..core.full_cost import build_optimal_flat_forest
from ..core.online import build_online_flat_forest
from ..fastpath.dyadic import dyadic_flat_forest
from ..fastpath.flat_forest import FlatForest
from ..scale.kernels import bucket_slots, hysteresis_scan
from ..simulation.metrics import BandwidthMetrics
from ..simulation.server import Simulation
from ..simulation.verify import VerificationReport, verify_forest, verify_forest_continuous

__all__ = [
    "FleetPolicy",
    "FLEET_POLICIES",
    "SEGMENTED",
    "SLOT_SWEEPABLE",
    "BatchedResult",
    "simulate_batched",
    "simulate_segmented",
    "make_event_policy",
    "simulate_event",
    "assert_equivalent_run",
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

#: every kind the fleet tier accepts; ``simulate_batched`` dispatches
#: SEGMENTED kinds to :func:`simulate_segmented` transparently.
FLEET_POLICIES = SLOT_SWEEPABLE + SEGMENTED

_IMMEDIATE = ("immediate-dyadic", "unicast")


@dataclass(frozen=True)
class FleetPolicy:
    """A declarative policy spec the batched kernel can sweep.

    The event-driven :mod:`repro.simulation.policies` classes are
    callback objects; the kernel needs only the *kind* (plus dyadic
    parameters), and :func:`make_event_policy` builds the matching
    callback policy for oracle runs.
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
            if self.window_slots < 1:
                raise ValueError("window_slots must be >= 1")
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
    slot: float
    horizon: float
    metrics: BandwidthMetrics
    #: realised forest with labels on the simulation clock; None when the
    #: run started no streams (empty trace under an arrival-driven policy)
    forest: Optional[FlatForest]
    #: per-node final stream lengths on the simulation clock
    lengths: np.ndarray
    client_arrival: np.ndarray
    client_service: np.ndarray
    client_node: np.ndarray
    #: (slot_index, mode) switch history for segmented kinds, matching the
    #: event policy's ``mode_log`` entry for entry; None for pure sweeps.
    mode_log: Optional[List[Tuple[int, str]]] = None
    _paths: Optional[List[Tuple[float, ...]]] = field(default=None, repr=False)

    def flat_forest(self) -> FlatForest:
        """The realised merge forest (same contract as the event result)."""
        if self.forest is None:
            raise ValueError("run started no streams — nothing to reconstruct")
        return self.forest

    def max_startup_delay(self) -> float:
        served = self.client_node >= 0
        if not served.any():
            return 0.0
        return float(
            np.max(self.client_service[served] - self.client_arrival[served])
        )

    def client_paths(self) -> List[Tuple[float, ...]]:
        """Per-client receiving paths (root-first label tuples), lazily.

        Shares tuple cells via ``FlatForest.paths``; unserved clients get
        an empty tuple.
        """
        if self._paths is None:
            node_paths = self.flat_forest().paths() if self.forest is not None else []
            self._paths = [
                node_paths[int(k)] if k >= 0 else () for k in self.client_node
            ]
        return self._paths

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
        measured = self.metrics.total_units
        analytic = flat.full_cost(self.L)
        report.record(
            abs(measured - analytic) <= 1e-6 * max(1.0, abs(analytic)),
            f"measured bandwidth {measured} != analytic full cost {analytic}",
        )
        report.record(
            bool((self.client_node >= 0).all()),
            "some clients were never served",
        )
        return report


def _served_slots(
    times: np.ndarray, slot_ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(client_slot, served_idx)`` via searchsorted pre-bucketing.

    ``client_slot[i]`` is the slot whose end serves arrival ``i`` under
    the event ordering (SlotEnd fires before an Arrival at the same
    timestamp, so an arrival exactly on a boundary belongs to the *next*
    slot — ``side="right"`` against the float end times encodes that
    rule exactly).  ``served_idx`` is the sorted set of non-empty slots.

    Backend-dispatched (:func:`repro.scale.kernels.bucket_slots`): the
    numpy path is the original ``searchsorted`` expression; the numba
    path a compiled two-pointer sweep, exact for the sorted arrivals the
    trace contract guarantees.  Arrivals past the last slot end are
    never flushed by any SlotEnd — the event loop leaves them parked
    forever; both backends mirror that as -1.
    """
    return bucket_slots(times, slot_ends)


def simulate_batched(
    L: int,
    trace: ArrivalTrace,
    policy: FleetPolicy,
    slot: float = 1.0,
) -> BatchedResult:
    """Run one slot-sweepable policy without an event queue.

    The batched equivalent of ``Simulation(L, trace, policy, slot).run()``
    for every kind in :data:`SLOT_SWEEPABLE` — same metrics, same flat
    forest (see the module docstring for the exactness contract).
    """
    if policy.kind in SEGMENTED:
        return simulate_segmented(L, trace, policy, slot)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if slot <= 0:
        raise ValueError(f"slot must be positive, got {slot}")
    times = np.asarray(trace.times, dtype=np.float64)
    n_clients = times.size
    kind = policy.kind
    params = policy.params or DyadicParams()

    if policy.uses_slots:
        nslots = trace.num_slots(slot)
        # The exact float end times the event loop schedules SlotEnd at.
        slot_ends = np.arange(1, nslots + 1, dtype=np.float64) * slot
        client_slot, served_idx = _served_slots(times, slot_ends)
        served_ends = slot_ends[served_idx]
    else:
        client_slot = served_idx = served_ends = None  # type: ignore[assignment]

    forest: Optional[FlatForest] = None
    lengths = np.empty(0, dtype=np.float64)
    client_node = np.full(n_clients, -1, dtype=np.intp)
    client_service = np.full(n_clients, math.nan, dtype=np.float64)

    if kind == "delay-guaranteed":
        # Static tiled Fibonacci template over *every* slot; the sim works
        # in the scaled frame throughout, so build z/lengths there too.
        parent = build_online_flat_forest(L, nslots).parent
        forest = FlatForest(slot_ends, parent)
        lengths = forest.stream_lengths(L * slot)
        client_node = np.where(client_slot >= 0, client_slot, -1)

    elif kind == "offline-optimal":
        flat_units = build_optimal_flat_forest(L, nslots)
        forest = FlatForest(slot_ends, flat_units.parent)
        lengths = flat_units.stream_lengths(L) * slot
        client_node = np.where(client_slot >= 0, client_slot, -1)

    elif kind == "general-offline":
        if served_idx.size == 0:
            raise ValueError("need at least one served slot")
        from ..fastpath.general import optimal_flat_forest_general

        push_vals = served_ends / slot  # the event policy's `label / scale`
        flat_units = optimal_flat_forest_general(push_vals.tolist(), L)
        forest = FlatForest(served_ends, flat_units.parent)
        lengths = flat_units.stream_lengths(L) * slot
        client_node = _nodes_among_served(client_slot, served_idx)

    elif kind == "batched-dyadic":
        if served_idx.size:
            push_vals = served_ends / slot
            flat_units = dyadic_flat_forest(push_vals, L, params)
            forest = FlatForest(served_ends, flat_units.parent)
            lengths = flat_units.stream_lengths(L) * slot
        client_node = _nodes_among_served(client_slot, served_idx)

    elif kind == "pure-batching":
        if served_idx.size:
            forest = FlatForest(
                served_ends, np.full(served_idx.size, -1, dtype=np.intp)
            )
            lengths = np.full(served_idx.size, L * slot, dtype=np.float64)
        client_node = _nodes_among_served(client_slot, served_idx)

    elif kind == "immediate-dyadic":
        if n_clients:
            forest = dyadic_flat_forest(times, L, params)
            lengths = forest.stream_lengths(L)
        client_node = np.arange(n_clients, dtype=np.intp)
        client_service = times.copy()

    elif kind == "unicast":
        if n_clients:
            forest = FlatForest(times, np.full(n_clients, -1, dtype=np.intp))
            lengths = np.full(n_clients, float(L), dtype=np.float64)
        client_node = np.arange(n_clients, dtype=np.intp)
        client_service = times.copy()

    if policy.uses_slots:
        served = client_slot >= 0
        client_service = np.where(
            served, slot_ends[np.maximum(client_slot, 0)], math.nan
        )
        client_node = np.where(served, client_node, -1)

    if forest is not None:
        starts = forest.arrivals
        metrics = BandwidthMetrics.from_arrays(
            L, starts, starts + lengths, forest.is_root, n_clients
        )
    else:
        metrics = BandwidthMetrics(L=L)
        metrics.clients_served = n_clients

    return BatchedResult(
        policy_name=kind,
        L=L,
        slot=slot,
        horizon=trace.horizon,
        metrics=metrics,
        forest=forest,
        lengths=lengths,
        client_arrival=times,
        client_service=client_service,
        client_node=client_node,
    )


def _nodes_among_served(
    client_slot: np.ndarray, served_idx: np.ndarray
) -> np.ndarray:
    """Map each client's slot to its node index among the served slots."""
    node = np.searchsorted(served_idx, np.maximum(client_slot, 0))
    return np.where(client_slot >= 0, node, -1).astype(np.intp)


def simulate_segmented(
    L: int,
    trace: ArrivalTrace,
    policy: FleetPolicy,
    slot: float = 1.0,
) -> BatchedResult:
    """Run a feedback-coupled policy as a sequence of slot sweeps.

    The batched equivalent of the event-driven ``HybridPolicy`` run:
    bucket arrivals once, compute the DG/dyadic mode trajectory with the
    backend-dispatched hysteresis scan over per-slot arrival counts, cut
    the trace at mode switches, and sweep each constant-mode segment
    closed-form — DG segments are the tiled Fibonacci template anchored
    at mode entry (the mode-exit cut is a preorder prefix, so its ``z``
    values already encode that extensions stopped), dyadic segments are
    the (alpha, beta)-dyadic forest over the segment's *served* slot ends
    (exact because the event policy starts a fresh ``DyadicFlatOnline``
    at every dyadic mode entry).  Per-segment forests concatenate into
    one flat forest: labels stay strictly increasing and no tree spans a
    segment boundary, so global ``z`` values equal the per-segment ones.

    Same exactness contract as :func:`simulate_batched`: bit-identical
    metrics, parent arrays, and mode log for power-of-two ``slot``.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if slot <= 0:
        raise ValueError(f"slot must be positive, got {slot}")
    if policy.kind not in SEGMENTED:
        raise ValueError(f"{policy.kind!r} is not a segmented policy kind")
    params = policy.params or DyadicParams()
    times = np.asarray(trace.times, dtype=np.float64)
    n_clients = times.size
    nslots = trace.num_slots(slot)
    slot_ends = np.arange(1, nslots + 1, dtype=np.float64) * slot
    client_slot, served_idx = _served_slots(times, slot_ends)

    mode_log: List[Tuple[int, str]] = []
    labels_parts: List[np.ndarray] = []
    parent_parts: List[np.ndarray] = []
    length_parts: List[np.ndarray] = []
    node_of_slot = np.full(nslots, -1, dtype=np.intp)
    offset = 0
    if nslots:
        in_slot = client_slot >= 0
        counts = np.bincount(
            client_slot[in_slot], minlength=nslots
        ).astype(np.int64)
        mode = hysteresis_scan(
            counts, policy.window_slots, policy.rate_high, policy.rate_low
        )
        # The event policy starts in dyadic mode (0) and logs each switch
        # at the slot it takes effect; plain-int entries keep the log's
        # repr identical to the oracle's.
        switches = np.flatnonzero(np.diff(np.concatenate(([0], mode))) != 0)
        mode_log = [
            (int(k), "dg" if mode[k] else "dyadic") for k in switches.tolist()
        ]
        is_served = np.zeros(nslots, dtype=bool)
        is_served[served_idx] = True
        cuts = (np.flatnonzero(np.diff(mode) != 0) + 1).tolist()
        for s, e in zip([0] + cuts, cuts + [nslots]):
            if mode[s]:
                # DG serves every slot of the segment, empty or not, and
                # works in the scaled frame (labels are slot-end times).
                n_seg = e - s
                seg_labels = slot_ends[s:e]
                seg_parent = build_online_flat_forest(L, n_seg).parent
                seg_len = FlatForest(seg_labels, seg_parent).stream_lengths(
                    L * slot
                )
                node_of_slot[s:e] = offset + np.arange(n_seg)
            else:
                seg_served = np.flatnonzero(is_served[s:e]) + s
                if seg_served.size == 0:
                    continue
                seg_labels = slot_ends[seg_served]
                flat_units = dyadic_flat_forest(seg_labels / slot, L, params)
                seg_parent = flat_units.parent
                seg_len = flat_units.stream_lengths(L) * slot
                node_of_slot[seg_served] = offset + np.arange(seg_served.size)
            labels_parts.append(seg_labels)
            parent_parts.append(
                np.where(seg_parent < 0, -1, seg_parent + offset)
            )
            length_parts.append(seg_len)
            offset += seg_labels.size

    forest: Optional[FlatForest] = None
    lengths = np.empty(0, dtype=np.float64)
    if labels_parts:
        forest = FlatForest(
            np.concatenate(labels_parts),
            np.concatenate(parent_parts).astype(np.intp),
        )
        lengths = np.concatenate(length_parts)
        starts = forest.arrivals
        metrics = BandwidthMetrics.from_arrays(
            L, starts, starts + lengths, forest.is_root, n_clients
        )
    else:
        metrics = BandwidthMetrics(L=L)
        metrics.clients_served = n_clients

    if nslots:
        served = client_slot >= 0
        client_service = np.where(
            served, slot_ends[np.maximum(client_slot, 0)], math.nan
        )
        # Any slot with arrivals is served in either mode, so the lookup
        # never hits a -1 entry for a served client.
        client_node = np.where(
            served, node_of_slot[np.maximum(client_slot, 0)], -1
        ).astype(np.intp)
    else:
        client_service = np.full(n_clients, math.nan, dtype=np.float64)
        client_node = np.full(n_clients, -1, dtype=np.intp)

    return BatchedResult(
        policy_name=policy.kind,
        L=L,
        slot=slot,
        horizon=trace.horizon,
        metrics=metrics,
        forest=forest,
        lengths=lengths,
        client_arrival=times,
        client_service=client_service,
        client_node=client_node,
        mode_log=mode_log,
    )


# ---------------------------------------------------------------------------
# Oracle pairing: the matching event-driven run
# ---------------------------------------------------------------------------


def make_event_policy(policy: FleetPolicy, L: int, trace: ArrivalTrace, slot: float = 1.0):
    """The event-driven :class:`~repro.simulation.policies.Policy` that
    realises the same run ``simulate_batched`` sweeps — the oracle half
    of every equivalence test and benchmark."""
    from ..simulation.policies import (
        BatchedDyadicPolicy,
        DelayGuaranteedPolicy,
        GeneralOfflinePolicy,
        ImmediateDyadicPolicy,
        OfflineOptimalPolicy,
        PureBatchingPolicy,
        UnicastPolicy,
    )

    kind = policy.kind
    if kind == "delay-guaranteed":
        return DelayGuaranteedPolicy(L)
    if kind == "offline-optimal":
        return OfflineOptimalPolicy(L, trace.num_slots(slot))
    if kind == "general-offline":
        ends = [t / slot for t in trace.slot_end_times(slot)]
        return GeneralOfflinePolicy(L, ends)
    if kind == "batched-dyadic":
        return BatchedDyadicPolicy(L, policy.params)
    if kind == "immediate-dyadic":
        return ImmediateDyadicPolicy(L, policy.params)
    if kind == "pure-batching":
        return PureBatchingPolicy(L)
    if kind == "unicast":
        return UnicastPolicy(L)
    if kind == "hybrid":
        from ..simulation.hybrid import HybridPolicy

        return HybridPolicy(
            L,
            policy.params,
            window_slots=policy.window_slots,
            rate_high=policy.rate_high,
            rate_low=policy.rate_low,
        )
    raise ValueError(f"no event policy for {kind!r}")  # pragma: no cover


def simulate_event(
    L: int, trace: ArrivalTrace, policy: FleetPolicy, slot: float = 1.0
):
    """Run the event-driven oracle for a :class:`FleetPolicy` spec."""
    return Simulation(L, trace, make_event_policy(policy, L, trace, slot), slot).run()


def assert_equivalent_run(event_result, batched: BatchedResult) -> None:
    """Assert an event-driven run and a batched run realised the same system.

    Canonical comparison (used by tests *and* asserted inside benchmark
    runs): identical metric counters, identical sorted interval arrays,
    identical total bandwidth, identical flat-forest labels and parent
    arrays, and identical per-client service times / serving labels.
    """
    em, bm = event_result.metrics, batched.metrics
    assert em.L == bm.L, (em.L, bm.L)
    assert em.streams_started == bm.streams_started, "streams_started differ"
    assert em.roots_started == bm.roots_started, "roots_started differ"
    assert em.clients_served == bm.clients_served, "clients_served differ"

    e_log = list(getattr(event_result, "mode_log", None) or [])
    b_log = list(batched.mode_log or [])
    assert e_log == b_log, f"mode logs differ: {e_log} != {b_log}"

    ea = np.asarray(em.intervals, dtype=np.float64).reshape(-1, 2)
    ba = np.asarray(bm.intervals, dtype=np.float64).reshape(-1, 2)
    e_order = np.lexsort((ea[:, 0], ea[:, 1])) if ea.size else slice(None)
    assert np.array_equal(ea[e_order], ba), "interval multisets differ"
    # The multisets are identical, so totals agree up to summation order
    # (bit-identical on slotted runs, last-ULP on continuous float traces).
    et, bt = float(em.total_units), float(bm.total_units)
    assert abs(et - bt) <= 1e-9 * max(1.0, abs(bt)), "total bandwidth differs"

    if event_result.streams:
        ef, bf = event_result.flat_forest(), batched.flat_forest()
        assert np.array_equal(ef.arrivals, bf.arrivals), "stream labels differ"
        assert np.array_equal(ef.parent, bf.parent), "parent arrays differ"
    else:
        assert batched.forest is None, "batched run invented streams"

    served_labels = {}
    if batched.forest is not None:
        labels = batched.forest.arrivals
        served_labels = {
            i: labels[int(k)] for i, k in enumerate(batched.client_node) if k >= 0
        }
    assert len(event_result.clients) == batched.client_arrival.size
    for i, client in enumerate(event_result.clients):
        if client.tree_label is None:
            assert i not in served_labels, f"client {i} served only in batch"
            continue
        assert client.tree_label == served_labels.get(i), f"client {i} label"
        assert client.service_time == batched.client_service[i], f"client {i} service"
        assert client.path == batched.client_paths()[i], f"client {i} path"
