"""The Media-on-Demand server simulation.

Drives a :class:`~repro.simulation.events.EventQueue` over an arrival
trace under a pluggable :class:`~repro.simulation.policies.Policy`:

* ``Arrival`` events hand each client to the policy (immediate-service
  policies act right away; batching policies park them until a slot end);
* ``SlotEnd`` events fire at every slot boundary for slotted policies;
* ``StreamEnd`` events finalise a stream's bandwidth when its (possibly
  extended) planned end passes; extensions postpone the event lazily
  (a heap tombstone re-pushed on surfacing) rather than rescheduling.

Event ordering at equal timestamps is SlotEnd < Arrival < StreamEnd so
that (a) an arrival landing exactly on a boundary belongs to the *next*
slot and (b) a slot-end extension always reaches a stream before the
stream's end event fires.

Arrivals stop at the trace horizon but live streams run to completion, so
the measured total equals the analytic full cost of the final merge
forest — an equality the integration tests assert exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..arrivals.traces import ArrivalTrace
from ..core.merge_tree import MergeForest
from ..fastpath.flat_forest import FlatForest
from .client import Client
from .events import Event, EventQueue
from .metrics import BandwidthMetrics
from .policies import Policy
from .stream import Stream

__all__ = ["Simulation", "SimulationResult"]

_PRIO_SLOT_END = 0
_PRIO_ARRIVAL = 1
_PRIO_STREAM_END = 9


@dataclass
class SimulationResult:
    """Everything a run produces."""

    policy_name: str
    L: int
    metrics: BandwidthMetrics
    clients: List[Client]
    streams: Dict[float, Stream]
    horizon: float
    #: (slot_index, mode) switch history for mode-switching policies
    #: (``HybridPolicy``); None for policies without one.
    mode_log: Optional[List[tuple]] = None

    def flat_forest(self) -> FlatForest:
        """The merge forest the run realised, as flat parent arrays.

        Stream labels (sorted) become the node order; parent labels are
        resolved to indices by binary search — no ``MergeNode`` graph is
        built at any client count.  This is what
        :mod:`repro.simulation.verify` replays wholesale against what the
        server actually broadcast.  Raises ``ValueError`` for a run that
        started no streams (a flat forest cannot be empty).
        """
        if not self.streams:
            raise ValueError("run started no streams — nothing to reconstruct")
        labels = np.asarray(sorted(self.streams), dtype=np.float64)
        parent_labels = np.asarray(
            [
                math.nan
                if (p := self.streams[l].parent_label) is None
                else p
                for l in labels.tolist()
            ],
            dtype=np.float64,
        )
        is_root = np.isnan(parent_labels)
        idx = np.minimum(
            np.searchsorted(labels, np.where(is_root, labels[0], parent_labels)),
            labels.size - 1,
        )
        if not np.array_equal(
            labels[idx[~is_root]], parent_labels[~is_root]
        ):
            raise ValueError("stream parent label not among stream labels")
        parent = np.where(is_root, -1, idx)
        return FlatForest(labels, parent)

    def forest(self) -> MergeForest:
        """Object-graph view of :meth:`flat_forest` (for rendering and
        serialization; the verification hot path never builds it)."""
        return self.flat_forest().to_forest()

    def max_startup_delay(self) -> float:
        return max((c.startup_delay for c in self.clients), default=0.0)


class Simulation:
    """One simulation run: a trace, a policy, a media length.  Time and
    ``L`` count slots of one guaranteed start-up delay: slot ``k`` ends
    at ``k + 1``."""

    def __init__(self, L: int, trace: ArrivalTrace, policy: Policy) -> None:
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        self.L = L
        self.trace = trace
        self.policy = policy
        self.queue = EventQueue()
        self.metrics = BandwidthMetrics(L=L)
        self.clients: List[Client] = []
        self.streams: Dict[float, Stream] = {}
        self._stream_end_events: Dict[float, Event] = {}
        self._pending_slot_clients: List[Client] = []
        self._next_stream_id = 0
        self._next_client_id = 0

    # -- services exposed to policies ---------------------------------------

    @property
    def now(self) -> float:
        return self.queue.now

    def start_stream(
        self,
        label: float,
        planned_units: float,
        parent_label: Optional[float] = None,
    ) -> Stream:
        """Begin a multicast at the current time.

        ``label`` identifies the merge-tree node (must be unique);
        ``parent_label`` is the stream it will merge into (None = root, in
        which case ``planned_units`` should be the full ``L``).
        """
        if label in self.streams:
            raise ValueError(f"duplicate stream label {label}")
        stream = Stream(
            stream_id=self._next_stream_id,
            label=label,
            start=self.now,
            planned_units=planned_units,
            is_root=parent_label is None,
            parent_label=parent_label,
        )
        self._next_stream_id += 1
        self.streams[label] = stream
        self._schedule_stream_end(stream)
        return stream

    def extend_stream(self, label: float, new_units: float) -> None:
        """Raise a live stream's planned length (no-op if not longer).

        The stream's end event is *postponed* lazily (tombstone in the
        heap, O(1)) instead of cancelled and rescheduled — extensions are
        the hottest queue operation under merging policies, and the
        postpone draws its tie-break sequence number now, so event
        ordering is unchanged from the eager reschedule.
        """
        stream = self.streams[label]
        if new_units <= stream.planned_units:
            return
        stream.extend_to_units(new_units, now=self.now)
        self.queue.postpone(self._stream_end_events[label], stream.planned_end)

    def _schedule_stream_end(self, stream: Stream) -> None:
        self._stream_end_events[stream.label] = self.queue.schedule(
            stream.planned_end,
            lambda s=stream: self._finish_stream(s),
            priority=_PRIO_STREAM_END,
        )

    def _finish_stream(self, stream: Stream) -> None:
        units = stream.finish(self.now)
        self.metrics.record_stream(stream.start, stream.start + units, stream.is_root)
        self._stream_end_events.pop(stream.label, None)

    # -- run ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        for t in self.trace:
            self.queue.schedule(
                t, lambda t=t: self._handle_arrival(t), priority=_PRIO_ARRIVAL
            )
        if self.policy.uses_slots:
            nslots = self.trace.num_slots()
            for k in range(nslots):
                end = float(k + 1)
                self.queue.schedule(
                    end,
                    lambda k=k, end=end: self._handle_slot_end(k, end),
                    priority=_PRIO_SLOT_END,
                )
        # Drain everything: arrivals + slots end by the horizon, remaining
        # stream-end events run past it so costs are complete.
        self.queue.run(until=math.inf)
        self.policy.on_finish(self)
        if self._stream_end_events:
            raise RuntimeError("streams left unfinished after drain")
        return SimulationResult(
            policy_name=self.policy.name,
            L=self.L,
            metrics=self.metrics,
            clients=self.clients,
            streams=self.streams,
            horizon=self.trace.horizon,
            mode_log=getattr(self.policy, "mode_log", None),
        )

    # -- event handlers -----------------------------------------------------

    def _handle_arrival(self, t: float) -> None:
        client = Client(client_id=self._next_client_id, arrival=t, service_time=t)
        self._next_client_id += 1
        self.clients.append(client)
        self.metrics.record_client()
        if self.policy.uses_slots:
            # Parked until the next slot boundary; service time fixed there.
            self._pending_slot_clients.append(client)
        else:
            self.policy.on_arrival(client, self)

    def _handle_slot_end(self, slot_index: int, end_time: float) -> None:
        batch = self._pending_slot_clients
        self._pending_slot_clients = []
        for c in batch:
            c.service_time = end_time
        self.policy.on_slot_end(slot_index, batch, self)
