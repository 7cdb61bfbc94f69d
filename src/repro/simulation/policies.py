"""Scheduling policies for the MoD server simulation.

Each policy translates client arrivals into stream starts/extensions via
the :class:`~repro.simulation.server.Simulation` services.  Merging
policies share the Lemma 1 bookkeeping: when a new node ``y`` with root
path ``x_0 < ... < x_k = y`` appears, the stream for ``y`` starts with the
leaf length ``y - p(y)`` and every non-root ancestor ``a`` is extended to
``2 y - a - p(a)`` (its subtree's last arrival ``z(a)`` just became ``y``).
Streams are only ever extended while still live — guaranteed for
consecutive slotted arrivals and for dyadic windows with ``alpha <= 2``
(see ``baselines.dyadic``); the :class:`~repro.simulation.stream.Stream`
entity asserts it.

The off-line replays consume precomputed flat parent arrays
(``build_optimal_flat_forest`` / the ``OnlineScheduler`` tables) and
build no ``MergeNode`` objects.  The dyadic policies place each arrival
with the stack walk of :class:`~repro.baselines.dyadic.DyadicOnline`;
the new node's root path is the receiving path the Lemma 1 extensions
walk.

Policies implemented (the paper's Section 4.2 cast plus baselines):

* :class:`DelayGuaranteedPolicy` — the paper's on-line algorithm: a stream
  at every slot end regardless of arrivals, static Fibonacci-tree merging.
* :class:`OfflineOptimalPolicy` — replay of the Theorem 10/12 optimal
  forest (delay-guaranteed: one imaginary client per slot).
* :class:`ImmediateDyadicPolicy` — dyadic merging, zero start-up delay.
* :class:`BatchedDyadicPolicy` — dyadic merging over non-empty slot ends.
* :class:`PureBatchingPolicy` — a full stream per non-empty slot end.
* :class:`UnicastPolicy` — a full stream per client.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..baselines.dyadic import DyadicOnline, DyadicParams
from ..core.full_cost import build_optimal_flat_forest
from ..core.online import OnlineScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.merge_tree import MergeNode
    from .client import Client
    from .server import Simulation

__all__ = [
    "Policy",
    "DelayGuaranteedPolicy",
    "OfflineOptimalPolicy",
    "GeneralOfflinePolicy",
    "ImmediateDyadicPolicy",
    "BatchedDyadicPolicy",
    "PureBatchingPolicy",
    "UnicastPolicy",
]


class Policy:
    """Base policy.  Subclasses set ``name`` and ``uses_slots``."""

    name: str = "abstract"
    #: slotted policies receive ``on_slot_end``; immediate ones ``on_arrival``
    uses_slots: bool = True

    def on_arrival(self, client: "Client", sim: "Simulation") -> None:
        raise NotImplementedError(f"{self.name} does not serve immediate arrivals")

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        raise NotImplementedError(f"{self.name} does not use slots")

    def on_finish(self, sim: "Simulation") -> None:
        """Called once after the event queue drains."""


def _serve_dyadic_path(
    sim: "Simulation",
    node: "MergeNode",
    L: float,
    scale: float,
    label: float,
) -> Tuple[float, ...]:
    """Start the stream for a freshly placed dyadic node and apply the
    Lemma 1 ancestor extensions, all from its receiving path alone.

    ``node`` was just returned by ``DyadicOnline.push``, in the builder's
    (slot-unit) frame; ``label`` is the new stream's label on the
    simulation clock (``node.arrival * scale`` up to the caller's
    arithmetic).  Returns the scaled path for client assignment.
    """
    path_slots = tuple(n.arrival for n in node.path_from_root())
    path = tuple(p * scale for p in path_slots)
    if len(path) == 1:
        sim.start_stream(label, planned_units=L * scale, parent_label=None)
        return path
    parent_label = path[-2]
    sim.start_stream(
        label, planned_units=label - parent_label, parent_label=parent_label
    )
    # z(a) updates for every non-root strict ancestor, in slot units.
    y = path_slots[-1]
    for depth in range(len(path_slots) - 2, 0, -1):
        a, pa = path_slots[depth], path_slots[depth - 1]
        sim.extend_stream(a * scale, (2 * y - a - pa) * scale)
    return path


class DelayGuaranteedPolicy(Policy):
    """The paper's on-line Delay Guaranteed algorithm (Section 4).

    Starts a stream at the end of *every* slot — arrivals or not — and
    merges them along the precomputed optimal tree for ``F_h`` arrivals.
    All decisions are static: the per-slot work is one table lookup.
    """

    uses_slots = True

    def __init__(self, L: int):
        self.name = "delay-guaranteed"
        self.scheduler = OnlineScheduler(L)
        self.L = L

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        order = self.scheduler.order_for_slot(slot_index)
        # Work in slot-end time units: slot k's stream starts at (k+1)*slot.
        scale = sim.slot
        label = (slot_index + 1) * scale
        path_slots = self.scheduler.receiving_path(slot_index)
        path = tuple((s + 1) * scale for s in path_slots)
        if order.is_root:
            sim.start_stream(label, planned_units=self.L * scale, parent_label=None)
        else:
            parent_label = (order.parent_slot + 1) * scale
            sim.start_stream(
                label,
                planned_units=label - parent_label,
                parent_label=parent_label,
            )
            # z(a) updates for every non-root strict ancestor.
            for depth in range(len(path) - 2, 0, -1):
                a, pa = path[depth], path[depth - 1]
                sim.extend_stream(a, 2 * label - a - pa)
        for c in clients:
            c.assign(label, path)


class OfflineOptimalPolicy(Policy):
    """Clairvoyant replay of the optimal delay-guaranteed forest.

    Requires the number of slots up front (it is the off-line algorithm);
    starts a stream every slot like the DG algorithm, but merges along the
    Theorem 10/12 optimal forest, with final lengths known at start time.
    """

    uses_slots = True

    def __init__(self, L: int, n_slots: int):
        self.name = "offline-optimal"
        self.L = L
        # Flat construction: parent arrays only, no MergeNode graph.
        self.forest = build_optimal_flat_forest(L, n_slots)
        self._lengths = self.forest.stream_lengths(L).tolist()
        self._parent = self.forest.parent.tolist()
        self._path = self.forest.paths(range(n_slots))

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        scale = sim.slot
        label = (slot_index + 1) * scale
        parent = self._parent[slot_index]
        parent_label = None if parent < 0 else (parent + 1) * scale
        sim.start_stream(
            label,
            planned_units=self._lengths[slot_index] * scale,
            parent_label=parent_label,
        )
        path = tuple((p + 1) * scale for p in self._path[slot_index])
        for c in clients:
            c.assign(label, path)


class GeneralOfflinePolicy(Policy):
    """Clairvoyant optimum over the *non-empty* slot ends.

    Unlike :class:`OfflineOptimalPolicy` (the delay-guaranteed every-slot
    model), this replays the general-arrivals optimal forest of [6]
    (``repro.fastpath.general``, Knuth-windowed O(n^2)) over only the
    slots that contain clients — the fair clairvoyant comparator for
    batched dyadic on sparse workloads, usable at thousands of non-empty
    slots.
    """

    uses_slots = True

    def __init__(self, L: int, served_slot_ends: Sequence[float]):
        """``served_slot_ends``: the slot-end times *in slot units* that
        will contain at least one client, known in advance (it is an
        off-line policy).  ``trace.slot_end_times(slot)`` returns absolute
        times, so divide by the slot — ``[t / slot for t in
        trace.slot_end_times(slot)]`` — which is the identity for the
        default ``slot = 1.0``."""
        from ..fastpath.general import optimal_flat_forest_general

        self.name = "general-offline"
        self.L = L
        ends = list(served_slot_ends)
        if not ends:
            raise ValueError("need at least one served slot")
        # The O(n^2) fastpath solution, consumed straight off the flat
        # parent arrays — no MergeNode graph is ever built.
        self.forest = optimal_flat_forest_general(ends, L)
        arrivals = self.forest.arrivals.tolist()
        parent = self.forest.parent.tolist()
        paths = self.forest.paths()
        self._lengths = self.forest.stream_length_map(L)
        self._parent = {
            a: (None if parent[i] < 0 else arrivals[parent[i]])
            for i, a in enumerate(arrivals)
        }
        self._path = dict(zip(arrivals, paths))

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        if not clients:
            return
        scale = sim.slot
        label = (slot_index + 1) * scale
        key = label / scale
        if key not in self._parent:
            raise RuntimeError(
                f"slot end {key} was not in the precomputed served set"
            )
        parent = self._parent[key]
        sim.start_stream(
            label,
            planned_units=self._lengths[key] * scale,
            parent_label=None if parent is None else parent * scale,
        )
        path = tuple(p * scale for p in self._path[key])
        for c in clients:
            c.assign(label, path)


class ImmediateDyadicPolicy(Policy):
    """Immediate-service dyadic stream merging (alpha, beta) [9]."""

    uses_slots = False

    def __init__(self, L: int, params: Optional[DyadicParams] = None):
        self.name = "immediate-dyadic"
        self.L = L
        self.params = params or DyadicParams()
        self._builder = DyadicOnline(L, self.params)

    def on_arrival(self, client: "Client", sim: "Simulation") -> None:
        node = self._builder.push(client.arrival)
        path = _serve_dyadic_path(sim, node, self.L, 1.0, client.arrival)
        client.assign(client.arrival, path)


class BatchedDyadicPolicy(Policy):
    """Dyadic merging over slot ends, skipping empty slots (Section 4.2)."""

    uses_slots = True

    def __init__(self, L: int, params: Optional[DyadicParams] = None):
        self.name = "batched-dyadic"
        self.L = L
        self.params = params or DyadicParams()
        self._builder = DyadicOnline(L, self.params)

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        if not clients:
            return  # unlike Delay Guaranteed, empty slots start nothing
        scale = sim.slot
        label = (slot_index + 1) * scale
        # Dyadic windows are in the same units as L; work in slot units.
        node = self._builder.push(label / scale)
        path = _serve_dyadic_path(sim, node, self.L, scale, label)
        for c in clients:
            c.assign(label, path)


class PureBatchingPolicy(Policy):
    """One full stream per non-empty slot; no merging at all."""

    uses_slots = True

    def __init__(self, L: int):
        self.name = "pure-batching"
        self.L = L

    def on_slot_end(
        self, slot_index: int, clients: List["Client"], sim: "Simulation"
    ) -> None:
        if not clients:
            return
        scale = sim.slot
        label = (slot_index + 1) * scale
        sim.start_stream(label, planned_units=self.L * scale, parent_label=None)
        for c in clients:
            c.assign(label, (label,))


class UnicastPolicy(Policy):
    """A dedicated full stream per client — the strawman upper bound."""

    uses_slots = False

    def __init__(self, L: int):
        self.name = "unicast"
        self.L = L

    def on_arrival(self, client: "Client", sim: "Simulation") -> None:
        sim.start_stream(client.arrival, planned_units=self.L, parent_label=None)
        client.assign(client.arrival, (client.arrival,))
