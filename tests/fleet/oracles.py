"""The event-driven oracle for the batched fleet engine.

``simulate_event`` runs the heap-ordered :class:`Simulation` with the
callback policy that realises the run ``simulate_batched`` sweeps, and
``assert_equivalent_run`` compares the two stream for stream and client
for client.  The equivalence tests and ``benchmarks/bench_fleet.py``
pair every batched run with this oracle.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.arrivals.traces import ArrivalTrace
from repro.fleet.engine import BatchedResult, FleetPolicy
from repro.simulation.hybrid import HybridPolicy
from repro.simulation.policies import (
    BatchedDyadicPolicy,
    DelayGuaranteedPolicy,
    GeneralOfflinePolicy,
    ImmediateDyadicPolicy,
    OfflineOptimalPolicy,
    PureBatchingPolicy,
    UnicastPolicy,
)
from repro.simulation.server import Simulation


def make_event_policy(policy: FleetPolicy, L: int, trace: ArrivalTrace):
    """The event-driven :class:`~repro.simulation.policies.Policy` that
    realises the same run ``simulate_batched`` sweeps."""
    kind = policy.kind
    if kind == "delay-guaranteed":
        return DelayGuaranteedPolicy(L)
    if kind == "offline-optimal":
        return OfflineOptimalPolicy(L, trace.num_slots())
    if kind == "general-offline":
        return GeneralOfflinePolicy(L, trace.slot_end_times())
    if kind == "batched-dyadic":
        return BatchedDyadicPolicy(L, policy.params)
    if kind == "immediate-dyadic":
        return ImmediateDyadicPolicy(L, policy.params)
    if kind == "pure-batching":
        return PureBatchingPolicy(L)
    if kind == "unicast":
        return UnicastPolicy(L)
    if kind == "hybrid":
        return HybridPolicy(
            L,
            policy.params,
            window_slots=policy.window_slots,
            rate_high=policy.rate_high,
            rate_low=policy.rate_low,
        )
    raise ValueError(f"no event policy for {kind!r}")  # pragma: no cover


def simulate_event(L: int, trace: ArrivalTrace, policy: FleetPolicy):
    """Run the event-driven oracle for a :class:`FleetPolicy` spec."""
    return Simulation(L, trace, make_event_policy(policy, L, trace)).run()


def client_paths(batched: BatchedResult) -> List[Tuple[float, ...]]:
    """Per-client receiving paths (root-first label tuples) of a batched
    run; unserved clients get an empty tuple."""
    node_paths = batched.forest.paths() if batched.forest is not None else []
    return [node_paths[int(k)] if k >= 0 else () for k in batched.client_node]


def assert_equivalent_run(event_result, batched: BatchedResult) -> None:
    """Assert an event-driven run and a batched run realised the same system.

    Canonical comparison: identical metric counters, identical sorted
    interval arrays, identical total bandwidth, identical flat-forest
    labels and parent arrays, and identical per-client service times,
    serving labels and receiving paths.
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
    paths = client_paths(batched)
    assert len(event_result.clients) == batched.client_arrival.size
    for i, client in enumerate(event_result.clients):
        if client.tree_label is None:
            assert i not in served_labels, f"client {i} served only in batch"
            continue
        assert client.tree_label == served_labels.get(i), f"client {i} label"
        assert client.service_time == batched.client_service[i], f"client {i} service"
        assert client.path == paths[i], f"client {i} path"
