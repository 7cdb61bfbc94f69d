"""Run-to-run determinism of the event simulation, and client bookkeeping.

The simulation counts time in slots of one guaranteed start-up delay;
minutes become slots at the fleet boundary, and
``tests/fleet/test_runner.py`` pins that conversion against the event
oracle.
"""

from __future__ import annotations

import pytest

from repro.arrivals import poisson
from repro.simulation import BatchedDyadicPolicy, DelayGuaranteedPolicy, Simulation


class TestDeterminism:
    def test_identical_runs(self):
        L = 30
        trace = poisson(1.2, 120.0, seed=10)
        a = Simulation(L, trace, DelayGuaranteedPolicy(L)).run()
        b = Simulation(L, trace, DelayGuaranteedPolicy(L)).run()
        assert a.metrics.total_units == b.metrics.total_units
        assert sorted(a.streams) == sorted(b.streams)
        assert [c.tree_label for c in a.clients] == [c.tree_label for c in b.clients]

    def test_event_counts_deterministic(self):
        L = 25
        trace = poisson(0.8, 80.0, seed=11)
        sims = []
        for _ in range(2):
            sim = Simulation(L, trace, BatchedDyadicPolicy(L))
            sim.run()
            sims.append(sim.queue.processed)
        assert sims[0] == sims[1]


class TestClientBookkeeping:
    def test_assign_twice_rejected(self):
        from repro.simulation.client import Client

        c = Client(client_id=0, arrival=1.0, service_time=2.0)
        c.assign(3.0, (1.0, 3.0))
        with pytest.raises(RuntimeError):
            c.assign(4.0, (4.0,))

    def test_path_must_end_at_own_stream(self):
        from repro.simulation.client import Client

        c = Client(client_id=0, arrival=1.0, service_time=2.0)
        with pytest.raises(ValueError):
            c.assign(3.0, (1.0, 2.0))

    def test_merge_hops(self):
        from repro.simulation.client import Client

        c = Client(client_id=0, arrival=1.0, service_time=2.0)
        c.assign(3.0, (0.0, 1.0, 3.0))
        assert c.merge_hops() == 2

    def test_service_before_arrival_rejected(self):
        from repro.simulation.client import Client

        with pytest.raises(ValueError):
            Client(client_id=0, arrival=2.0, service_time=1.0)
