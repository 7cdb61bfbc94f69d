"""Property tests: the batched slot-sweep kernel == the event-driven oracle.

The acceptance contract of the fleet engine: for every slot-sweepable
policy, ``simulate_batched`` must realise *exactly* the system
``Simulation`` realises — identical metric counters, identical interval
multisets, identical total bandwidth, identical ``flat_forest()`` labels
and parent arrays, identical per-client service.  Hypothesis drives
adversarial traces on a 1/8 grid, so a large fraction of arrivals land
*exactly* on slot boundaries — the edge the searchsorted bucketing must
get right (SlotEnd fires before an equal-timestamp Arrival, so a
boundary arrival belongs to the next slot).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import ArrivalTrace
from repro.baselines.dyadic import DyadicParams
from repro.fleet import FleetPolicy, simulate_batched

from tests.fleet.oracles import assert_equivalent_run, simulate_event

#: the policy matrix the ISSUE names: dyadic at alpha in {2, phi},
#: offline-optimal, and the batching baselines, plus DG and the
#: general-arrivals optimum.
POLICIES = [
    FleetPolicy.delay_guaranteed(),
    FleetPolicy.offline_optimal(),
    FleetPolicy.general_offline(),
    FleetPolicy.batched_dyadic(),  # alpha = phi
    FleetPolicy.batched_dyadic(DyadicParams(alpha=2.0, beta=0.5)),
    FleetPolicy.immediate_dyadic(),  # alpha = phi
    FleetPolicy.immediate_dyadic(DyadicParams(alpha=2.0, beta=0.5)),
    FleetPolicy.pure_batching(),
    FleetPolicy.unicast(),
]

NEEDS_ARRIVALS = {"general-offline"}


@st.composite
def edge_of_slot_traces(draw):
    """Strictly increasing arrivals on the 1/8 grid over 2..24 slots.

    Roughly a third of drawn points are exact integers — arrivals landing
    exactly on slot boundaries.
    """
    n_slots = draw(st.integers(min_value=2, max_value=24))
    grid = st.integers(min_value=0, max_value=n_slots * 8 - 1)
    ticks = draw(st.sets(grid, min_size=1, max_size=40))
    boundary_bias = draw(
        st.sets(
            st.integers(min_value=0, max_value=n_slots - 1), max_size=8
        )
    )
    ticks |= {8 * b for b in boundary_bias}
    times = tuple(sorted(t / 8.0 for t in ticks))
    return ArrivalTrace(times=times, horizon=float(n_slots))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.kind}-"
                         f"{'a2' if p.params and p.params.alpha == 2.0 else 'phi'}")
@settings(max_examples=25, deadline=None)
@given(trace=edge_of_slot_traces(), L=st.sampled_from([5, 9, 15]))
def test_policy_equivalence_on_edge_traces(policy, trace, L):
    event = simulate_event(L, trace, policy)
    batched = simulate_batched(L, trace, policy)
    assert_equivalent_run(event, batched)


@settings(max_examples=15, deadline=None)
@given(
    mean=st.sampled_from([0.2, 0.8, 3.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    L=st.sampled_from([10, 20]),
)
def test_equivalence_on_poisson_traces(mean, seed, L):
    """Continuous (non-grid) arrival times, immediate and slotted."""
    from repro.arrivals import poisson

    trace = poisson(mean, 40.0, seed=seed)
    for policy in POLICIES:
        if not len(trace.times) and policy.kind in NEEDS_ARRIVALS:
            continue
        assert_equivalent_run(
            simulate_event(L, trace, policy),
            simulate_batched(L, trace, policy),
        )


# ---------------------------------------------------------------------------
# the segmented hybrid kind: thresholds x windows
# ---------------------------------------------------------------------------

#: (window_slots, rate_high, rate_low) with rate_low drawn as a fraction
#: of rate_high, so every draw satisfies the 0 <= low <= high contract;
#: frac=1.0 (low == high) and window=1 are the flapping-prone corners.
hybrid_knobs = st.builds(
    lambda w, rh, frac: (w, rh, rh * frac),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)


class TestHybridEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        trace=edge_of_slot_traces(),
        knobs=hybrid_knobs,
        L=st.sampled_from([5, 9, 15]),
    )
    def test_hybrid_equivalence_on_edge_traces(self, trace, knobs, L):
        w, rh, rl = knobs
        policy = FleetPolicy.hybrid(window_slots=w, rate_high=rh, rate_low=rl)
        event = simulate_event(L, trace, policy)
        batched = simulate_batched(L, trace, policy)
        assert_equivalent_run(event, batched)
        # Both logs are plain (int, str) tuples: byte-equal reprs, so the
        # golden table's rendered mode-log note cannot drift.
        assert repr(event.mode_log) == repr(batched.mode_log)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), L=st.sampled_from([10, 20]))
    def test_hybrid_on_bursty_poisson_traces(self, seed, L):
        """Alternating busy/quiet phases drive the rate across both
        thresholds, so the scan's segment cutting is actually exercised."""
        from repro.arrivals import poisson

        times = []
        for phase in range(4):
            lam = 0.3 if phase % 2 else 4.0
            sub = poisson(lam, 15.0, seed=seed + phase)
            times.extend(phase * 15.0 + t for t in sub)
        trace = ArrivalTrace(times=tuple(sorted(times)), horizon=60.0)
        policy = FleetPolicy.hybrid(window_slots=4, rate_high=1.0, rate_low=0.5)
        event = simulate_event(L, trace, policy)
        batched = simulate_batched(L, trace, policy)
        assert_equivalent_run(event, batched)

    def test_hybrid_segmented_run_verifies(self):
        trace = ArrivalTrace(
            times=tuple(i + 0.25 for i in range(16)), horizon=16.0
        )
        policy = FleetPolicy.hybrid(window_slots=2, rate_high=1.0, rate_low=0.5)
        simulate_batched(15, trace, policy).verify().raise_if_failed()

    @pytest.mark.parametrize("delay", [1.0, 0.5, 2.0, 0.3])
    @pytest.mark.parametrize(
        "params", [None, DyadicParams(alpha=2.0, beta=0.5)], ids=["phi", "a2"]
    )
    @settings(max_examples=20, deadline=None)
    @given(
        mean=st.sampled_from([0.2, 0.8, 3.0]),
        seed=st.integers(min_value=0, max_value=2**31),
        L=st.sampled_from([7, 15, 40]),
    )
    def test_hybrid_pinned_to_one_mode_is_that_kind(self, delay, params, mean, seed, L):
        """One segment over the whole horizon: thresholds that never let
        the hybrid leave DG (or dyadic) give exactly the single-kind run,
        on 40 minutes of arrivals in slot units of any delay, as the fleet
        boundary converts them (``t / delay``): integral and fractional
        horizons alike."""
        from repro.arrivals import poisson

        minutes = poisson(mean, 40.0, seed=seed)
        trace = ArrivalTrace(minutes.times / delay, 40.0 / delay)
        pinned = [
            (FleetPolicy.hybrid(params, rate_high=0.0, rate_low=0.0),
             FleetPolicy.delay_guaranteed(), [(0, "dg")]),
            (FleetPolicy.hybrid(params, rate_high=math.inf),
             FleetPolicy.batched_dyadic(params), []),
        ]
        for hybrid, kind, mode_log in pinned:
            a = simulate_batched(L, trace, hybrid)
            b = simulate_batched(L, trace, kind)
            assert a.mode_log == mode_log
            assert (a.forest is None) == (b.forest is None)
            if a.forest is not None:
                for name in ("arrivals", "parent", "z"):
                    np.testing.assert_array_equal(
                        getattr(a.forest, name), getattr(b.forest, name)
                    )
            for name in ("lengths", "client_arrival", "client_service", "client_node"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            ma, mb = a.metrics, b.metrics
            assert (ma.streams_started, ma.roots_started, ma.clients_served) == (
                mb.streams_started, mb.roots_started, mb.clients_served
            )
            for x, y in zip(ma.interval_arrays(), mb.interval_arrays()):
                np.testing.assert_array_equal(x, y)


class TestDeterministicEdges:
    def test_boundary_arrival_lands_in_next_slot(self):
        # 2.0 is exactly the end of slot 1: SlotEnd(1) fires before the
        # arrival, so it is served at the end of slot 2 (time 3.0).
        trace = ArrivalTrace(times=(2.0,), horizon=4.0)
        policy = FleetPolicy.batched_dyadic()
        batched = simulate_batched(10, trace, policy)
        assert batched.client_service[0] == 3.0
        assert_equivalent_run(simulate_event(10, trace, policy), batched)

    def test_empty_trace_all_policies(self):
        empty = ArrivalTrace(times=(), horizon=12.0)
        for policy in POLICIES:
            if policy.kind in NEEDS_ARRIVALS:
                with pytest.raises(ValueError):
                    simulate_batched(15, empty, policy)
                continue
            assert_equivalent_run(
                simulate_event(15, empty, policy),
                simulate_batched(15, empty, policy),
            )

    def test_single_arrival_at_zero(self):
        trace = ArrivalTrace(times=(0.0,), horizon=3.0)
        for policy in POLICIES:
            assert_equivalent_run(
                simulate_event(8, trace, policy),
                simulate_batched(8, trace, policy),
            )

    def test_dg_forest_is_independent_of_arrivals(self):
        dense = ArrivalTrace(times=tuple(i / 4 for i in range(40)), horizon=10.0)
        sparse = ArrivalTrace(times=(9.5,), horizon=10.0)
        policy = FleetPolicy.delay_guaranteed()
        a = simulate_batched(15, dense, policy)
        b = simulate_batched(15, sparse, policy)
        assert a.metrics.total_units == b.metrics.total_units
        assert np.array_equal(a.flat_forest().parent, b.flat_forest().parent)

    def test_verify_replays_clean(self):
        trace = ArrivalTrace(
            times=tuple(i + 0.25 for i in range(16)), horizon=16.0
        )
        for policy in (
            FleetPolicy.delay_guaranteed(),
            FleetPolicy.offline_optimal(),
            FleetPolicy.batched_dyadic(),
        ):
            simulate_batched(15, trace, policy).verify().raise_if_failed()

    def test_rejects_unknown_kinds_and_bad_thresholds(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            FleetPolicy("multicast-magic")
        with pytest.raises(ValueError):
            FleetPolicy("unicast", DyadicParams())
        # hybrid is a first-class fleet kind now (PR 10), with validated
        # hysteresis knobs; dyadic params are allowed (its quiet mode).
        assert FleetPolicy("hybrid").uses_slots
        assert FleetPolicy.hybrid(DyadicParams()).params is not None
        for window in (0, 2.5, True):
            # 2.5 used to fail later with a TypeError, True ran as 1
            with pytest.raises(ValueError, match="window_slots"):
                FleetPolicy.hybrid(window_slots=window)
        assert FleetPolicy.hybrid(window_slots=np.int64(3)).window_slots == 3
        with pytest.raises(ValueError, match="rate_low"):
            FleetPolicy.hybrid(rate_high=1.0, rate_low=2.0)
        with pytest.raises(ValueError, match="rate_low"):
            FleetPolicy.hybrid(rate_low=-0.5)

    def test_rejects_bad_args(self):
        trace = ArrivalTrace(times=(0.5,), horizon=2.0)
        with pytest.raises(ValueError):
            simulate_batched(0, trace, FleetPolicy.unicast())
