"""Tests for the (alpha, beta)-dyadic stream merging baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import constant_rate
from repro.baselines.dyadic import (
    DyadicOnline,
    DyadicParams,
    dyadic_cost,
    dyadic_forest,
    dyadic_interval_index,
    dyadic_tree,
    paper_beta,
)
from repro.core import dp
from repro.core.fibonacci import PHI
from repro.simulation.verify import verify_forest_continuous

from tests.conftest import increasing_times


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicParams(alpha=1.0)
        with pytest.raises(ValueError):
            DyadicParams(beta=0.0)
        with pytest.raises(ValueError):
            DyadicParams(beta=1.5)

    def test_window(self):
        assert DyadicParams(beta=0.5).window(100) == 50

    def test_nan_alpha_rejected(self):
        """``nan <= 1.0`` is False, so NaN used to pass."""
        with pytest.raises(ValueError, match="alpha"):
            DyadicParams(alpha=float("nan"))

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            DyadicParams(alpha=float("inf"))

    def test_alpha_below_floor_rejected(self):
        from repro.baselines.dyadic import MIN_ALPHA

        with pytest.raises(ValueError, match="alpha"):
            DyadicParams(alpha=1 + 1e-9)
        with pytest.raises(ValueError, match="alpha"):
            DyadicParams(alpha=np.nextafter(MIN_ALPHA, 0.0))
        assert DyadicParams(alpha=MIN_ALPHA).alpha == MIN_ALPHA

    def test_paper_beta(self):
        assert paper_beta(100, "poisson") == 0.5
        assert paper_beta(100, "constant") == 0.55  # F_10/L = 55/100
        assert paper_beta(15, "constant") == 8 / 15
        with pytest.raises(ValueError):
            paper_beta(100, "uniform")
        # F_h / L beats clearly-off betas on constant-rate arrivals
        trace = list(constant_rate(0.5, 3000.0))
        best = paper_beta(100, "constant")
        costs = {
            beta: dyadic_cost(trace, 100, DyadicParams(alpha=PHI, beta=beta))
            for beta in (0.15, best, 0.95)
        }
        assert costs[best] <= costs[0.15]
        assert costs[best] <= costs[0.95] * 1.05


class TestIntervalIndex:
    def test_alpha2_halves(self):
        # [0, 8]: I1 = [4, 8], I2 = [2, 4), I3 = [1, 2), ...
        assert dyadic_interval_index(8, 0, 8, 2.0) == 1
        assert dyadic_interval_index(4, 0, 8, 2.0) == 1
        assert dyadic_interval_index(3.999, 0, 8, 2.0) == 2
        assert dyadic_interval_index(2, 0, 8, 2.0) == 2
        assert dyadic_interval_index(1.5, 0, 8, 2.0) == 3
        assert dyadic_interval_index(0.01, 0, 8, 2.0) == 10

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            dyadic_interval_index(0, 0, 8, 2.0)
        with pytest.raises(ValueError):
            dyadic_interval_index(9, 0, 8, 2.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.001, max_value=0.9999, allow_nan=False),
        st.floats(min_value=1.1, max_value=3.0, allow_nan=False),
    )
    def test_index_definition(self, g, alpha):
        i = dyadic_interval_index(g, 0.0, 1.0, alpha)
        assert alpha ** (-i) <= g + 1e-12
        if i > 1:
            assert g < alpha ** (-(i - 1)) + 1e-12

    def test_monotone_in_time(self):
        params_alpha = 1.7
        idxs = [
            dyadic_interval_index(t, 0, 10, params_alpha)
            for t in [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0]
        ]
        assert all(a >= b for a, b in zip(idxs, idxs[1:]))


class TestTreeConstruction:
    def test_single_arrival(self):
        t = dyadic_tree([5.0], 100)
        assert len(t) == 1

    def test_two_arrivals(self):
        t = dyadic_tree([0.0, 10.0], 100)
        assert t.node(10.0).parent.arrival == 0.0

    def test_alpha2_hand_example(self):
        # window [0, 50] (beta=0.5, L=100), alpha=2: I1=[25,50], I2=[12.5,25)
        params = DyadicParams(alpha=2.0, beta=0.5)
        t = dyadic_tree([0.0, 13.0, 20.0, 30.0, 40.0], 100, params)
        # 13 is earliest in I2 -> child of root; 20 in I2 too -> under 13
        # 30 earliest in I1 -> child of root; 40 in I1 -> under 30's window
        assert t.node(13.0).parent.arrival == 0.0
        assert t.node(30.0).parent.arrival == 0.0
        assert t.node(20.0).parent.arrival == 13.0
        # 40 within [30, 50]: interval of 40 in [30,50] window
        assert t.node(40.0).parent.arrival in (30.0, 0.0)
        assert t.has_preorder_property()

    def test_cutoff_overflow_rejected(self):
        with pytest.raises(ValueError):
            dyadic_tree([0.0, 60.0], 100, DyadicParams(beta=0.5))

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            dyadic_tree([0.0, 0.0], 100)


class TestForest:
    def test_new_root_after_cutoff(self):
        params = DyadicParams(beta=0.5)
        f = dyadic_forest([0.0, 10.0, 51.0], 100, params)
        assert f.roots() == [0.0, 51.0]

    def test_boundary_merges(self):
        params = DyadicParams(beta=0.5)
        f = dyadic_forest([0.0, 50.0], 100, params)
        assert f.roots() == [0.0]  # exactly at cutoff still merges

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dyadic_forest([], 100)

    @settings(max_examples=40, deadline=None)
    @given(increasing_times(min_size=1, max_size=30, horizon=300.0))
    def test_forest_covers_all_arrivals(self, times):
        f = dyadic_forest(times, 100)
        assert f.arrivals() == sorted(times)
        for tree in f:
            assert tree.has_preorder_property()
            assert tree.span() <= 50.0 + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(increasing_times(min_size=1, max_size=30, horizon=300.0))
    def test_online_stack_matches_batch(self, times):
        params = DyadicParams()
        batch = dyadic_forest(times, 100, params)
        stack = DyadicOnline.forest(times, 100, params)
        assert [t.canonical() for t in batch] == [t.canonical() for t in stack]

    @settings(max_examples=25, deadline=None)
    @given(increasing_times(min_size=1, max_size=25, horizon=300.0))
    def test_forest_playable_continuous(self, times):
        f = dyadic_forest(times, 100)
        verify_forest_continuous(f, 100).raise_if_failed()


class TestCost:
    def test_cost_at_least_optimal(self):
        # dyadic is a heuristic: never beats the general-arrivals DP optimum
        for times in ([0, 1, 3, 4, 9], [0, 2, 5, 11, 12, 20], [0.0, 0.5, 1.5, 7.0]):
            f = dyadic_forest(times, 100)
            opt = dp.general_arrivals_cost(times) + 100 * len(f.roots())
            # compare merge cost under equal root counts is unfair; compare
            # total against (optimal merge over same arrivals + 1 root)
            total = f.full_cost(100)
            lower = dp.general_arrivals_cost(times) + 100
            assert total >= lower - 1e-9

    def test_cost_scale(self):
        c = dyadic_cost([0.0, 1.0, 2.0], 100)
        assert 100 < c < 110  # two tiny merges onto the root

    def test_dense_arrivals_much_cheaper_than_unicast(self):
        times = [i * 0.5 for i in range(200)]  # 100 time units
        c = dyadic_cost(times, 100)
        assert c < 0.2 * (len(times) * 100)


class TestOnlineStack:
    def test_push_returns_nodes(self):
        online = DyadicOnline(100)
        r = online.push(0.0)
        assert r.parent is None
        c = online.push(10.0)
        assert c.parent is r

    def test_monotonicity_enforced(self):
        online = DyadicOnline(100)
        online.push(5.0)
        with pytest.raises(ValueError):
            online.push(5.0)

    def test_finish_empty(self):
        with pytest.raises(ValueError):
            DyadicOnline.forest([], 100)

    def test_bad_L(self):
        with pytest.raises(ValueError):
            DyadicOnline(0)


class TestNonFiniteRejection:
    """Regression: NaN passed the pairwise strictly-increasing checks (every
    comparison against NaN is False) and walked into the window math."""

    def test_forest_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                dyadic_forest([0.0, bad, 2.0], 100)

    def test_tree_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            dyadic_tree([0.0, float("nan")], 100)

    def test_online_push_rejects_nan(self):
        online = DyadicOnline(100)
        online.push(0.0)
        with pytest.raises(ValueError, match="finite"):
            online.push(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            online.push(float("inf"))
        # the poisoned pushes must not have advanced the clock
        assert online.push(1.0).parent is not None
