"""run_sweep: cache behaviour, sharding determinism, batched-tier equality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import poisson
from repro.baselines.dyadic import DyadicParams
from repro.core.fibonacci import PHI
from repro.fleet.engine import FleetPolicy, simulate_batched
from repro.sweeps import Axis, SweepCache, SweepSpec, run_sweep
from repro.sweeps.evaluators import (
    delay_savings_point,
    dyadic_sensitivity_point,
    online_ratio_point,
    policy_comparison_point,
)


def fig1_like_spec(pcts=(0.5, 1.0, 2.0)):
    return SweepSpec(
        name="fig1-test",
        evaluator=delay_savings_point,
        axes=[Axis("pct", tuple(pcts))],
        fixed={"horizon_media": 10},
        metrics=("L", "n", "offline_cost", "online_cost"),
    )


class TestRunSweep:
    def test_columns_and_rows(self):
        res = run_sweep(fig1_like_spec())
        assert set(res.columns) == {"pct", "L", "n", "offline_cost", "online_cost"}
        assert res.column("L").dtype == np.int64
        rows = res.rows("pct", "L")
        assert rows[0][0] == 0.5 and isinstance(rows[0][1], int)

    def test_missing_metric_raises(self):
        spec = fig1_like_spec()
        spec.metrics = ("L", "no_such_metric")
        with pytest.raises(KeyError, match="no_such_metric"):
            run_sweep(spec)

    def test_workers_do_not_change_results(self):
        serial = run_sweep(fig1_like_spec())
        sharded = run_sweep(fig1_like_spec(), workers=2)
        assert serial.rows() == sharded.rows()

    def test_columns_json_payload(self):
        res = run_sweep(fig1_like_spec())
        doc = res.columns_json()
        assert doc["axes"] == ["pct"] and doc["n_points"] == 3
        assert doc["columns"]["offline_cost"] == res.values("offline_cost")


class TestCache:
    def test_hit_returns_identical_results(self, tmp_path):
        cache = SweepCache(tmp_path)
        cold = run_sweep(fig1_like_spec(), cache=cache)
        warm = run_sweep(fig1_like_spec(), cache=cache)
        assert cold.evaluated == 3 and cold.cache_misses == 3
        assert warm.evaluated == 0 and warm.cache_hits == 3
        assert warm.rows() == cold.rows()

    def test_only_dirty_points_recompute(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(fig1_like_spec((0.5, 1.0, 2.0)), cache=cache)
        tweaked = run_sweep(fig1_like_spec((0.5, 1.0, 4.0)), cache=cache)
        assert tweaked.cache_hits == 2 and tweaked.evaluated == 1

    def test_fixed_param_change_dirties_everything(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(fig1_like_spec(), cache=cache)
        spec = fig1_like_spec()
        spec.fixed["horizon_media"] = 20
        again = run_sweep(spec, cache=cache)
        assert again.cache_hits == 0 and again.evaluated == 3

    def test_float_cache_roundtrip_is_bit_exact(self, tmp_path):
        spec = SweepSpec(
            name="poisson-test",
            evaluator=policy_comparison_point,
            axes=[Axis("lam", (0.5, 2.0))],
            fixed={"L": 20, "horizon": 200.0, "kind": "poisson", "seeds": (0, 1)},
            metrics=("immediate_dyadic", "batched_dyadic", "delay_guaranteed"),
        )
        cache = SweepCache(tmp_path)
        cold = run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        assert warm.evaluated == 0
        # float metrics must survive the JSON round trip bit for bit
        for name in spec.metrics:
            assert warm.values(name) == cold.values(name)

    def test_non_cacheable_spec_skips_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = fig1_like_spec()
        spec.cacheable = False
        res = run_sweep(spec, cache=cache)
        assert res.evaluated == 3 and len(cache) == 0

    def test_torn_artifact_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(fig1_like_spec(), cache=cache)
        for p in cache.root.rglob("*.json"):
            p.write_text("{not json")
        res = run_sweep(fig1_like_spec(), cache=cache)
        assert res.evaluated == 3

    def test_rejects_non_scalar_metrics(self, tmp_path):
        cache = SweepCache(tmp_path)
        with pytest.raises(TypeError, match="JSON scalar"):
            cache.put("ab" * 32, {"xs": [1, 2]})


class TestBatchedTierEquality:
    """run_sweep point results == direct batched-tier calls."""

    @settings(max_examples=25, deadline=None)
    @given(
        L=st.integers(min_value=2, max_value=60),
        n=st.integers(min_value=1, max_value=3000),
    )
    def test_online_ratio_points_equal_direct_closed_forms(self, L, n):
        from repro.core.full_cost import optimal_full_cost
        from repro.core.online import online_full_cost

        spec = SweepSpec(
            name="hyp-ratio",
            evaluator=online_ratio_point,
            axes=[Axis("L", (L,)), Axis("n", (n,))],
            metrics=("online_cost", "offline_cost"),
        )
        res = run_sweep(spec)
        assert res.values("online_cost") == [online_full_cost(L, n)]
        assert res.values("offline_cost") == [optimal_full_cost(L, n)]

    @settings(max_examples=15, deadline=None)
    @given(
        lam=st.floats(min_value=0.2, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**16),
        L=st.integers(min_value=5, max_value=80),
    )
    def test_dyadic_points_equal_direct_simulate_batched(self, lam, seed, L):
        horizon = 120.0
        spec = SweepSpec(
            name="hyp-dyadic",
            evaluator=dyadic_sensitivity_point,
            axes=[Axis("alpha", (PHI,)), Axis("beta", (0.5,))],
            fixed={
                "L": L,
                "lam": lam,
                "horizon": horizon,
                "seeds": (seed,),
            },
            metrics=("mean_streams",),
        )
        trace = poisson(lam, horizon, seed=seed)
        if len(trace) == 0:  # pragma: no cover - astronomically rare
            return
        res = run_sweep(spec)
        policy = FleetPolicy.immediate_dyadic(DyadicParams(alpha=PHI, beta=0.5))
        direct = simulate_batched(L, trace, policy).flat_forest().full_cost(L) / L
        assert res.values("mean_streams") == [direct]
