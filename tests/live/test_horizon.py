"""Tests for the live tier's time model (epochs, fence, drain)."""

from __future__ import annotations

import math

import pytest

from repro.live import LIVE_POLICIES, LiveConfig, LiveHorizon


def _config(**kw) -> LiveConfig:
    base = dict(
        delay_minutes=2.0,
        horizon_minutes=120.0,
        epoch_minutes=10.0,
        fence_minutes=15.0,
        policy="batched-dyadic",
    )
    base.update(kw)
    return LiveConfig(**base)


class TestLiveConfig:
    def test_epoch_partition_covers_horizon_exactly(self):
        config = _config(epoch_minutes=25.0)  # does not divide 120
        assert config.num_epochs == 5
        bounds = [config.epoch_bounds(k) for k in range(config.num_epochs)]
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == config.horizon_minutes
        for (_, t1), (t0, _) in zip(bounds, bounds[1:]):
            assert t1 == t0  # contiguous, no gap, no overlap
        assert bounds[-1] == (100.0, 120.0)  # last epoch truncated

    def test_epoch_bounds_rejects_out_of_range(self):
        config = _config()
        with pytest.raises(ValueError):
            config.epoch_bounds(-1)
        with pytest.raises(ValueError):
            config.epoch_bounds(config.num_epochs)

    def test_fence_lags_the_clock_and_clamps_at_zero(self):
        config = _config(fence_minutes=15.0)
        assert config.fence_at(10.0) == 0.0  # early epochs: nothing commits
        assert config.fence_at(15.0) == 0.0
        assert config.fence_at(40.0) == 25.0

    @pytest.mark.parametrize("field", ["delay_minutes", "horizon_minutes", "epoch_minutes"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_dimensions(self, field, bad):
        with pytest.raises(ValueError):
            _config(**{field: bad})

    def test_rejects_zero_fence(self):
        # zero lag would let a boundary arrival join a committed tree
        with pytest.raises(ValueError, match="fence_minutes"):
            _config(fence_minutes=0.0)

    def test_rejects_epoch_longer_than_horizon(self):
        with pytest.raises(ValueError, match="exceeds the horizon"):
            _config(epoch_minutes=200.0)

    def test_rejects_an_epoch_count_past_int64(self):
        """1e308 / 1e-300 used to reach num_epochs and raise OverflowError."""
        with pytest.raises(ValueError, match="int64"):
            LiveConfig(1.0, 1e308, 1e-300, 1.0)
        assert LiveConfig(1.0, 2.0**62, 1.0, 1.0).num_epochs == 2**62

    def test_rejects_batch_only_policies(self):
        for policy in ("delay-guaranteed", "offline-optimal", "general-offline"):
            with pytest.raises(ValueError, match="not live-servable"):
                _config(policy=policy)

    @pytest.mark.parametrize("policy", LIVE_POLICIES)
    def test_payload_round_trip(self, policy):
        config = _config(policy=policy, epoch_minutes=7.5)
        assert LiveConfig.from_payload(config.to_payload()) == config

    def test_from_payload_names_the_bad_field(self):
        good = _config().to_payload()
        for key in good:
            payload = dict(good)
            del payload[key]
            with pytest.raises(ValueError, match=f"{key}: missing"):
                LiveConfig.from_payload(payload)
        for key, value in (
            ("delay_minutes", "5"),
            ("epoch_minutes", True),
            ("fence_minutes", float("nan")),
            ("horizon_minutes", 10**400),
            ("policy", 3),
        ):
            with pytest.raises(ValueError, match=f"{key}: expected"):
                LiveConfig.from_payload({**good, key: value})
        with pytest.raises(ValueError, match="fence_minutes"):
            LiveConfig.from_payload({**good, "fence_minutes": 0})
        with pytest.raises(ValueError, match="expected an object"):
            LiveConfig.from_payload([])

    @pytest.mark.parametrize("policy", LIVE_POLICIES)
    def test_fleet_policy_kind_matches(self, policy):
        assert _config(policy=policy).fleet_policy().kind == policy


class TestLiveHorizon:
    def test_epochs_advance_one_at_a_time(self):
        horizon = LiveHorizon(_config())
        assert horizon.epoch == -1 and horizon.fence == 0.0
        with pytest.raises(ValueError):
            horizon.begin_epoch(1)  # must start at 0
        horizon.begin_epoch(0)
        with pytest.raises(ValueError):
            horizon.begin_epoch(0)  # no repeats
        with pytest.raises(ValueError):
            horizon.begin_epoch(2)  # no skips
        horizon.begin_epoch(1)
        assert horizon.epoch == 1

    def test_clock_and_fence_track_ingest(self):
        horizon = LiveHorizon(_config(epoch_minutes=10.0, fence_minutes=15.0))
        fences = []
        for k in range(4):
            horizon.begin_epoch(k)
            assert horizon.ingest_clock == (k + 1) * 10.0
            fences.append(horizon.fence)
        assert fences == [0.0, 5.0, 15.0, 25.0]  # monotone, lag 15

    def test_exhausted_after_last_epoch(self):
        config = _config(epoch_minutes=60.0)  # 2 epochs
        horizon = LiveHorizon(config)
        assert not horizon.exhausted
        horizon.begin_epoch(0)
        horizon.begin_epoch(1)
        assert horizon.exhausted

    def test_drain_removes_fence_and_refuses_further_epochs(self):
        horizon = LiveHorizon(_config())
        horizon.begin_epoch(0)
        horizon.mark_drained()
        assert horizon.drained and horizon.fence is None
        with pytest.raises(RuntimeError):
            horizon.begin_epoch(1)
        with pytest.raises(RuntimeError):
            horizon.mark_drained()
