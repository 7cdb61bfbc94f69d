"""LiveDaemon: bit-exact oracle equality, checkpoint/restore, step path."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import ArrivalTrace
from repro.burnin.contracts import fleet_reports_equal
from repro.fleet.runner import run_fleet, sanitize_times
from repro.fleet.scenarios import scenario_workload
from repro.live import LIVE_POLICIES, LiveConfig, LiveDaemon
from repro.multiplex.catalog import Catalog, MediaObject
from repro.simulation.channels import assign_channels_flat

DELAY = 1.5
HORIZON = 120.0


def _config(policy="batched-dyadic", epoch=10.0, fence=15.0) -> LiveConfig:
    return LiveConfig(
        delay_minutes=DELAY,
        horizon_minutes=HORIZON,
        epoch_minutes=epoch,
        fence_minutes=fence,
        policy=policy,
    )


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(5, duration_minutes=45.0)


@pytest.fixture(scope="module")
def workload(catalog):
    return scenario_workload("blend", catalog, 0.5, HORIZON, seed=19)


def _oracle(catalog, workload, config):
    return run_fleet(
        catalog,
        delay_minutes=config.delay_minutes,
        horizon_minutes=config.horizon_minutes,
        policy=config.fleet_policy(),
        workload=workload,
        workers=0,
    )


class TestOracleEquality:
    @pytest.mark.parametrize("policy", LIVE_POLICIES)
    def test_run_is_bit_identical_to_offline_oracle(self, catalog, workload, policy):
        config = _config(policy)
        report = LiveDaemon(catalog, config).run(workload)
        assert report is not None
        assert fleet_reports_equal(report.fleet, _oracle(catalog, workload, config)) is None

    @pytest.mark.parametrize("epoch,fence", [(5.0, 6.0), (30.0, 45.0), (120.0, 1.0)])
    def test_epoch_and_fence_granularity_are_invisible(
        self, catalog, workload, epoch, fence
    ):
        # same trace, wildly different epoch/fence cuts: identical output
        config = _config(epoch=epoch, fence=fence)
        report = LiveDaemon(catalog, config).run(workload)
        assert report is not None
        assert fleet_reports_equal(report.fleet, _oracle(catalog, workload, config)) is None

    def test_empty_workload(self, catalog):
        config = _config()
        report = LiveDaemon(catalog, config).run({})
        assert report is not None
        assert report.fleet.clients == 0 and report.fleet.streams == 0
        assert fleet_reports_equal(report.fleet, _oracle(catalog, {}, config)) is None

    def test_single_client_single_object(self):
        catalog = Catalog([MediaObject("only", 30.0, 1.0)])
        config = _config()
        workload = {"only": np.array([42.0])}
        report = LiveDaemon(catalog, config).run(workload)
        assert report is not None
        assert report.fleet.clients == 1 and report.fleet.streams == 1
        assert fleet_reports_equal(report.fleet, _oracle(catalog, workload, config)) is None


class TestRecords:
    def test_epoch_sequence_and_drain(self, catalog, workload):
        config = _config()
        report = LiveDaemon(catalog, config).run(workload)
        assert [r.epoch for r in report.records[:-1]] == list(range(config.num_epochs))
        assert report.records[-1].drain and report.records[-1].fence is None
        assert all(not r.drain for r in report.records[:-1])

    def test_nothing_commits_past_the_fence(self, catalog, workload):
        report = LiveDaemon(catalog, _config()).run(workload)
        for rec in report.records:
            if rec.drain or rec.max_committed_cutoff is None:
                continue
            assert rec.max_committed_cutoff < rec.fence

    def test_everything_commits_by_the_drain(self, catalog, workload):
        report = LiveDaemon(catalog, _config()).run(workload)
        last = report.records[-1]
        assert last.committed_streams == report.fleet.streams
        assert list(last.committed_counts) == [o.streams for o in report.fleet.objects]
        assert sum(r.ingested for r in report.records) == report.fleet.clients

    def test_report_json_is_valid_and_sorted(self, catalog, workload):
        report = LiveDaemon(catalog, _config()).run(workload)
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro.live-report.v1"
        assert payload["totals"]["clients"] == report.fleet.clients
        assert report.to_json() == json.dumps(payload, indent=2, sort_keys=True)

    def test_peak_channels_counts_across_objects(self, catalog, workload):
        report = LiveDaemon(catalog, _config()).run(workload)
        assert report.peak_channels == max(
            int(c.max()) + 1 for c in report.channels.values() if c.size
        )


class TestCheckpointRestore:
    @pytest.mark.parametrize("policy", LIVE_POLICIES)
    def test_midrun_restore_replays_identically(self, catalog, workload, policy):
        # a fence lag shorter than a merge window, and one longer
        for epoch, fence in ((10.0, 15.0), (6.0, 40.0)):
            config = _config(policy, epoch, fence)
            daemon = LiveDaemon(catalog, config)
            daemon.run(workload, until_epoch=config.num_epochs // 2 - 1)
            snapshot = daemon.checkpoint()
            report = daemon.run(workload)

            resumed = LiveDaemon.restore(snapshot).run(workload)
            assert resumed is not None
            assert fleet_reports_equal(resumed.fleet, report.fleet) is None
            oracle = _oracle(catalog, workload, config)
            assert fleet_reports_equal(resumed.fleet, oracle) is None
            assert [r.to_payload() for r in resumed.records] == [
                r.to_payload() for r in report.records
            ]
            for name in resumed.channels:
                np.testing.assert_array_equal(
                    resumed.channels[name], report.channels[name]
                )

    def test_checkpoint_at_zero_epochs(self, catalog, workload):
        config = _config()
        daemon = LiveDaemon(catalog, config)
        daemon.run(workload, until_epoch=0)
        restored = LiveDaemon.restore(daemon.checkpoint())
        assert restored.horizon.epoch == 0
        report = daemon.run(workload)
        resumed = restored.run(workload)
        assert fleet_reports_equal(resumed.fleet, report.fleet) is None

    def test_checkpoint_after_drain_raises(self, catalog, workload):
        daemon = LiveDaemon(catalog, _config())
        daemon.run(workload)
        with pytest.raises(RuntimeError, match="drained"):
            daemon.checkpoint()

    def test_restore_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="not a live checkpoint"):
            LiveDaemon.restore(json.dumps({"schema": "bogus.v1"}))

    def test_restore_rejects_missing_object(self, catalog, workload):
        daemon = LiveDaemon(catalog, _config())
        daemon.run(workload, until_epoch=2)
        payload = json.loads(daemon.checkpoint())
        del payload["objects"][catalog.objects[0].name]
        with pytest.raises(ValueError, match="missing object"):
            LiveDaemon.restore(json.dumps(payload))


class TestStepPath:
    def test_step_fed_epochs_equal_run(self, catalog, workload):
        config = _config()
        clean = {
            obj.name: sanitize_times(
                np.asarray(workload[obj.name].times), HORIZON
            )[0]
            for obj in catalog
        }
        daemon = LiveDaemon(catalog, config)
        for k in range(config.num_epochs):
            t0, t1 = config.epoch_bounds(k)
            daemon.step(
                {
                    name: ts[(ts >= t0) & (ts < t1)]
                    for name, ts in clean.items()
                }
            )
        daemon.drain()
        stepped = daemon.report()
        ran = LiveDaemon(catalog, config).run(workload)
        assert fleet_reports_equal(stepped.fleet, ran.fleet) is None
        assert [r.to_payload() for r in stepped.records] == [
            r.to_payload() for r in ran.records
        ]

    def test_step_repairs_dirty_batches(self, catalog):
        config = _config()
        name = catalog.objects[0].name
        daemon = LiveDaemon(catalog, config)
        rec = daemon.step(
            {name: np.array([np.nan, -3.0, 500.0, 4.0, 4.0, 25.0])}
        )
        # NaN, negative, past-horizon, duplicate, and out-of-epoch (25.0
        # is epoch 2's data) all repaired; only 4.0 lands
        assert rec.ingested == 1
        assert rec.repaired == 5
        # the late arrival is accepted in its own epoch
        rec2 = daemon.step({name: np.array([25.0])})
        assert rec2.ingested == 0  # epoch 1 is [10, 20): still early
        rec3 = daemon.step({name: np.array([25.0])})
        assert rec3.ingested == 1

    def test_step_drops_replayed_arrivals(self, catalog):
        config = _config()
        name = catalog.objects[0].name
        daemon = LiveDaemon(catalog, config)
        rec = daemon.step({name: ArrivalTrace(times=(2.0, 6.0), horizon=HORIZON)})
        assert rec.ingested == 2 and rec.repaired == 0
        # a replayed batch cannot re-ingest at or before the last time
        rec2 = daemon.step({name: np.array([6.0, 12.0])})
        assert rec2.ingested == 1
        assert rec2.repaired == 1


class TestFailedStepChangesNothing:
    """A step that raises leaves the daemon exactly as it was."""

    def test_unknown_title_mid_run(self, catalog, workload):
        daemon = LiveDaemon(catalog, _config())
        daemon.run(workload, until_epoch=3)
        before = daemon.checkpoint()
        first = catalog.objects[0].name
        # the first title's NaN would be a counted repair; "x" is not a title
        with pytest.raises(ValueError, match="'x' is not in the catalog"):
            daemon.step({first: np.array([np.nan, 45.0]), "x": np.array([46.0])})
        assert daemon.checkpoint() == before
        with pytest.raises(ValueError, match="1-D"):
            daemon.step({first: np.array([[41.0, 42.0], [43.0, 44.0]])})
        assert daemon.checkpoint() == before
        # the retried step counts the repair once
        rec = daemon.step({first: np.array([np.nan, 45.0])})
        assert rec.repaired == json.loads(before)["records"][-1]["repaired"] + 1

    def test_step_after_drain(self, catalog, workload):
        daemon = LiveDaemon(catalog, _config())
        daemon.run(workload)
        before = daemon.report().to_json()
        with pytest.raises(RuntimeError, match="drained"):
            daemon.step({catalog.objects[0].name: np.array([np.nan, 15.0])})
        assert daemon.report().to_json() == before

    def test_step_past_the_last_epoch(self, catalog):
        config = _config(epoch=60.0)
        daemon = LiveDaemon(catalog, config)
        for _ in range(config.num_epochs):
            daemon.step({})
        before = daemon.checkpoint()
        with pytest.raises(ValueError, match="epoch 2 outside"):
            daemon.step({catalog.objects[0].name: np.array([np.nan])})
        assert daemon.checkpoint() == before

    @staticmethod
    def _daemon_after_first_of_pair(policy):
        """A one-title daemon at delay 0.7 that served
        ``nextafter(110, -inf)`` in epoch 10: ``110.0`` in epoch 11 divides
        by the delay to the same slot-unit value."""
        catalog = Catalog.zipf(1, duration_minutes=45.0)
        name = catalog.objects[0].name
        config = LiveConfig(
            delay_minutes=0.7, horizon_minutes=HORIZON, epoch_minutes=10.0,
            fence_minutes=15.0, policy=policy,
        )
        daemon = LiveDaemon(catalog, config)
        for _ in range(10):
            daemon.step({})
        first = np.nextafter(110.0, -np.inf)
        assert first / 0.7 == 110.0 / 0.7
        daemon.step({name: np.array([first])})
        return daemon, name

    @pytest.mark.parametrize("policy", ["immediate-dyadic", "unicast"])
    def test_arrival_the_delay_merges_with_an_earlier_epoch(self, policy):
        """An immediate kind refuses an arrival whose slot-unit value equals
        its title's last one from an earlier epoch, as ``run_fleet``
        refuses the same feed, before anything changes."""
        daemon, name = self._daemon_after_first_of_pair(policy)
        pair = {name: np.array([np.nextafter(110.0, -np.inf), 110.0])}
        with pytest.raises(ValueError, match="strictly increasing"):
            _oracle(daemon.catalog, pair, daemon.config)
        before = daemon.checkpoint()
        with pytest.raises(ValueError, match="strictly increasing in slot units"):
            daemon.step({name: np.array([110.0, 115.0])})
        assert daemon.checkpoint() == before
        rec = daemon.step({name: np.array([115.0])})
        assert rec.epoch == 11 and rec.ingested == 1

    @pytest.mark.parametrize("policy", ["batched-dyadic", "pure-batching"])
    def test_slotted_kinds_serve_the_pair_in_one_slot(self, policy):
        daemon, name = self._daemon_after_first_of_pair(policy)
        rec = daemon.step({name: np.array([110.0])})
        assert rec.epoch == 11 and rec.ingested == 1
        daemon.drain()
        (served,) = daemon.report().fleet.objects
        assert served.clients == 2 and served.streams == 1


class TestUnknownKeys:
    """Arrivals for a title outside the catalog raise instead of vanishing."""

    def test_step(self, catalog):
        daemon = LiveDaemon(catalog, _config())
        with pytest.raises(ValueError, match="'no-such-title' is not in the catalog"):
            daemon.step({"no-such-title": [1.0, 2.0], catalog.objects[0].name: [3.0]})
        assert daemon.horizon.epoch == -1 and daemon.records == []

    def test_run(self, catalog, workload):
        daemon = LiveDaemon(catalog, _config())
        with pytest.raises(ValueError, match="'no-such-title' is not in the catalog"):
            daemon.run({**workload, "no-such-title": np.array([1.0])})
        assert daemon.horizon.epoch == -1 and daemon.records == []

    def test_run_fleet(self, catalog, workload):
        with pytest.raises(ValueError, match="'no-such-title' is not in the catalog"):
            _oracle(catalog, {**workload, "no-such-title": np.array([1.0])}, _config())

    def test_batch_that_is_not_one_dimensional(self, catalog):
        name = catalog.objects[0].name
        for drive in ("step", "run"):
            daemon = LiveDaemon(catalog, _config())
            with pytest.raises(ValueError, match="must be 1-D, got shape \\(2, 2\\)"):
                getattr(daemon, drive)({name: np.array([[1.0, 2.0], [3.0, 4.0]])})
            assert daemon.horizon.epoch == -1 and daemon.records == []


def test_sub_resolution_immediate_feed_raises_in_both_paths(catalog):
    """Two arrivals closer than the dyadic builder resolves: the batch
    path refuses the feed, and the daemon refuses it when the tree holding
    them commits (it builds each tree once, at commit)."""
    name = catalog.objects[0].name
    workload = {name: np.array([10.0, 10.0 + 1e-12, 30.0])}
    config = _config("immediate-dyadic")
    with pytest.raises(ValueError, match="resolution limit"):
        _oracle(catalog, workload, config)
    daemon = LiveDaemon(catalog, config)
    daemon.run(workload, until_epoch=1)  # ingested, not yet committed
    with pytest.raises(ValueError, match="resolution limit"):
        daemon.run(workload)


# ---------------------------------------------------------------------------
# mixed-duration catalogs: one stream length per title
# ---------------------------------------------------------------------------


@st.composite
def mixed_catalog_runs(draw):
    """A catalog of titles of different durations (one with no arrivals),
    a feed with a quiet stretch (epochs with no arrivals), and random
    epoch and fence lengths, for every live policy."""
    durations = draw(
        st.lists(st.sampled_from([4.5, 15.0, 30.0, 45.0, 90.0, 180.0]), min_size=1, max_size=5)
    )
    catalog = Catalog(
        [MediaObject(f"m{i}", d, 1.0 / (len(durations) + 1)) for i, d in enumerate(durations)]
        + [MediaObject("idle", draw(st.sampled_from([15.0, 120.0])), 1.0 / (len(durations) + 1))]
    )
    horizon = draw(st.sampled_from([60.0, 150.0]))
    config = LiveConfig(
        delay_minutes=DELAY,
        horizon_minutes=horizon,
        epoch_minutes=draw(st.floats(min_value=1.0, max_value=40.0)),
        fence_minutes=draw(st.floats(min_value=0.5, max_value=60.0)),
        policy=draw(st.sampled_from(LIVE_POLICIES)),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    quiet = np.sort(rng.uniform(0.0, horizon, size=2))
    workload = {}
    for obj in catalog.objects[:-1]:
        gaps = rng.exponential(rng.choice([0.05, 0.4, 3.0]), size=rng.integers(0, 400))
        times = np.unique(np.round(np.cumsum(gaps), 3))
        times = times[(times < horizon) & ~((times >= quiet[0]) & (times < quiet[1]))]
        workload[obj.name] = times
    return catalog, config, workload, draw(st.integers(min_value=-1, max_value=config.num_epochs - 1))


@settings(max_examples=60, deadline=None)
@given(mixed_catalog_runs())
def test_mixed_duration_catalogs(case):
    catalog, config, workload, stop = case
    report = LiveDaemon(catalog, config).run(workload)
    # the drained report is the batch oracle's
    assert fleet_reports_equal(report.fleet, _oracle(catalog, workload, config)) is None
    assert {o.name for o in report.fleet.objects if o.clients == 0} >= {"idle"}
    # the channels emitted as trees committed are the batch greedy's
    for o in report.fleet.objects:
        np.testing.assert_array_equal(report.channels[o.name], assign_channels_flat(o.starts, o.ends))
    # a run fed by step equals one fed by run
    stepped = LiveDaemon(catalog, config)
    for k in range(config.num_epochs):
        t0, t1 = config.epoch_bounds(k)
        stepped.step({name: ts[(ts >= t0) & (ts < t1)] for name, ts in workload.items()})
    stepped.drain()
    assert stepped.report().to_json() == report.to_json()
    # a restore at any epoch equals the uninterrupted run
    daemon = LiveDaemon(catalog, config)
    daemon.run(workload, until_epoch=stop)
    text = daemon.checkpoint()
    resumed = LiveDaemon.restore(text)
    assert resumed.checkpoint() == text
    resumed_report = resumed.run(workload)
    assert resumed_report.to_json() == report.to_json()
    assert fleet_reports_equal(resumed_report.fleet, report.fleet) is None
    for name, ids in report.channels.items():
        np.testing.assert_array_equal(resumed_report.channels[name], ids)
