"""The live standing invariants: pass on clean runs, catch seeded bugs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.burnin.contracts import check_live_report
from repro.fleet.scenarios import scenario_workload
from repro.live import LiveConfig, LiveDaemon
from repro.multiplex.catalog import Catalog

HORIZON = 90.0


@pytest.fixture(scope="module")
def catalog():
    return Catalog.zipf(4, duration_minutes=40.0)


@pytest.fixture(scope="module")
def workload(catalog):
    return scenario_workload("zipf", catalog, 0.5, HORIZON, seed=5)


@pytest.fixture(scope="module")
def clean_report(catalog, workload):
    config = LiveConfig(
        delay_minutes=1.5,
        horizon_minutes=HORIZON,
        epoch_minutes=9.0,
        fence_minutes=12.0,
        policy="batched-dyadic",
    )
    return LiveDaemon(catalog, config).run(workload)


def _names(contracts):
    return {o.name: o.ok for o in contracts.outcomes}


class TestCleanRun:
    def test_all_live_contracts_pass(self, clean_report, catalog, workload):
        contracts = check_live_report(clean_report, catalog, workload=workload)
        assert contracts.ok, contracts.render()
        names = _names(contracts)
        for required in (
            "live.ahead-of-fence",
            "live.fence-monotone",
            "live.committed-prefix-immutability",
            "live.conservation",
            "live.schedule",
            "live.oracle-equality",
        ):
            assert names[required]

    def test_oracle_check_requires_catalog_and_workload(self, clean_report):
        names = _names(check_live_report(clean_report))
        assert "live.oracle-equality" not in names
        assert names["live.ahead-of-fence"]


class TestSeededViolations:
    def test_commit_past_fence_is_caught(self, clean_report):
        records = list(clean_report.records)
        victim = next(
            i
            for i, r in enumerate(records)
            if not r.drain and r.max_committed_cutoff is not None
        )
        records[victim] = dataclasses.replace(
            records[victim], max_committed_cutoff=records[victim].fence + 1.0
        )
        broken = dataclasses.replace(clean_report, records=records)
        assert not _names(check_live_report(broken))["live.ahead-of-fence"]

    def test_uncommitted_window_behind_fence_is_caught(self, clean_report):
        records = list(clean_report.records)
        victim = next(i for i, r in enumerate(records) if not r.drain and r.fence > 0)
        records[victim] = dataclasses.replace(
            records[victim], min_live_cutoff=records[victim].fence - 1.0
        )
        broken = dataclasses.replace(clean_report, records=records)
        assert not _names(check_live_report(broken))["live.ahead-of-fence"]

    def test_rewritten_committed_stream_is_caught(self, clean_report):
        # rewrite one already-committed interval: every later digest breaks
        objects = list(clean_report.fleet.objects)
        victim = next(i for i, o in enumerate(objects) if o.streams > 0)
        starts = objects[victim].starts.copy()
        starts[0] += 1e-9
        objects[victim] = dataclasses.replace(objects[victim], starts=starts)
        fleet = dataclasses.replace(clean_report.fleet, objects=objects)
        broken = dataclasses.replace(clean_report, fleet=fleet)
        assert not _names(check_live_report(broken))[
            "live.committed-prefix-immutability"
        ]

    def test_rewritten_last_stream_before_drain_is_caught(self, clean_report):
        # the newest stream any epoch record hashed: only that record's
        # link (and the drain's, which chains over it) can see it
        records = clean_report.records
        counts = records[-2].committed_counts
        victim = max(range(len(counts)), key=lambda i: counts[i])
        assert counts[victim] > 0
        objects = list(clean_report.fleet.objects)
        ends = objects[victim].ends.copy()
        ends[counts[victim] - 1] = np.nextafter(ends[counts[victim] - 1], np.inf)
        objects[victim] = dataclasses.replace(objects[victim], ends=ends)
        fleet = dataclasses.replace(clean_report.fleet, objects=objects)
        broken = dataclasses.replace(clean_report, fleet=fleet)
        assert not _names(check_live_report(broken))[
            "live.committed-prefix-immutability"
        ]

    def test_count_moved_between_objects_is_caught(self, clean_report):
        # same total, same bytes in the same order — only the per-object
        # split of one record's commits changes
        records = list(clean_report.records)
        victim = next(
            i
            for i in range(1, len(records) - 1)
            if records[i].committed_counts[0] > records[i - 1].committed_counts[0]
        )
        counts = list(records[victim].committed_counts)
        counts[0] -= 1
        counts[1] += 1
        records[victim] = dataclasses.replace(
            records[victim], committed_counts=tuple(counts)
        )
        assert records[victim].committed_streams == sum(counts)
        broken = dataclasses.replace(clean_report, records=records)
        assert not _names(check_live_report(broken))[
            "live.committed-prefix-immutability"
        ]

    def test_non_monotone_epochs_are_caught(self, clean_report):
        records = list(clean_report.records)
        records[2] = dataclasses.replace(records[2], epoch=5)
        broken = dataclasses.replace(clean_report, records=records)
        assert not _names(check_live_report(broken))["live.fence-monotone"]

    def test_shrinking_commit_counts_are_caught(self, clean_report):
        records = list(clean_report.records)
        last = records[-1]
        records[-1] = dataclasses.replace(
            last, committed_streams=last.committed_streams - 1
        )
        broken = dataclasses.replace(clean_report, records=records)
        names = _names(check_live_report(broken))
        assert not (names["live.fence-monotone"] and names["live.conservation"])

    def test_missing_drain_is_caught(self, clean_report):
        broken = dataclasses.replace(
            clean_report, records=list(clean_report.records[:-1])
        )
        assert not _names(check_live_report(broken))["live.conservation"]

    def test_wrong_channel_assignment_is_caught(self, clean_report):
        channels = dict(clean_report.channels)
        victim = next(n for n, c in channels.items() if c.size)
        tampered = channels[victim].copy()
        tampered[-1] += 1  # burn an extra channel: breaks greedy equality
        channels[victim] = tampered
        broken = dataclasses.replace(clean_report, channels=channels)
        assert not _names(check_live_report(broken))["live.schedule"]

    def test_oracle_divergence_is_caught(self, clean_report, catalog, workload):
        objects = list(clean_report.fleet.objects)
        objects[0] = dataclasses.replace(
            objects[0], total_units_minutes=objects[0].total_units_minutes + 1.0
        )
        fleet = dataclasses.replace(clean_report.fleet, objects=objects)
        broken = dataclasses.replace(clean_report, fleet=fleet)
        names = _names(check_live_report(broken, catalog, workload=workload))
        assert not names["live.oracle-equality"]
