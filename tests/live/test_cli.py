"""``python -m repro live`` — exit codes are contracts."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as repro_main
from repro.live.cli import EXIT_LIVE_VIOLATION, live_main

FAST = [
    "--objects", "4",
    "--duration", "40",
    "--horizon", "60",
    "--epoch", "10",
    "--fence", "15",
    "--mean-interarrival", "0.8",
    "--seed", "3",
]


class TestLiveCli:
    def test_clean_run_exits_zero(self, capsys):
        assert live_main(FAST) == 0
        out = capsys.readouterr().out
        assert "live report" in out
        assert "contracts: OK" in out

    def test_dispatched_from_the_top_level_cli(self, capsys):
        assert repro_main(["live", *FAST]) == 0
        assert "live report" in capsys.readouterr().out

    def test_report_file_is_written(self, tmp_path, capsys):
        path = tmp_path / "live.json"
        assert live_main([*FAST, "--report", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.live-report.v1"
        assert payload["totals"]["clients"] > 0

    @pytest.mark.parametrize("policy", ["immediate-dyadic", "unicast"])
    def test_other_policies(self, policy):
        assert live_main([*FAST, "--policy", policy]) == 0

    def test_batch_only_policy_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            live_main([*FAST, "--policy", "delay-guaranteed"])

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--objects", "0"),
            ("--duration", "inf"),
            ("--delay", "nan"),
            ("--horizon", "0"),
            ("--epoch", "-1"),
            ("--fence", "nan"),
            ("--mean-interarrival", "0"),
            ("--accel", "0"),
            ("--accel", "-1"),
            ("--accel", "inf"),
            ("--seed", "-1"),
            ("--report", os.path.join(os.devnull, "live.json")),
            ("--exponent", "nan"),
            ("--epoch", "120"),
            ("--delay", "1e-300"),
            # each overflows the int64 epoch count against FAST's other value
            ("--horizon", "1e308"),
            ("--epoch", "1e-300"),
        ],
    )
    def test_bad_numbers_exit_two_before_running(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["live", *FAST, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""  # rejected before the daemon ran

    def test_violation_exit_code_value(self):
        # the exit code is a published contract (README, CI)
        assert EXIT_LIVE_VIOLATION == 5


class TestLiveSmoke:
    def test_smoke_passes_accelerated(self, capsys):
        # the CLI's default pacing (600 simulated minutes per second, a
        # 16.7 ms budget per 10-minute epoch) keeps the run under a second
        # while leaving every epoch a real margin; the smoke exercises
        # checkpoint/restore, contracts, lead measurement and the
        # injected worker kill on the sharded oracle
        assert live_main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint/restore replay identical" in out
        assert "worker kill fired" in out
        assert "all checks passed" in out

    def test_smoke_writes_its_drained_report(self, tmp_path, capsys):
        """``--report`` used to be ignored under ``--smoke``."""
        path = tmp_path / "reports" / "smoke.json"
        assert live_main(["--smoke", "--report", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.live-report.v1"
        assert payload["totals"]["clients"] > 0 and payload["records"]
        assert payload["config"]["epoch_minutes"] == 10.0  # the smoke's day
