"""CLI exit codes are contracts — asserted through real subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: an output path under a regular file: no directory can be made there
UNUSABLE = os.path.join(os.devnull, "out")


def _run(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=timeout,
    )


class TestBurninCli:
    def test_clean_soak_exits_zero(self, tmp_path):
        report = tmp_path / "soak.json"
        proc = _run(
            "burnin", "--episodes", "5", "--seed", "1",
            "--report", str(report),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "burn-in soak: OK" in proc.stdout
        payload = json.loads(report.read_text())
        assert payload["ok"] is True

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--episodes", "0"),
            ("--objects", "0"),
            ("--horizon", "nan"),
            ("--delay", "inf"),
            ("--mean-interarrival", "nan"),
            ("--seed", "-1"),
            ("--workers", "-3"),
            ("--report", os.path.join(UNUSABLE, "soak.json")),
        ],
    )
    def test_bad_numbers_exit_two_before_running(self, flag, value, capsys):
        """A typo used to run broken episodes and exit 3, like a violation."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["burnin", "--episodes", "1", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""  # rejected before the soak ran

    def test_contract_violation_exits_three(self):
        proc = _run("burnin", "--episodes", "2", "--selftest-violation")
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "VIOLATED" in proc.stdout


class TestFleetCli:
    def test_clean_fleet_exits_zero(self):
        proc = _run(
            "fleet", "--objects", "6", "--horizon", "120",
            "--mean-interarrival", "0.5", "--check",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "contracts: OK" in proc.stdout

    @pytest.mark.parametrize("budgets", ["0,50", "-3", ","])
    def test_bad_budgets_exit_two_before_running(self, budgets):
        proc = _run("fleet", "--objects", "6", "--budgets", budgets)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "--budgets" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""  # rejected before the fleet ran

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--delay", "0"),
            ("--delay", "-1"),
            ("--delay", "nan"),
            ("--delay", "inf"),
            ("--horizon", "0"),
            ("--objects", "0"),
            ("--duration", "0"),
            ("--mean-interarrival", "0"),
            ("--seed", "-1"),
            ("--workers", "-3"),
            ("--store", UNUSABLE),
        ],
    )
    def test_bad_numbers_exit_two_before_running(self, flag, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--objects", "6", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""  # rejected before the fleet ran

    @pytest.mark.parametrize("fault", ["index", "segment"])
    def test_malformed_store_exits_two(self, tmp_path, capsys, fault):
        """An Infinity total used to end in an OverflowError traceback, a
        truncated segment in a StoreError one from the worker."""
        from repro.cli import main
        from repro.scale.columnar import write_store

        write_store(tmp_path, [("title-001", np.arange(3.0))])
        if fault == "index":
            index = tmp_path / "index.json"
            index.write_text(index.read_text().replace('"total": 3', '"total": Infinity'))
        else:
            with (tmp_path / "segment.bin").open("r+b") as fh:
                fh.truncate(8)
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--store", str(tmp_path), "--no-frontier"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "--store" in err and ("total" in err or "torn write" in err)
        assert out == ""  # rejected before the fleet ran


class TestExperimentsCli:
    def test_unknown_experiment_exits_two(self):
        proc = _run("no-such-experiment")
        assert proc.returncode == 2

    def test_list_exits_zero(self):
        proc = _run("list")
        assert proc.returncode == 0
        assert "Available experiments" in proc.stdout

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--workers", "-3"),
            ("--save", UNUSABLE),
            ("--cache", UNUSABLE),
        ],
    )
    def test_bad_values_exit_two_before_running(self, flag, value, capsys):
        """A bad output path used to raise after the experiment had run."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["table-full", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err
        assert out == ""  # rejected before the experiment ran

    def test_zero_workers_and_new_output_dirs_accepted(self, tmp_path, capsys):
        from repro.cli import main

        save, cache = tmp_path / "a" / "saved", tmp_path / "b" / "cache"
        argv = ["table-full", "--workers", "0", "--save", str(save), "--cache", str(cache)]
        assert main(argv) == 0
        assert (save / "table-full.json").exists()
        assert "saved:" in capsys.readouterr().out


class TestFiniteContractUnit:
    """The experiments exit-code path, unit-tested in-process (no real
    experiment emits NaN, so the violation branch is driven directly)."""

    def test_finite_ok(self):
        from repro.cli import _finite_ok
        from repro.experiments.harness import ExperimentResult

        good = ExperimentResult("t", ("a",), [(1.0,), (2,)])
        bad = ExperimentResult("t", ("a",), [(float("nan"),)])
        assert _finite_ok([good])
        assert not _finite_ok([good, bad])
