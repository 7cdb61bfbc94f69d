"""CLI exit codes are contracts — asserted through real subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli as experiments_cli
from repro.burnin import cli as burnin_cli
from repro.fleet import cli as fleet_cli
from repro.fleet.engine import FLEET_POLICIES
from repro.fleet.scenarios import SCENARIOS
from repro.live import cli as live_cli
from repro.live.horizon import LIVE_POLICIES

from tests.conftest import fuzz_examples

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
            ("--delay", "1e-300"),
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

    @pytest.mark.parametrize("delay", ["1.5", "0.3"])
    def test_inexact_delay_passes_the_replay_contract(self, delay):
        """Exited 4 ("folded intervals != in-process replay") when the
        contract rebuilt the folded ends with other float expressions."""
        proc = _run(
            "fleet", "--objects", "20", "--delay", delay,
            "--policy", "immediate-dyadic", "--check", "--no-frontier",
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
            ("--exponent", "nan"),
            ("--exponent", "-1"),
            ("--exponent", "1e308"),
            ("--delay", "1e-300"),
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


# ---------------------------------------------------------------------------
# every front end's argument surface, fuzzed
# ---------------------------------------------------------------------------

#: spellings a numeric or choice option must turn into exit 2 or a value
HOSTILE = [
    "nan", "-nan", "inf", "-inf", "-0", "0", "-1", "1e308", "-1e308", "1e400",
    "1e-300", "5e-324", "1" * 30, "-" + "9" * 30, "+", "-", "--", "1e", "0x10",
    "", " ", "1,5", "abc", "\u00bd",
]


def _value(*choices: str):
    """A hostile spelling or free text, or a value its type accepts: the
    failures that matter come from values that each pass their type, so
    those are most of the draws."""
    accepted = [
        st.integers(min_value=0, max_value=10**30).map(str),
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
    ]
    if choices:
        accepted.append(st.sampled_from(choices))
    return st.one_of(st.sampled_from(HOSTILE), st.text(max_size=5), *accepted)


#: ``--objects`` sizes a catalog built at parse time, so no drawn value
#: may parse as a whole number above 1,000 (free text could: int() reads
#: any script's decimal digits)
_OBJECTS = st.one_of(
    st.integers(max_value=1000).map(str),
    st.sampled_from([h for h in HOSTILE if not h.strip("+-").isdigit()]),
)


@st.composite
def _argv(draw, options, flags=(), positional=None):
    argv = [] if positional is None else [draw(positional)]
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=5)):
        argv += [name, draw(options[name])]
    if flags:
        argv += draw(st.lists(st.sampled_from(flags), unique=True))
    return argv


def _numbers(*names: str) -> dict:
    return {name: _value() for name in names}


#: each front end's parse-and-validate step and its argv, path options
#: left out (the step checks them against the file system)
FRONT_ENDS = {
    "experiments": (
        experiments_cli.parse_args,
        _argv(
            {"--workers": _value()},
            positional=st.sampled_from(["list", "all", "fig1", "no-such", *HOSTILE]),
        ),
    ),
    "fleet": (
        fleet_cli.parse_args,
        _argv(
            {
                **_numbers("--duration", "--exponent", "--delay", "--horizon",
                           "--mean-interarrival", "--workers", "--seed"),
                "--objects": _OBJECTS,
                "--budgets": _value("1,2", "0,50", ",", "3,,4"),
                "--scenario": _value(*SCENARIOS),
                "--policy": _value(*FLEET_POLICIES),
            },
            flags=("--no-frontier", "--check"),
        ),
    ),
    "live": (
        live_cli.parse_args,
        _argv(
            {
                **_numbers("--duration", "--exponent", "--delay", "--horizon", "--epoch",
                           "--fence", "--mean-interarrival", "--seed", "--accel"),
                "--objects": _OBJECTS,
                "--scenario": _value(*SCENARIOS),
                "--policy": _value(*LIVE_POLICIES),
            },
            flags=("--smoke",),
        ),
    ),
    "burnin": (
        burnin_cli.parse_args,
        _argv(
            _numbers("--episodes", "--seed", "--objects", "--workers", "--horizon",
                     "--delay", "--mean-interarrival"),
            flags=("--selftest-violation",),
        ),
    ),
}


class TestArgumentFuzz:
    """The exit-2 contract at its source: a front end's parse-and-validate
    step returns its arguments or raises ``SystemExit(2)``, whatever the
    values.  It never runs a workload or writes a file."""

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(data=st.data())
    def test_parses_or_exits_two(self, front_end, data):
        parse, argvs = FRONT_ENDS[front_end]
        argv = data.draw(argvs, label="argv")
        try:
            parse(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
