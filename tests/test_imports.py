"""The import contract: lazy package exports, the fleet set-up's import
budget, and import-free timed paths on every perfbench workload.

Packages export their public names lazily (``repro._exports``), so
importing one costs nothing until a name is used.  A module imports at top
what a timed path calls, so a benchmark's set-up loads everything its
timed path runs and the timed path itself imports nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "importtime.py"
_SPEC = importlib.util.spec_from_file_location("importtime", _PATH)
importtime = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(importtime)

PACKAGES = [
    "repro",
    "repro.arrivals",
    "repro.baselines",
    "repro.burnin",
    "repro.core",
    "repro.fastpath",
    "repro.fleet",
    "repro.live",
    "repro.multiplex",
    "repro.scale",
    "repro.simulation",
    "repro.sweeps",
]

WORKLOADS = ["fleet-catalog", "fleet-hot-check", "live-week", "paper-tables"]

#: tiers and oracles the fleet set-up must not load
OFF_FLEET_PATH = [
    "repro.live",
    "repro.sweeps",
    "repro.burnin.soak",
    "repro.burnin.faults",
    "repro.experiments",
    "repro.simulation.server",
    "repro.simulation.policies",
    "repro.simulation.events",
    "repro.simulation.hybrid",
]

#: most ``repro`` modules the fleet set-up may load (35 when this was set)
FLEET_SETUP_BUDGET = 40


def _submodules(package: str):
    path = importlib.import_module(package).__path__
    return sorted(m.name for m in pkgutil.iter_modules(path))


def _run(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter at the repository root."""
    proc = importtime.run_python(script, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


# ---------------------------------------------------------------------------
# (a) public names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicNames:
    def test_every_export_is_a_submodule_object(self, package):
        pkg = importlib.import_module(package)
        subs = [importlib.import_module(f"{package}.{m}") for m in _submodules(package)]
        for name in pkg.__all__:
            if name == "__version__":
                continue
            value = getattr(pkg, name)
            owners = [m for m in subs if m is value or getattr(m, name, None) is value]
            assert owners, f"{package}.{name} is no submodule's object"

    def test_every_submodule_resolves_as_an_attribute(self, package):
        pkg = importlib.import_module(package)
        for name in _submodules(package):
            assert getattr(pkg, name) is importlib.import_module(f"{package}.{name}")

    def test_dir_lists_every_export(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_every_export(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_name_raises_attribute_error_naming_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")


_LAZY = r"""
import importlib, json, sys
before = set(sys.modules)
for package in sys.argv[1:]:
    importlib.import_module(package)
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


def test_importing_every_package_loads_no_submodule():
    loaded = json.loads(_run(_LAZY, *PACKAGES))
    assert sorted(loaded) == sorted(PACKAGES + ["repro._exports"])


# ---------------------------------------------------------------------------
# (b) the fleet set-up's import budget
# ---------------------------------------------------------------------------


def test_fleet_setup_loads_only_the_fleet_path():
    """What perfbench's fleet ``setup`` loads, as ``make importtime``
    reports it."""
    loaded = sorted(importtime.setup_imports("fleet-catalog")[0])
    assert len(loaded) <= FLEET_SETUP_BUDGET, loaded
    off = [m for m in loaded if any(m == o or m.startswith(o + ".") for o in OFF_FLEET_PATH)]
    assert not off


# ---------------------------------------------------------------------------
# (c) import-free timed paths
# ---------------------------------------------------------------------------

_TIMED = r"""
import json, sys, time
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS


class Tracer:
    # The calls perfbench's stage timer records, without its speed probes.
    def __init__(self):
        self.calls = []

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((name, start, time.perf_counter()))

    def count(self, name, n=1):
        pass


name, tmp, mode = sys.argv[1:4]
w = WORKLOADS[name](name, 1, tmp, False)
if mode == "feed":
    w.make_feed()
else:
    w.setup()
    w.prepare()
    before = set(sys.modules)
    w.timed(Tracer())
    print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_path_imports_nothing(workload, tmp_path):
    """perfbench's own set-up, preparation and timed path, at the
    workload's parameters and seed 1: every module the timed path runs was
    loaded before the timed window opened (``numpy.ma`` included)."""
    if workload == "live-week":  # the feed is written by a process of its own
        _run(_TIMED, workload, str(tmp_path), "feed")
    imported = json.loads(_run(_TIMED, workload, str(tmp_path), "timed"))
    assert imported == []


# ---------------------------------------------------------------------------
# (d) paths that load less than their whole tier
# ---------------------------------------------------------------------------

_REPAIR = r"""
import json, sys
import numpy as np
from repro.fleet.runner import sanitize_times
sanitize_times(np.array([0.0, 2.0, 1.0, 3.0, 3.0]), 10.0)
sanitize_times(np.array([4.0, 1.0, 1.0, 0.5, 2.0, 2.0]), 10.0, np.array([0, 3, 6]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])))
"""


def test_feed_repair_loads_no_numpy_ma():
    """Repairing a dirty feed (one title and ragged) does not import
    ``numpy.ma``, as the first ``np.unique`` call would."""
    assert json.loads(_run(_REPAIR)) == []


_HELP = r"""
import contextlib, io, json, runpy, sys
sys.argv = ["repro", sys.argv[1], "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit:
        pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


@pytest.mark.parametrize("command", ["fleet", "live", "burnin"])
def test_front_end_help_loads_no_experiment_or_sweep_tier(command):
    """``python -m repro fleet|live|burnin`` dispatch before the
    experiment harness and the sweep tier are imported."""
    loaded = json.loads(_run(_HELP, command))
    assert "repro.cli" in loaded
    off = [m for m in loaded if m.startswith(("repro.experiments", "repro.sweeps"))]
    assert not off
