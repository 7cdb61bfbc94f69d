"""The four benchmark workloads: set-up, timed path, output checks, traces.

Each workload is a class with the same steps, which ``child.py`` runs in
one fresh interpreter per pass:

* ``setup`` imports what the path needs and builds the catalog, config and
  daemon (this is ``setup_s``); ``repro`` is imported here and nowhere
  above, so a set-up-only probe pays exactly what a CLI user pays;
* ``prepare`` does untimed work that stands in for the outside world;
* ``patch`` installs the traced wrappers (traced passes only);
* ``timed`` runs the user-facing path, with spans around each call the
  benchmark makes into the program (a ``StageTimer`` when untraced);
* ``check`` verifies the outputs after the timed window and returns
  ``(name, ok, detail)`` tuples.  With ``tamper`` set (``run.py
  --selftest``) the output is first spoiled by the smallest change a check
  must still catch.

Workload parameters live in ``spec.json``, next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np


SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())

Check = Tuple[str, bool, str]


def _nudge(report) -> None:
    """Move one folded interval end of the busiest object up by one ULP."""
    obj = max(report.objects, key=lambda o: o.streams)
    k = obj.ends.size // 2
    obj.ends[k] = np.nextafter(obj.ends[k], math.inf)


def _spool_empty(spool: str) -> Check:
    left = os.listdir(spool) if os.path.isdir(spool) else []
    return ("store.spool-removed", not left, f"left behind: {left[:3]}")


class Fleet:
    """``python -m repro fleet`` on one scenario (fleet-catalog, fleet-hot-check)."""

    def __init__(self, name: str, seed: int, tmp: str, tamper: bool):
        self.p = SPEC["workloads"][name]["params"]
        self.seed = seed
        self.spool = os.path.join(tmp, "spool")
        self.tamper = tamper

    def setup(self) -> None:
        from repro.fleet.engine import FleetPolicy
        from repro.multiplex.catalog import Catalog
        from repro.scale.kernels import configure_backend

        import repro.burnin.contracts  # noqa: F401 - the CLI imports it per run
        import repro.fleet.capacity  # noqa: F401
        import repro.fleet.runner  # noqa: F401
        import repro.fleet.scenarios  # noqa: F401

        configure_backend("auto")
        p = self.p
        self.catalog = Catalog.zipf(
            p["objects"], duration_minutes=p["duration_minutes"], exponent=p["exponent"]
        )
        self.policy = FleetPolicy(p["policy"])

    def prepare(self) -> None:
        if self.p["store"]:
            os.makedirs(self.spool, exist_ok=True)

    def patch(self, tr) -> None:
        import repro.burnin.contracts as contracts
        import repro.fastpath.replay as replay
        import repro.fleet.capacity as capacity
        import repro.fleet.engine as engine
        import repro.fleet.runner as runner
        import repro.fleet.scenarios as scenarios
        import repro.scale.columnar as columnar
        from repro.fastpath.flat_forest import FlatForest

        def streams(t, result):
            t.count("fleet.engine.calls")
            if result.forest is not None:
                t.count("fleet.engine.streams", result.forest.arrivals.size)

        tr.wrap(scenarios, "poisson", "arrivals.poisson",
                on_result=lambda t, r: t.count("arrivals.poisson_calls"))
        tr.wrap(scenarios, "split_requests", "multiplex.workload.split")
        tr.wrap(runner, "sanitize_times", "fleet.runner.sanitize")
        tr.wrap(runner, "simulate_batched", "fleet.engine.simulate", on_result=streams)
        tr.wrap(engine, "bucket_slots", "scale.kernels.bucket")
        tr.wrap(engine, "dyadic_flat_forest", "fastpath.dyadic.forest",
                on_result=lambda t, r: t.count("fastpath.dyadic.nodes", r.arrivals.size))
        tr.wrap(FlatForest, "stream_lengths", "fastpath.flat_forest.lengths")
        tr.wrap(columnar.ColumnarWriter, "add", "scale.columnar.write",
                on_args=lambda t, w, name, values: t.count(
                    "scale.columnar.bytes", 8 * np.asarray(values).size))
        tr.wrap(columnar.ColumnarWriter, "close", "scale.columnar.write")
        for attr in ("attach", "detach"):
            tr.wrap(columnar, attr, "scale.columnar.read")
        for attr in ("view", "release_slice"):
            tr.wrap(columnar.ColumnarStore, attr, "scale.columnar.read")
        tr.wrap(contracts, "_check_replay", "burnin.contracts.replay")
        for attr in ("replay_verify_forest", "replay_verify_forest_continuous"):
            tr.wrap(replay, attr, "fastpath.replay.verify")
        tr.wrap(capacity, "dg_fleet_peak", "fleet.capacity.peak")
        tr.wrap(capacity, "aggregate_peak", "multiplex.aggregate_peak")

    def timed(self, tr) -> dict:
        # The call sequence of repro.fleet.cli.fleet_main, printing aside.
        from repro.burnin.contracts import check_admission_report, check_fleet_report
        from repro.fleet import capacity
        from repro.fleet.runner import run_fleet
        from repro.fleet.scenarios import scenario_workload

        p, catalog = self.p, self.catalog
        delay, horizon = p["delay_minutes"], p["horizon_minutes"]
        workload = tr.call(
            "fleet.scenarios.generate", scenario_workload,
            p["scenario"], catalog, p["mean_interarrival_minutes"], horizon,
            seed=self.seed,
        )
        report = tr.call(
            "fleet.runner.run", run_fleet, catalog,
            delay_minutes=delay, horizon_minutes=horizon, policy=self.policy,
            workload=workload, workers=0,
            store=self.spool if p["store"] else None,
        )
        if self.tamper:
            _nudge(report)
        out = {"workload": workload, "report": report}
        out["contracts"] = tr.call(
            "burnin.contracts.summary", check_fleet_report,
            report, catalog, workload, self.policy, replay=p["replay"],
        )
        if p["frontier"]:
            peak = tr.call("fleet.capacity.peak", capacity.dg_fleet_peak, catalog, delay, horizon)
            budgets = sorted({max(1, int(peak * f)) for f in (1.5, 1.0, 0.75, 0.5, 0.25)})
            hi = delay * 16
            lo = min(max(0.25, delay / 8), hi / 2)
            grid = capacity.default_delay_grid(lo=lo, hi=hi)
            out["frontier"] = tr.call(
                "fleet.capacity.frontier", capacity.capacity_frontier,
                catalog, horizon, budgets, grid,
            )
            verdict = tr.call(
                "fleet.capacity.admission", capacity.admission_report,
                catalog, horizon, min(budgets), grid,
            )
            out["admission"] = tr.call(
                "burnin.contracts.summary", check_admission_report, verdict, catalog, horizon
            )
        return out

    def check(self, out: dict) -> List[Check]:
        from repro.burnin.contracts import check_fleet_report

        report, contracts = out["report"], out["contracts"]
        clients = sum(len(t.times) for t in out["workload"].values())
        checks = [
            ("fleet.contracts", contracts.ok, contracts.render()),
            ("fleet.clients-conserved", report.clients == clients,
             f"{report.clients} served of {clients} generated"),
        ]
        if self.p["frontier"]:
            admission = out["admission"]
            checks.append(("fleet.admission-contracts", admission.ok, admission.render()))
            checks.append(("fleet.frontier-points", len(out["frontier"]) > 0, "empty frontier"))
        if not self.p["replay"]:
            # The path ran the summary battery only; the replay contract
            # re-simulates every object and compares intervals bit for bit.
            replay = check_fleet_report(report, self.catalog, out["workload"], self.policy)
            checks.append(("fleet.replay", replay.ok, replay.render()))
        if self.p["store"]:
            checks.append(_spool_empty(self.spool))
        return checks

    def counts(self, out: dict, tr) -> None:
        from repro.fleet.capacity import dg_envelope

        tr.count("arrivals.clients", sum(len(t.times) for t in out["workload"].values()))
        tr.count("fleet.runner.objects", len(out["report"].objects))
        tr.count("burnin.contracts.checks", out["contracts"].checks
                 + (out["admission"].checks if "admission" in out else 0))
        info = dg_envelope.cache_info()
        tr.count("fleet.capacity.envelope_hits", info.hits)
        tr.count("fleet.capacity.envelope_misses", info.misses)


class LiveWeek:
    """A week of epochs through ``LiveDaemon.step`` with a mid-run restore."""

    def __init__(self, name: str, seed: int, tmp: str, tamper: bool):
        self.p = SPEC["workloads"][name]["params"]
        self.seed = seed
        self.feed_path = os.path.join(tmp, "feed.npz")
        self.tamper = tamper

    def _catalog(self):
        from repro.multiplex.catalog import Catalog

        p = self.p
        return Catalog.zipf(
            p["objects"], duration_minutes=p["duration_minutes"], exponent=p["exponent"]
        )

    def make_feed(self) -> None:
        """Generate the arrival feed (run in its own process, never timed)."""
        from repro.fleet.scenarios import scenario_workload

        p = self.p
        workload = scenario_workload(
            p["scenario"], self._catalog(), p["mean_interarrival_minutes"],
            p["horizon_minutes"], seed=self.seed,
        )
        np.savez(self.feed_path, **{k: np.asarray(t.times) for k, t in workload.items()})

    def setup(self) -> None:
        from repro.live.daemon import LiveDaemon
        from repro.live.horizon import LiveConfig
        from repro.scale.kernels import configure_backend

        configure_backend("auto")
        p = self.p
        self.catalog = self._catalog()
        self.config = LiveConfig(
            delay_minutes=p["delay_minutes"], horizon_minutes=p["horizon_minutes"],
            epoch_minutes=p["epoch_minutes"], fence_minutes=p["fence_minutes"],
            policy=p["policy"],
        )
        self.daemon = LiveDaemon(self.catalog, self.config)

    def prepare(self) -> None:
        with np.load(self.feed_path) as data:
            self.workload = {obj.name: data[obj.name] for obj in self.catalog}
        self.batches = []
        for k in range(self.config.num_epochs):
            t0, t1 = self.config.epoch_bounds(k)
            self.batches.append({
                name: ts[np.searchsorted(ts, t0):np.searchsorted(ts, t1)]
                for name, ts in self.workload.items()
            })

    def patch(self, tr) -> None:
        import repro.live.daemon as daemon
        from repro.fastpath.flat_forest import FlatForest
        from repro.fastpath.incremental import IncrementalFlatForest
        from repro.live.schedule import ChannelPlanner

        tr.wrap(daemon, "sanitize_times", "live.daemon.sanitize")
        tr.wrap(IncrementalFlatForest, "push_batch", "fastpath.incremental.push")
        tr.wrap(IncrementalFlatForest, "evict_committable", "fastpath.incremental.evict")
        tr.wrap(ChannelPlanner, "assign", "live.schedule.assign")
        tr.wrap(FlatForest, "stream_lengths", "fastpath.flat_forest.lengths")
        tr.wrap(daemon, "live_digest", "live.daemon.digest",
                on_args=lambda t, per_object, counts: t.count(
                    "live.daemon.digest_bytes", 16 * sum(counts)))

    def timed(self, tr) -> dict:
        from repro.live.daemon import LiveDaemon

        daemon = self.daemon
        mid = len(self.batches) // 2
        for k, batch in enumerate(self.batches):
            tr.call("live.daemon.step", daemon.step, batch)
            if k == mid - 1:
                text = tr.call("live.daemon.checkpoint", daemon.checkpoint)
                before = [r.to_payload() for r in daemon.records]
                daemon = tr.call("live.daemon.restore", LiveDaemon.restore, text)
                replayed = daemon.horizon.epoch + 1
        tr.call("live.daemon.drain", daemon.drain)
        report = tr.call("live.daemon.report", daemon.report)
        # Latencies from the stage records, which leave out speed probes.
        seconds = {name: [] for name in ("live.daemon.step", "live.daemon.restore")}
        for name, start, end in tr.calls:
            if name in seconds:
                seconds[name].append(end - start)
        return {
            "report": report, "latencies": seconds["live.daemon.step"],
            "restore_s": seconds["live.daemon.restore"][0],
            "checkpoint_bytes": len(text.encode()), "before": before,
            "replayed": replayed,
        }

    def check(self, out: dict) -> List[Check]:
        from repro.burnin.contracts import check_live_report

        report = out["report"]
        if self.tamper:
            _nudge(report.fleet)
        contracts = check_live_report(report, self.catalog, workload=self.workload)
        oracle = [o for o in contracts.outcomes if o.name == "live.oracle-equality"]
        rest = [o for o in contracts.outcomes if o.name != "live.oracle-equality"]
        before = out["before"]
        after = [r.to_payload() for r in report.records[: len(before)]]
        epochs = [r for r in report.records if not r.drain]
        return [
            ("live.contracts", all(o.ok for o in rest),
             "; ".join(f"{o.name}: {o.detail}" for o in rest if not o.ok)),
            # fleet_reports_equal(report.fleet, run_fleet(...same feed...))
            ("live.oracle-equality", len(oracle) == 1 and oracle[0].ok,
             oracle[0].detail if oracle else "oracle not run"),
            ("live.restore-identical", after == before,
             "records replayed by restore differ from the originals"),
            ("live.epochs", len(epochs) == self.config.num_epochs and report.records[-1].drain,
             f"{len(epochs)} epochs recorded"),
        ]

    def counts(self, out: dict, tr) -> None:
        tr.count("live.daemon.restore_replay_epochs", out["replayed"])
        tr.count("live.daemon.committed_streams", out["report"].fleet.streams)

    def extras(self, out: dict) -> Dict[str, float]:
        """live-week's own end-to-end figures (see spec.json)."""
        ms = np.asarray(out["latencies"]) * 1e3
        tenth = ms.size // 10
        return {
            "epoch_ms_p50": float(np.median(ms)),
            "epoch_ms_p99": float(np.percentile(ms, 99)),
            "epoch_ms_drift": float(np.median(ms[-tenth:]) / np.median(ms[:tenth])),
            "restore_s": out["restore_s"],
            "checkpoint_mb": out["checkpoint_bytes"] / 1e6,
        }


def _norm(value):
    """JSON-comparable cell, as tests/experiments/test_golden_tables.py does."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: experiments whose rows embed wall-clock timings: only these columns are
#: compared (the golden test pins the same ones).
STABLE_COLUMNS = {"complexity": (0, 4)}


class PaperTables:
    """``python -m repro all``: every paper table, checked against the goldens."""

    def __init__(self, name: str, seed: int, tmp: str, tamper: bool):
        self.p = SPEC["workloads"][name]["params"]
        self.tamper = tamper

    def setup(self) -> None:
        import repro.cli
        from repro.experiments import all_experiments

        all_experiments()  # load the registry, as the CLI's first lookup does
        self.cli = repro.cli

    def prepare(self) -> None:
        self.results = {}
        original = self.cli.get_experiment

        def get_experiment(exp_id):
            exp = original(exp_id)

            def run(**kwargs):
                results = self.tr.call(f"experiments.{exp_id}", exp, **kwargs)
                self.results[exp_id] = results
                return results

            return run

        # Captures each experiment's tables for the golden check; in a
        # traced pass the same hook opens the per-experiment span.
        self.cli.get_experiment = get_experiment

    def patch(self, tr) -> None:
        import repro.experiments as experiments
        import repro.sweeps.engine as sweeps
        from repro.experiments.harness import ExperimentResult

        def swept(t, result):
            t.count("sweeps.points", result.n_points)
            t.count("sweeps.cache_hits", result.cache_hits)

        tr.wrap(ExperimentResult, "render", "experiments.render")
        for name in dir(experiments):
            module = getattr(experiments, name)
            if getattr(module, "run_sweep", None) is sweeps.run_sweep:
                tr.wrap(module, "run_sweep", "sweeps.run_sweep", on_result=swept)

    def timed(self, tr) -> dict:
        self.tr = tr
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(list(self.p["argv"]))
        return {"code": code, "stdout": stdout.getvalue()}

    def check(self, out: dict) -> List[Check]:
        from repro.sweeps import sweep_defaults

        golden_dir = Path("tests/experiments/golden")
        if self.tamper:
            self._spoil_one_cell()
        checks = [
            ("cli.exit-code", out["code"] == 0, f"exit code {out['code']}"),
            ("sweeps.cache-off", sweep_defaults()["cache"] is None, "sweep cache enabled"),
            ("golden.fixture-set",
             {p.stem for p in golden_dir.glob("*.json")} == set(self.results),
             f"ran {sorted(self.results)}"),
        ]
        for exp_id, results in sorted(self.results.items()):
            fixture = golden_dir / f"{exp_id}.json"
            ok = fixture.is_file() and self._matches(
                exp_id, results, json.loads(fixture.read_text()), out["stdout"]
            )
            checks.append((f"golden.{exp_id}", ok, "differs from its golden fixture"))
        return checks

    @staticmethod
    def _matches(exp_id, results, golden, stdout) -> bool:
        if len(results) != len(golden["tables"]):
            return False
        stable = STABLE_COLUMNS.get(exp_id)
        for res, want in zip(results, golden["tables"]):
            rows = [_norm(list(r)) for r in res.rows]
            if res.title != want["title"] or [str(h) for h in res.headers] != want["headers"]:
                return False
            if stable is not None:
                if [[r[i] for i in stable] for r in rows] != [
                    [r[i] for i in stable] for r in want["rows"]
                ]:
                    return False
                continue
            if rows != want["rows"] or [str(n) for n in res.notes] != want["notes"]:
                return False
            if want["rendered"] not in stdout:
                return False
        return True

    def _spoil_one_cell(self) -> None:
        exp_id = min(i for i in self.results if i not in STABLE_COLUMNS)
        row = list(self.results[exp_id][0].rows[0])
        cell = row[-1]
        if isinstance(cell, (float, np.floating)):
            row[-1] = float(np.nextafter(cell, math.inf))
        elif isinstance(cell, (int, np.integer)):
            row[-1] = cell + 1
        else:
            row[-1] = f"{cell}?"
        self.results[exp_id][0].rows[0] = row

    def counts(self, out: dict, tr) -> None:
        pass


WORKLOADS = {
    "fleet-catalog": Fleet,
    "fleet-hot-check": Fleet,
    "live-week": LiveWeek,
    "paper-tables": PaperTables,
}
