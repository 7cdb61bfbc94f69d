"""The soak driver: long randomized fault-injected episodes, every
standing contract re-asserted after every one.

An **episode** is one complete exercise of the serving stack — a seeded
catalog workload pushed through the fleet runner (or a sweep through the
cache) under one *fault family* — followed by the full contract battery
(:mod:`repro.burnin.contracts`).  Fault families:

``none``
    Clean run; also re-runs serially and demands the sharded fold be
    bit-identical (worker-count independence as a standing contract).
``worker-kill``
    A :class:`~repro.burnin.faults.WorkerKill` hard-exits a pool worker
    mid-fold; the recovered sharded run must equal the fault-free serial
    baseline exactly.
``torn-cache``
    A :class:`~repro.burnin.faults.TornArtifact` corrupts cache reads
    under a sweep; every corrupt artifact must be quarantined and the
    recomputed columns must equal the warm run's.
``malformed-trace``
    The workload is fed through :func:`~repro.burnin.faults.corrupt_times`
    (NaN/inf, shuffles, duplicates, out-of-window arrivals); the repaired
    run must equal the clean baseline, with a non-zero repair count as
    evidence the fault actually landed.
``flash-overload``
    A flash crowd far beyond provisioning hits the most popular object;
    the engine must absorb it with the delay guarantee intact, and
    admission control under an undersized budget must shed honestly
    (capacity contract on the admitted set).
``live-replay``
    The workload is served online through a
    :class:`~repro.live.daemon.LiveDaemon` (rolling-horizon epochs,
    fence-gated commits) with a mid-run checkpoint/restore; the resumed
    run must replay byte-identically and the whole live contract battery
    (fence, immutability, schedule, offline-oracle equality) must hold.

Everything — scenario choice, policy choice, fault parameters, workload
draws — flows from ``SoakConfig.seed`` through spawned
:class:`numpy.random.SeedSequence` children, and the evidence report
contains no wall-clock or host state, so the same config reproduces the
same report **byte for byte** (``tests/burnin/test_soak.py`` asserts it).
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..fleet.capacity import admission_report
from ..fleet.engine import FleetPolicy
from ..fleet.runner import FleetReport, run_fleet
from ..fleet.scenarios import scenario_workload
from ..live import LIVE_POLICIES, LiveConfig, LiveDaemon
from ..multiplex.catalog import Catalog
from .contracts import (
    ContractReport,
    check_admission_report,
    check_fleet_report,
    check_live_report,
    check_sweep_result,
    fleet_reports_equal,
)
from .faults import (
    TornArtifact,
    WorkerKill,
    corrupt_times,
    flash_overload,
    installed_task_fault,
)

__all__ = ["FAULT_FAMILIES", "SoakConfig", "SoakReport", "run_soak"]

SOAK_SCHEMA = "repro.burnin-soak.v1"

#: the injected fault families, cycled across episodes.
FAULT_FAMILIES = (
    "none",
    "worker-kill",
    "torn-cache",
    "malformed-trace",
    "flash-overload",
    "live-replay",
)

#: scenario and policy rotations; the fault cycle shares factors with
#: both, so ``live-replay`` spins its own policy rotation over
#: ``LIVE_POLICIES`` (the fleet policy the cycle hands it would
#: otherwise always be the same one).
_SCENARIOS = ("zipf", "flash", "diurnal", "blend")
_POLICIES = ("batched-dyadic", "delay-guaranteed", "pure-batching")


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's shape; everything downstream derives from ``seed``."""

    episodes: int = 50
    seed: int = 0
    objects: int = 5
    duration_minutes: float = 45.0
    delay_minutes: float = 1.5
    horizon_minutes: float = 120.0
    mean_interarrival_minutes: float = 0.6
    overload_clients: int = 400
    workers: int = 2
    #: deliberately violate a contract in episode 0 — proves the harness
    #: actually detects violations (the report must come back not-ok).
    selftest_violation: bool = False

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class SoakReport:
    """The soak's evidence: per-episode contract outcomes + totals.

    Deterministic in the config — :meth:`write` emits canonical JSON with
    sorted keys and no timestamps, so two runs of the same config produce
    byte-identical files.
    """

    config: SoakConfig
    episodes: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e["contracts"]["ok"] for e in self.episodes)

    @property
    def checks(self) -> int:
        return sum(e["contracts"]["checks"] for e in self.episodes)

    @property
    def violations(self) -> int:
        return sum(
            1
            for e in self.episodes
            for o in e["contracts"]["outcomes"]
            if not o["ok"]
        )

    def fault_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in FAULT_FAMILIES}
        for e in self.episodes:
            counts[e["fault"]] += 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SOAK_SCHEMA,
            "config": self.config.to_json(),
            "ok": self.ok,
            "episodes": self.episodes,
            "totals": {
                "episodes": len(self.episodes),
                "checks": self.checks,
                "violations": self.violations,
                "faults": self.fault_counts(),
            },
        }

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )
        return path

    def render(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        counts = self.fault_counts()
        lines = [
            f"burn-in soak: {status} — {len(self.episodes)} episodes, "
            f"{self.checks} contract checks, {self.violations} violations",
            "  fault mix: "
            + "  ".join(f"{k}={v}" for k, v in counts.items()),
        ]
        for e in self.episodes:
            if e["contracts"]["ok"]:
                continue
            failed = [o["name"] for o in e["contracts"]["outcomes"] if not o["ok"]]
            lines.append(
                f"  episode {e['episode']} ({e['fault']}, {e['scenario']}, "
                f"{e['policy']}): FAILED " + ", ".join(failed)
            )
        return "\n".join(lines)


def _merge(target: ContractReport, *sources: ContractReport) -> None:
    for src in sources:
        target.outcomes.extend(src.outcomes)


def _episode_workload(config: SoakConfig, scenario: str, seed: int):
    catalog = Catalog.zipf(
        config.objects, duration_minutes=config.duration_minutes
    )
    workload = scenario_workload(
        scenario,
        catalog,
        config.mean_interarrival_minutes,
        config.horizon_minutes,
        seed=seed,
    )
    return catalog, workload


def _fleet(config: SoakConfig, catalog, workload, policy, workers: int):
    return run_fleet(
        catalog,
        config.delay_minutes,
        config.horizon_minutes,
        policy=policy,
        workload=workload,
        workers=workers,
    )


def _standing_checks(
    out: ContractReport,
    report: FleetReport,
    catalog: Catalog,
    workload,
    policy: FleetPolicy,
) -> None:
    _merge(out, check_fleet_report(report, catalog, workload, policy))


# ---------------------------------------------------------------------------
# Fault-family episode bodies.  Each takes the shared context and appends
# contract outcomes (including a ``fault.recovered`` verdict with the
# fault-specific evidence) to ``out``.
# ---------------------------------------------------------------------------


def _episode_none(ctx, out: ContractReport) -> Dict[str, object]:
    config, catalog, workload, policy = ctx
    serial = _fleet(config, catalog, workload, policy, workers=0)
    sharded = _fleet(config, catalog, workload, policy, config.workers)
    diff = fleet_reports_equal(serial, sharded)
    out.record(
        "episode.deterministic",
        diff is None,
        1,
        f"sharded fold differs from serial: {diff}",
    )
    _standing_checks(out, sharded, catalog, workload, policy)
    return {"clients": int(sharded.clients), "streams": int(sharded.streams)}


def _episode_worker_kill(ctx, out: ContractReport, episode: int) -> Dict[str, object]:
    config, catalog, workload, policy = ctx
    baseline = _fleet(config, catalog, workload, policy, workers=0)
    kill_index = episode % len(catalog.objects)
    with tempfile.TemporaryDirectory(prefix="repro-burnin-") as td:
        kill = WorkerKill(task_index=kill_index, marker_dir=td)
        with installed_task_fault(kill):
            faulted = _fleet(config, catalog, workload, policy, config.workers)
        fired = kill.fired()
    out.record(
        "fault.worker-kill.fired",
        fired or config.workers < 2,
        1,
        "the kill hook never fired in a worker process",
    )
    diff = fleet_reports_equal(baseline, faulted)
    out.record(
        "fault.recovered",
        diff is None,
        1,
        f"post-crash fold differs from the fault-free run: {diff}",
    )
    _standing_checks(out, faulted, catalog, workload, policy)
    return {"kill_index": kill_index, "fired": bool(fired)}


def _episode_torn_cache(out: ContractReport, episode: int) -> Dict[str, object]:
    # the sweep tier loads only when a soak runs this episode
    from ..sweeps.cache import SweepCache
    from ..sweeps.engine import run_sweep
    from ..sweeps.evaluators import merge_cost_table_point
    from ..sweeps.spec import SweepSpec

    spec = SweepSpec(
        name="burnin-merge-cost",
        evaluator=merge_cost_table_point,
        axes={"n": tuple(range(1 + episode % 3, 9 + episode % 3))},
        metrics=("closed", "via_dp"),
    )
    with tempfile.TemporaryDirectory(prefix="repro-burnin-") as td:
        cache = SweepCache(td)
        warm = run_sweep(spec, workers=0, cache=cache)
        tear = TornArtifact(every=2)
        cache.read_hook = tear
        before = cache.quarantined
        faulted = run_sweep(spec, workers=0, cache=cache)
        cache.read_hook = None
        quarantined = cache.quarantined - before
        clean = run_sweep(spec, workers=0, cache=cache)
    _merge(
        out,
        check_sweep_result(warm),
        check_sweep_result(faulted),
        check_sweep_result(clean),
    )
    out.record(
        "fault.torn-cache.quarantined",
        quarantined == tear.corrupted and tear.corrupted > 0,
        1,
        f"{tear.corrupted} artifacts corrupted but {quarantined} quarantined",
    )
    same = all(
        np.array_equal(warm.columns[name], faulted.columns[name])
        and np.array_equal(warm.columns[name], clean.columns[name])
        for name in warm.columns
    )
    out.record(
        "fault.recovered",
        same,
        len(warm.columns),
        "recomputed sweep columns differ from the warm run",
    )
    return {
        "points": int(spec.n_points),
        "corrupted": int(tear.corrupted),
        "quarantined": int(quarantined),
    }


def _episode_malformed_trace(ctx, out: ContractReport, seed: int) -> Dict[str, object]:
    config, catalog, workload, policy = ctx
    baseline = _fleet(config, catalog, workload, policy, workers=0)
    rng_children = np.random.SeedSequence(seed).spawn(len(catalog.objects))
    corrupted = {
        obj.name: corrupt_times(
            workload[obj.name].times,
            seed=child,
            horizon=config.horizon_minutes,
        )
        for obj, child in zip(catalog, rng_children)
    }
    faulted = _fleet(config, catalog, corrupted, policy, config.workers)
    out.record(
        "fault.malformed-trace.landed",
        faulted.repaired > 0,
        1,
        "corrupted workload produced zero repairs — the fault never landed",
    )
    diff = fleet_reports_equal(baseline, faulted)
    out.record(
        "fault.recovered",
        diff is None,
        1,
        f"sanitised run differs from the clean baseline: {diff}",
    )
    _standing_checks(out, faulted, catalog, corrupted, policy)
    return {"repaired": int(faulted.repaired)}


def _episode_flash_overload(
    ctx, out: ContractReport, episode: int, seed: int
) -> Dict[str, object]:
    config, catalog, workload, policy = ctx
    top = catalog.popularity_rank()[0].name
    surged = flash_overload(
        workload,
        top,
        at=config.horizon_minutes / 3.0,
        clients=config.overload_clients,
        spread=2.0,
        seed=seed,
    )
    flood = _fleet(config, catalog, surged, policy, config.workers)
    _standing_checks(out, flood, catalog, surged, policy)
    budget = 1 + episode % 3  # far below the fleet's DG needs: must shed
    verdict = admission_report(
        catalog, config.horizon_minutes, budget
    )
    _merge(
        out, check_admission_report(verdict, catalog, config.horizon_minutes)
    )
    out.record(
        "fault.recovered",
        verdict.feasible or len(verdict.admitted) < len(catalog.objects),
        1,
        "infeasible budget but nothing was shed",
    )
    return {
        "surge_clients": int(config.overload_clients),
        "budget": int(budget),
        "admitted": len(verdict.admitted),
        "dropped": len(verdict.dropped),
    }


def _episode_live_replay(ctx, out: ContractReport, episode: int) -> Dict[str, object]:
    config, catalog, workload, _policy = ctx
    live_policy = LIVE_POLICIES[
        (episode // len(FAULT_FAMILIES)) % len(LIVE_POLICIES)
    ]
    live_config = LiveConfig(
        delay_minutes=config.delay_minutes,
        horizon_minutes=config.horizon_minutes,
        epoch_minutes=config.horizon_minutes / 12.0,
        fence_minutes=config.horizon_minutes / 8.0,
        policy=live_policy,
    )
    daemon = LiveDaemon(catalog, live_config)
    half = live_config.num_epochs // 2
    daemon.run(workload, until_epoch=half - 1)
    snapshot = daemon.checkpoint()
    report = daemon.run(workload)
    assert report is not None
    resumed = LiveDaemon.restore(snapshot).run(workload)
    assert resumed is not None
    diff = fleet_reports_equal(resumed.fleet, report.fleet)
    replay_ok = diff is None and [r.to_payload() for r in resumed.records] == [
        r.to_payload() for r in report.records
    ]
    out.record(
        "fault.recovered",
        replay_ok,
        1,
        f"checkpoint/restore replay differs from the uninterrupted run: {diff}",
    )
    _merge(out, check_live_report(report, catalog, workload=workload))
    return {
        "live_policy": live_policy,
        "epochs": len(report.records),
        "restore_epoch": int(half),
        "clients": int(report.fleet.clients),
        "streams": int(report.fleet.streams),
    }


def _tampered(report: FleetReport) -> FleetReport:
    """A copy of a clean report with one object's delay summary inflated
    past the guarantee — the self-test violation the harness must catch."""
    broken = dataclasses.replace(
        report.objects[0],
        max_startup_delay_minutes=report.delay_minutes * 10.0 + 1.0,
    )
    return FleetReport(
        policy=report.policy,
        delay_minutes=report.delay_minutes,
        horizon_minutes=report.horizon_minutes,
        objects=[broken] + list(report.objects[1:]),
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run the full soak: ``config.episodes`` episodes cycling scenarios,
    policies and fault families, every contract checked after each.

    Never raises for a contract violation or an episode crash — both are
    recorded as failing outcomes in the report (``report.ok`` is the
    verdict); the CLI turns that into a non-zero exit code.
    """
    config = config or SoakConfig()
    report = SoakReport(config=config)
    children = np.random.SeedSequence(config.seed).spawn(max(1, config.episodes))
    for i in range(config.episodes):
        state = children[i].generate_state(2)
        workload_seed, fault_seed = int(state[0]), int(state[1])
        fault = FAULT_FAMILIES[i % len(FAULT_FAMILIES)]
        scenario = _SCENARIOS[i % len(_SCENARIOS)]
        policy_kind = _POLICIES[i % len(_POLICIES)]
        out = ContractReport()
        evidence: Dict[str, object] = {}
        try:
            catalog, workload = _episode_workload(config, scenario, workload_seed)
            policy = FleetPolicy(policy_kind)
            ctx = (config, catalog, workload, policy)
            if config.selftest_violation and i == 0:
                clean = _fleet(config, catalog, workload, policy, workers=0)
                _merge(out, check_fleet_report(_tampered(clean), replay=False))
            elif fault == "none":
                evidence = _episode_none(ctx, out)
            elif fault == "worker-kill":
                evidence = _episode_worker_kill(ctx, out, i)
            elif fault == "torn-cache":
                evidence = _episode_torn_cache(out, i)
            elif fault == "malformed-trace":
                evidence = _episode_malformed_trace(ctx, out, fault_seed)
            elif fault == "flash-overload":
                evidence = _episode_flash_overload(ctx, out, i, fault_seed)
            else:
                evidence = _episode_live_replay(ctx, out, i)
        except Exception:
            # An unhandled exception is itself a contract violation: the
            # soak must survive every injected fault.
            out.record(
                "episode.exception",
                False,
                1,
                traceback.format_exc(limit=3).strip().splitlines()[-1],
            )
        report.episodes.append(
            {
                "episode": i,
                "fault": fault,
                "scenario": scenario,
                "policy": policy_kind,
                "contracts": out.to_json(),
                "evidence": evidence,
            }
        )
    return report
