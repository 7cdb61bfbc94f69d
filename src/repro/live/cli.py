"""``python -m repro live`` — the rolling-horizon online serving front end.

Replays a scenario workload through :class:`~repro.live.daemon.LiveDaemon`
in accelerated wall-clock, prints the live report, re-asserts the live
standing invariants (decisions ahead of the fence, committed-prefix
immutability, schedule optimality, offline-oracle equality), and exits
non-zero (5) on any violation — the same exit-codes-are-contracts rule as
``burnin`` (3) and ``fleet`` (4)::

    python -m repro live
    python -m repro live --scenario diurnal --accel 720 --epoch 15
    python -m repro live --smoke        # the CI acceptance soak

``--smoke`` is the acceptance run wired into CI (``make live-smoke``): a
short accelerated diurnal day with a mid-run checkpoint/restore and one
injected worker kill on the offline oracle's sharded run, asserting
``fleet_reports_equal`` across all three paths and positive wall-clock
lead on every epoch.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ..argtypes import (
    add_catalog_options, non_negative_int, output_file, positive_float, zipf_catalog,
)
from ..fleet.runner import run_fleet
from ..fleet.scenarios import SCENARIOS, scenario_workload
from ..multiplex.catalog import Catalog
from .daemon import LiveDaemon
from .horizon import LIVE_POLICIES, LiveConfig

__all__ = ["live_main", "parse_args"]

#: exit code when any live standing invariant was violated.
EXIT_LIVE_VIOLATION = 5


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parse-and-validate step, ``catalog`` and ``config`` included: a
    bad value exits 2 here, before the daemon runs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro live",
        description="Serve a media catalog online: rolling-horizon epoch "
        "ingestion, incremental merge forests, fence-gated commits, and "
        "channel schedules emitted ahead of accelerated wall-clock.",
    )
    add_catalog_options(parser, objects=24)
    parser.add_argument("--horizon", type=positive_float, default=360.0,
                        help="stream horizon in minutes (default 360)")
    parser.add_argument("--epoch", type=positive_float, default=30.0,
                        help="ingest epoch length in minutes (default 30)")
    parser.add_argument("--fence", type=positive_float, default=60.0,
                        help="commit fence lag in minutes (default 60)")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="diurnal",
                        help="workload scenario (default diurnal)")
    parser.add_argument("--policy", choices=LIVE_POLICIES,
                        default="batched-dyadic",
                        help="serving policy (default batched-dyadic)")
    parser.add_argument("--mean-interarrival", type=positive_float, default=0.2,
                        help="global mean inter-arrival in minutes (default 0.2)")
    parser.add_argument("--seed", type=non_negative_int, default=7,
                        help="workload seed")
    parser.add_argument("--accel", type=positive_float, default=None, metavar="X",
                        help="pace ingestion at X simulated minutes per "
                        "wall-clock second (default: no pacing)")
    parser.add_argument("--report", type=output_file, default=None, metavar="PATH",
                        help="write the JSON live report (the drained "
                        "report, with --smoke) to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="CI acceptance soak: accelerated diurnal day, "
                        "mid-run checkpoint/restore, injected worker kill "
                        "on the oracle run; exits 5 on any violation")
    args = parser.parse_args(argv)
    args.catalog = zipf_catalog(parser, args)
    try:
        args.config = LiveConfig(
            delay_minutes=args.delay,
            horizon_minutes=args.horizon,
            epoch_minutes=args.epoch,
            fence_minutes=args.fence,
            policy=args.policy,
        )
    except ValueError as exc:  # every value passed its type: the pair does not fit
        parser.error(f"argument --horizon/--epoch: {exc}")
    return args


def live_main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return _smoke(args)

    from ..burnin.contracts import check_live_report

    catalog, config = args.catalog, args.config
    workload = scenario_workload(
        args.scenario, catalog, args.mean_interarrival, args.horizon, seed=args.seed
    )
    print(
        f"scenario {args.scenario!r}: {SCENARIOS[args.scenario]} "
        f"({args.objects} objects, horizon {args.horizon:g} min, "
        f"epoch {args.epoch:g} min, fence lag {args.fence:g} min"
        + (f", accel {args.accel:g} min/s" if args.accel else "")
        + ")"
    )
    daemon = LiveDaemon(catalog, config)
    t0 = time.perf_counter()
    report = daemon.run(workload, accel=args.accel)
    elapsed = time.perf_counter() - t0
    assert report is not None
    print(report.render())
    print(f"[served {report.fleet.clients} requests in {elapsed:.2f}s]")

    contracts = check_live_report(report, catalog, workload=workload)
    print(contracts.render())
    _write_report(report, args.report)
    return 0 if contracts.ok else EXIT_LIVE_VIOLATION


def _write_report(report, path: Optional[str]) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(report.to_json())
        print(f"wrote {path}")


def _smoke(args) -> int:
    """The CI acceptance soak (see module docstring)."""
    from ..burnin.contracts import check_live_report, fleet_reports_equal
    from ..burnin.faults import WorkerKill, installed_task_fault

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    catalog = Catalog.zipf(8, duration_minutes=60.0)
    config = LiveConfig(
        delay_minutes=1.5,
        horizon_minutes=120.0,
        epoch_minutes=10.0,
        fence_minutes=15.0,
        policy=args.policy,
    )
    workload = scenario_workload(
        "diurnal", catalog, 0.4, config.horizon_minutes, seed=args.seed
    )
    accel = args.accel or 600.0  # a 2-hour day in 0.2 s of wall-clock
    print(
        f"live smoke: diurnal day, {len(catalog)} objects, "
        f"{config.num_epochs} epochs at {accel:g} min/s"
    )

    # 1. accelerated run with a mid-run checkpoint/restore
    daemon = LiveDaemon(catalog, config)
    half = config.num_epochs // 2
    daemon.run(workload, until_epoch=half - 1, accel=accel)
    snapshot = daemon.checkpoint()
    report = daemon.run(workload, accel=accel)
    assert report is not None
    print(report.render())

    restored = LiveDaemon.restore(snapshot)
    resumed = restored.run(workload)
    assert resumed is not None
    diff = fleet_reports_equal(resumed.fleet, report.fleet)
    check(diff is None, f"checkpoint/restore replay identical ({diff or 'exact'})")
    check(
        [r.to_payload() for r in resumed.records]
        == [r.to_payload() for r in report.records],
        "epoch records identical across restore",
    )

    # 2. standing invariants + offline oracle equality
    contracts = check_live_report(report, catalog, workload=workload)
    print(contracts.render())
    if not contracts.ok:
        failures.append("live contracts")

    # 3. wall-clock lead: every paced epoch decided ahead of the next batch
    leads = [r.lead_seconds for r in report.records if r.lead_seconds is not None]
    check(bool(leads) and min(leads) > 0.0,
          f"decisions ahead of wall-clock (min lead "
          f"{min(leads, default=float('nan')):.3f}s)")

    # 4. offline oracle survives an injected worker kill and still matches
    with tempfile.TemporaryDirectory() as markers:
        kill = WorkerKill(task_index=1, marker_dir=markers)
        with installed_task_fault(kill):
            oracle = run_fleet(
                catalog,
                delay_minutes=config.delay_minutes,
                horizon_minutes=config.horizon_minutes,
                policy=config.fleet_policy(),
                workload=workload,
                workers=2,
            )
        check(kill.fired(), "worker kill fired")
    diff = fleet_reports_equal(report.fleet, oracle)
    check(diff is None,
          f"daemon == sharded oracle across worker kill ({diff or 'exact'})")

    _write_report(report, args.report)
    if failures:
        print(f"live smoke: {len(failures)} failure(s)")
        return EXIT_LIVE_VIOLATION
    print("live smoke: all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(live_main())
