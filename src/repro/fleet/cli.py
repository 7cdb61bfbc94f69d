"""``python -m repro fleet`` — catalog-scale serving + capacity planning.

Runs a named scenario over a Zipf catalog through the batched kernel,
prints the fleet report, and closes with the DG capacity frontier and an
admission verdict for the tightest budget.  Defaults run a 120-object
catalog end to end in seconds::

    python -m repro fleet
    python -m repro fleet --objects 200 --scenario flash --policy immediate-dyadic
    python -m repro fleet --budgets 150,250,400 --workers 4
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from ..argtypes import (
    add_catalog_options, non_negative_int, output_dir, positive_float, zipf_catalog,
)
from ..scale.columnar import ColumnarStore, StoreError, is_store
from .capacity import (
    admission_report,
    capacity_frontier,
    default_delay_grid,
    dg_fleet_peak,
    render_frontier,
)
from .engine import FLEET_POLICIES, FleetPolicy
from .runner import run_fleet
from .scenarios import SCENARIOS, scenario_workload

__all__ = ["fleet_main", "parse_args"]


def _budget_list(text: str) -> List[int]:
    """``--budgets`` value: comma-separated whole channel counts, each >= 1."""
    try:
        budgets = [int(b) for b in text.split(",") if b.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budgets must be whole channel counts, got {text!r}"
        ) from None
    if not budgets:
        raise argparse.ArgumentTypeError("need at least one budget")
    if min(budgets) < 1:
        raise argparse.ArgumentTypeError("budget must be >= 1 channel")
    return budgets


def _store_dir(text: str) -> str:
    """An existing store whose index and segment length check out (read,
    never written), or a spool parent."""
    if not is_store(text):
        return output_dir(text)
    try:
        ColumnarStore(text).close()
    except StoreError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parse-and-validate step, ``catalog`` included: a bad value
    exits 2 here, before any work runs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Serve a media catalog through the batched fleet engine "
        "and plan channel capacity for a start-up-delay guarantee.",
    )
    add_catalog_options(parser, objects=120)
    parser.add_argument("--horizon", type=positive_float, default=360.0,
                        help="observation horizon in minutes (default 360)")
    parser.add_argument("--mean-interarrival", type=positive_float, default=0.05,
                        help="global mean inter-arrival in minutes (default 0.05)")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="zipf",
                        help="workload scenario (default zipf)")
    parser.add_argument("--policy", choices=FLEET_POLICIES,
                        default="batched-dyadic",
                        help="serving policy (default batched-dyadic)")
    parser.add_argument("--workers", type=non_negative_int, default=0,
                        help="worker processes (default 0 = in-process)")
    parser.add_argument("--store", type=_store_dir, default=None, metavar="DIR",
                        help="ship the workload out-of-core through an "
                        "on-disk columnar store: an existing store dir "
                        "(repro.scale.columnar) is read directly; any "
                        "other DIR is used as a spool parent (removed "
                        "after the run)")
    parser.add_argument("--seed", type=non_negative_int, default=7,
                        help="workload seed")
    parser.add_argument("--budgets", type=_budget_list, default=None,
                        help="comma-separated channel budgets for the "
                        "capacity frontier (default: derived from the run)")
    parser.add_argument("--no-frontier", action="store_true",
                        help="skip the capacity-planning section")
    parser.add_argument("--check", action="store_true",
                        help="also replay-verify every object's merge "
                        "forest (in-process re-simulation; roughly doubles "
                        "the runtime)")
    args = parser.parse_args(argv)
    args.catalog = zipf_catalog(parser, args)
    return args


def fleet_main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    catalog = args.catalog
    print(
        f"scenario {args.scenario!r}: {SCENARIOS[args.scenario]} "
        f"({args.objects} objects, horizon {args.horizon:g} min)"
    )
    t0 = time.perf_counter()
    store = None
    if args.store is not None:
        store = args.store
        if is_store(store):
            print(f"reading workload from columnar store {store}")
    if store is not None and is_store(store):
        workload = None
    else:
        workload = scenario_workload(
            args.scenario, catalog, args.mean_interarrival, args.horizon,
            seed=args.seed,
        )
    report = run_fleet(
        catalog,
        delay_minutes=args.delay,
        horizon_minutes=args.horizon,
        policy=FleetPolicy(args.policy),
        workload=workload,
        workers=args.workers,
        store=store,
    )
    elapsed = time.perf_counter() - t0
    print(report.render())
    print(f"[simulated {report.clients} requests in {elapsed:.2f}s]")

    # Standing invariants (repro.burnin.contracts) as the exit code: the
    # summary battery always runs; --check adds the replay contract.
    from ..burnin.contracts import check_admission_report, check_fleet_report

    contracts = check_fleet_report(
        report,
        catalog,
        workload,
        FleetPolicy(args.policy),
        replay=args.check,
    )
    print(contracts.render())
    exit_code = 0 if contracts.ok else 4

    if args.no_frontier:
        return exit_code
    print()
    if args.budgets:
        budgets = args.budgets
    else:
        # bracket the DG envelope at the requested delay (the frontier's
        # own policy) from comfortable to starved
        peak = dg_fleet_peak(catalog, args.delay, args.horizon)
        budgets = sorted(
            {max(1, int(peak * f)) for f in (1.5, 1.0, 0.75, 0.5, 0.25)}
        )
    # bracket the requested delay; keep lo < hi for tiny --delay values
    hi = args.delay * 16
    lo = min(max(0.25, args.delay / 8), hi / 2)
    grid = default_delay_grid(lo=lo, hi=hi)
    points = capacity_frontier(catalog, args.horizon, budgets, grid)
    print(render_frontier(points))
    print()
    verdict = admission_report(catalog, args.horizon, min(budgets), grid)
    print(verdict.render())
    admission = check_admission_report(verdict, catalog, args.horizon)
    if not admission.ok:
        print(admission.render())
        exit_code = 4
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(fleet_main())
