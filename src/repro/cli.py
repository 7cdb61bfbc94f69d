"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig1
    python -m repro fig12 --save results/ --workers 4 --cache
    python -m repro all --save results/
    python -m repro fleet --objects 120 --scenario flash
    python -m repro burnin --episodes 50 --report soak.json
    python -m repro live --scenario diurnal --accel 720

Grid experiments run through the sweep tier (:mod:`repro.sweeps`):
``--workers`` shards point evaluation across processes and ``--cache``
enables the content-hash artifact cache, so re-rendering a figure after
a parameter tweak recomputes only the dirty points.

``fleet`` is not a paper experiment but the catalog-scale serving +
capacity-planning front end (see :mod:`repro.fleet.cli`); ``burnin`` is
the fault-injected soak harness (see :mod:`repro.burnin.cli`); ``live``
is the rolling-horizon online serving daemon (see
:mod:`repro.live.cli`).  All three take their own options and are
dispatched before the experiment parser runs.  Exit codes are
contracts: ``fleet`` exits 4 when a standing fleet/admission invariant
fails, ``burnin`` exits 3 on any soak violation, ``live`` exits 5 when
a live invariant (fence, immutability, oracle equality) fails,
experiments exit 4 when a reported table contains non-finite values,
and every front end exits 2 on a malformed number or an unusable output
path, before any work runs (:mod:`repro.argtypes`).

Each experiment prints the same rows/series the paper reports (see
DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
paper-vs-measured comparisons).  ``--save`` additionally writes rendered
text and raw JSON per experiment.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 - gettext imports it when main builds its first parser
import math
import sys
import time
from typing import List, Optional

from .argtypes import non_negative_int, output_dir

__all__ = ["main", "parse_args"]

# The experiment harness and the sweep tier are imported on the experiment
# path only: ``fleet``, ``burnin`` and ``live`` load neither.


def get_experiment(exp_id: str):
    """The registered experiment ``exp_id`` (``KeyError`` lists the known ids)."""
    from .experiments import get_experiment as lookup

    return lookup(exp_id)


def _print_listing() -> None:
    from .experiments import all_experiments

    exps = all_experiments()
    width = max(len(e) for e in exps)
    print("Available experiments:\n")
    for exp_id in sorted(exps):
        exp = exps[exp_id]
        print(f"  {exp_id.ljust(width)}  {exp.title}  [{exp.paper_ref}]")
    print("\nRun one with: python -m repro <id>")
    print(
        "Catalog-scale serving and capacity planning: "
        "python -m repro fleet --help"
    )


def _finite_ok(results) -> bool:
    """The CLI-boundary contract on experiment output: every numeric cell
    of every reported table is finite (the sweep tier's ``sweep.finite``
    invariant re-asserted on what actually gets printed/saved)."""
    for res in results:
        for row in res.rows:
            for cell in row:
                if isinstance(cell, float) and not math.isfinite(cell):
                    return False
    return True


def _run_one(exp_id: str, save_dir: Optional[str]) -> bool:
    exp = get_experiment(exp_id)
    t0 = time.perf_counter()
    results = exp()
    elapsed = time.perf_counter() - t0
    for res in results:
        print(res.render())
        print()
    if save_dir is not None:
        from .experiments.report import save_results

        paths = save_results(exp, results, save_dir)
        print("saved: " + ", ".join(str(p) for p in paths))
    print(f"[{exp_id} completed in {elapsed:.2f}s]")
    ok = _finite_ok(results)
    if not ok:
        print(
            f"CONTRACT VIOLATION: {exp_id} reported non-finite values",
            file=sys.stderr,
        )
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fleet":
        # The fleet front end owns its own option set; hand over before
        # the experiment parser sees (and rejects) those flags.
        from .fleet.cli import fleet_main

        return fleet_main(argv[1:])
    if argv and argv[0] == "burnin":
        from .burnin.cli import burnin_main

        return burnin_main(argv[1:])
    if argv and argv[0] == "live":
        from .live.cli import live_main

        return live_main(argv[1:])
    args = parse_args(argv)
    from .experiments import all_experiments
    from .sweeps import configure_sweeps

    # `False` (not None) when the flag is absent: every `main()` call
    # re-establishes its own cache setting instead of inheriting one from
    # an earlier in-process invocation.
    configure_sweeps(
        workers=args.workers,
        cache=args.cache if args.cache is not None else False,
    )
    if args.experiment == "list":
        _print_listing()
        return 0
    if args.experiment == "all":
        ok = True
        for exp_id in sorted(all_experiments()):
            print(f"\n{'#' * 70}\n# {exp_id}\n{'#' * 70}\n")
            ok = _run_one(exp_id, args.save) and ok
        return 0 if ok else 4
    try:
        ok = _run_one(args.experiment, args.save)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0 if ok else 4


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parse-and-validate step: a bad value exits 2 before any work runs."""
    from .sweeps.cache import DEFAULT_CACHE_DIR

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from Bar-Noy, Goshi & Ladner "
        "(SPAA'03/JDA'06) — stream merging for Media-on-Demand.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see `list`), `list`, or `all`",
    )
    parser.add_argument(
        "--save",
        nargs="?",
        const="results",
        default=None,
        type=output_dir,
        metavar="DIR",
        help="also write <id>.txt and <id>.json under DIR (default: results/)",
    )
    parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="shard sweep-point evaluation across N worker processes "
        "(default 0 = in-process)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE_DIR,
        default=None,
        type=output_dir,
        metavar="DIR",
        help="enable the sweep artifact cache under DIR (default: "
        f"{DEFAULT_CACHE_DIR}/); re-rendering after a parameter tweak "
        "recomputes only dirty grid points",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
