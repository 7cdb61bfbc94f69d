"""``python -m repro burnin`` — the fault-injected soak front end.

Runs :func:`repro.burnin.soak.run_soak` with a seeded config, prints the
contract summary, optionally writes the JSON evidence report, and exits
non-zero (3) when any standing invariant was violated — the CI smoke job
(``make burnin-smoke``) is exactly this command with a small episode
count::

    python -m repro burnin
    python -m repro burnin --episodes 10 --seed 42 --report soak.json
    python -m repro burnin --selftest-violation   # must exit 3
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from ..argtypes import non_negative_int, output_file, positive_float, positive_int, stream_length
from ..multiplex.catalog import MediaObject
from .soak import SoakConfig, run_soak

__all__ = ["burnin_main", "parse_args"]

#: exit code for a soak that detected one or more contract violations.
EXIT_CONTRACT_VIOLATION = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """The parse-and-validate step, the soak's ``config`` included: a bad
    value exits 2 here, before any episode runs."""
    defaults = SoakConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro burnin",
        description="Soak the serving stack under injected faults "
        "(worker kills, torn cache artifacts, malformed traces, flash "
        "overload) and re-assert every standing invariant after every "
        "episode.",
    )
    parser.add_argument("--episodes", type=positive_int,
                        default=defaults.episodes,
                        help=f"soak episodes (default {defaults.episodes})")
    parser.add_argument("--seed", type=non_negative_int, default=defaults.seed,
                        help="base seed; same seed, same evidence report, "
                        "byte for byte (default 0)")
    parser.add_argument("--objects", type=positive_int,
                        default=defaults.objects,
                        help=f"catalog size per episode (default {defaults.objects})")
    parser.add_argument("--workers", type=non_negative_int,
                        default=defaults.workers,
                        help="worker processes for sharded episodes "
                        f"(default {defaults.workers}; worker-kill episodes "
                        "need >= 2)")
    parser.add_argument("--horizon", type=positive_float,
                        default=defaults.horizon_minutes,
                        help="episode horizon in minutes "
                        f"(default {defaults.horizon_minutes:g})")
    parser.add_argument("--delay", type=positive_float,
                        default=defaults.delay_minutes,
                        help="guaranteed start-up delay in minutes "
                        f"(default {defaults.delay_minutes:g})")
    parser.add_argument("--mean-interarrival", type=positive_float,
                        default=defaults.mean_interarrival_minutes,
                        help="global mean inter-arrival in minutes "
                        f"(default {defaults.mean_interarrival_minutes:g})")
    parser.add_argument("--report", type=output_file, default=None, metavar="PATH",
                        help="write the JSON evidence report to PATH")
    parser.add_argument("--selftest-violation", action="store_true",
                        help="deliberately violate a contract in episode 0 "
                        "(harness self-test; the run must exit non-zero)")
    args = parser.parse_args(argv)
    args.config = SoakConfig(
        episodes=args.episodes,
        seed=args.seed,
        objects=args.objects,
        workers=args.workers,
        horizon_minutes=args.horizon,
        delay_minutes=args.delay,
        mean_interarrival_minutes=args.mean_interarrival,
        selftest_violation=args.selftest_violation,
    )
    # Every episode's catalog has the config's one duration.
    stream_length(parser, MediaObject("soak", args.config.duration_minutes, 1.0), args.delay)
    return args


def burnin_main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    config = args.config
    t0 = time.perf_counter()
    report = run_soak(config)
    elapsed = time.perf_counter() - t0
    print(report.render())
    print(f"[{config.episodes} episodes soaked in {elapsed:.1f}s]")
    if args.report:
        path = report.write(args.report)
        print(f"evidence report: {path}")
    return 0 if report.ok else EXIT_CONTRACT_VIOLATION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(burnin_main())
