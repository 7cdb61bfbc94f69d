"""Alternating base/change perfbench pairs, judged by the standing rule.

Run from the repository root::

    python3 benchmarks/perfbench_pairs.py --workload fleet-hot-check --seed 1 \\
        --pairs 10 --base HEAD~1
    make perfbench-pairs W=fleet-hot-check SEED=1 PAIRS=10 BASE=HEAD~1

The change is this checkout, uncommitted edits included.  ``--base`` is a
git ref, checked out into a temporary ``git worktree`` that is removed on
exit, or the path of a checkout already on disk.  Each pair runs
``perfbench/run.py --seconds 20 --trace 0`` (``run_seconds`` of
``BENCHMARK.json``) once in each checkout, with that checkout's own
``perfbench/``; which side goes first alternates from pair to pair, so a
drift in machine speed falls on both sides alike.  Each pair prints both
sides' ``wall_s`` and ``peak_rss_mb`` as it finishes, so a verdict on
either can be read pair by pair.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, the pairs the change wins and ties, failed
over attempted checks per side, and a verdict (:func:`verdict`):

* **gain** — the change wins at least 9 pairs in 10 and the medians are
  further apart than the base's interquartile range;
* **worse** — the change's median is worse than the base's by more than
  the metric's bound, read as a fraction of the base's median;
* **unresolved** — neither, but the runs spread too widely to tell:
  either side's interquartile range exceeds the bound, and not every
  change run reads better than every base run;
* **within bound** — otherwise.

A change that fails a larger share of its checks than the base gains
nothing, and the exit status is then 1, as it is when a metric is worse.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: the standing claim rule: wins in at least this share of the pairs
GAIN_WINS = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    failed_more: bool = False,
) -> str:
    """The standing verdict on paired samples (``base[k]`` ran with
    ``change[k]``) of one metric: gain, worse, unresolved or within bound
    (see the module docstring).  ``better`` is ``"lower"`` or ``"higher"``;
    a change that fails a larger share of its checks (``failed_more``)
    gains nothing."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base sample per change sample, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - c) > 0: c better
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    if not failed_more and wins >= GAIN_WINS * len(base) and sign * (b2 - c2) > b3 - b1:
        return "gain"
    limit = bound * abs(b2)
    if sign * (c2 - b2) > limit:
        return "worse"
    if better == "lower":
        every_run_better = max(change) < min(base)
    else:
        every_run_better = min(change) > max(base)
    if max(b3 - b1, c3 - c1) > limit and not every_run_better:
        return "unresolved"
    return "within bound"


def _run(root: Path, workload: str, seed: int, seconds: int) -> Dict:
    """One untraced perfbench run in ``root``; its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def _report(bench: Dict, runs: Dict[str, List[Dict]]) -> bool:
    """Print the per-metric table; True when nothing is worse."""
    shares = {}
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        shares[side] = failed / attempted if attempted else 1.0
        print(f"checks failed, {side}: {failed}/{attempted}")
    failed_more = shares["change"] > shares["base"]
    print(f"{'metric':12s} {'unit':5s} {'base median [q1, q3]':>28s} "
          f"{'change median [q1, q3]':>28s}  wins ties  verdict")
    ok = not failed_more
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        ties = sum(b == c for b, c in zip(base, change))
        found = verdict(base, change, metric["better"], metric["bound"], failed_more)
        ok &= found != "worse"
        cells = []
        for values in (base, change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:12s} {metric['unit']:5s} {cells[0]:>28s} {cells[1]:>28s}  "
              f"{wins:>2d}/{len(base):<2d} {ties:>3d}  {found}")
    return ok


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", required=True,
                        help="git ref, or the path of a checkout on disk")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    scratch = None
    if Path(args.base).is_dir():
        base_root, label = Path(args.base).resolve(), args.base
    else:
        try:
            label = f"{args.base} ({_git('rev-parse', '--short', args.base)})"
        except subprocess.CalledProcessError:
            parser.error(f"--base {args.base!r} is neither a directory nor a git ref")
        scratch = Path(tempfile.mkdtemp(prefix="perfbench-pairs-"))
        base_root = scratch / "base"
    try:
        if scratch is not None:
            _git("worktree", "add", "--detach", str(base_root), args.base)
        print(f"perfbench pairs: {args.workload} seed {args.seed}, {args.pairs} "
              f"pairs; base {label}, change {ROOT}", flush=True)
        runs: Dict[str, List[Dict]] = {"base": [], "change": []}
        sides = {"base": base_root, "change": ROOT}
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(_run(sides[side], args.workload, args.seed,
                                       bench["run_seconds"]))
            cells = "; ".join(
                f"{name} base {runs['base'][-1]['metrics'][name]['value']:.4g}, "
                f"change {runs['change'][-1]['metrics'][name]['value']:.4g}"
                for name in ("wall_s", "peak_rss_mb")
            )
            print(f"pair {k + 1:2d} ({order[0]} first): {cells}", flush=True)
        return 0 if _report(bench, runs) else 1
    finally:
        if scratch is not None:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_root)],
                           cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            shutil.rmtree(scratch, ignore_errors=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
