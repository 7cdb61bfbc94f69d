"""End-to-end benchmark of the repository's user-facing pipelines.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload live-week --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

Workloads, metrics and bounds are in ``BENCHMARK.json``; parameters, seed
use, the layer each per-layer metric belongs to and what is out of scope
are in ``perfbench/spec.json``.  Each pass runs in a fresh interpreter
(``perfbench/child.py``), so process-wide memos start cold.  A run repeats
passes (at least two) until the next would overrun ``--seconds``.  Times
are scaled to a reference machine speed by probes taken between the
benchmark's calls into the program (see ``tracer.speed_probe``), and
``wall_s`` takes each call's median over the passes (``scaled_wall``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from traced passes (alternated with untraced ones, whose difference
is ``trace_overhead_s``).  The last line of standard output is the JSON
result; run artefacts (result.json, the per-layer table and, when traced,
a Chrome trace-event file for Perfetto) go to ``.perfbench-runs/``.
``--selftest`` spoils one output per workload and exits non-zero unless
every spoiled run is reported as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
RUNS_DIR = ".perfbench-runs"
SETUP_PROBES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _source_identity(root: Path) -> Dict[str, str]:
    """The commit when the checkout is a git repository, and a digest of
    ``src/`` either way (a benchmark checkout carries no git metadata)."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


class Run:
    """Passes of one workload at one seed, each in a fresh interpreter."""

    def __init__(self, root: Path, workload: str, seed: int, tag: str, tamper: bool = False):
        self.root, self.workload, self.seed, self.tamper = root, workload, seed, tamper
        self.dir = root / RUNS_DIR / f"{workload}-seed{seed}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.cache_existed = (root / ".sweep-cache").exists()
        self.passes: List[dict] = []
        self.setup_s: List[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str, trace_file: Optional[Path] = None) -> dict:
        out = self.tmp / f"{mode}-{len(self.passes)}-{len(self.setup_s)}.json"
        spawned = time.monotonic()
        cmd = [
            sys.executable, str(CHILD), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--tmp", str(self.tmp),
            "--out", str(out), "--spawned-at", repr(spawned),
        ]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        if self.tamper:
            cmd.append("--tamper")
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} pass timed out after {timeout:.0f}s"}
        if proc.returncode != 0 or not out.is_file():
            return {"error": f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}"}
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def probe_setup(self) -> None:
        result = self.child("setup")
        if "error" in result:
            raise RuntimeError(result["error"])
        self.setup_s.append(result["setup_s"])

    def run_pass(self, mode: str, trace_file: Optional[Path] = None) -> bool:
        """One timed pass; returns False when the pass itself broke."""
        result = self.child(mode, trace_file)
        result["mode"] = mode
        if "error" in result:
            print(f"perfbench: {result['error']}", file=sys.stderr)
            result["checks"] = [{"name": "pass.completed", "ok": False,
                                 "detail": result["error"][:300]}]
        else:
            self.setup_s.append(result["setup_s"])
        # No pass may leave state for the next one: spools gone, no cache.
        spool = self.tmp / "spool"
        left = sorted(os.listdir(spool)) if spool.is_dir() else []
        cache = not self.cache_existed and (self.root / ".sweep-cache").exists()
        result["checks"].append({
            "name": "state.clean", "ok": not left and not cache,
            "detail": f"spool entries {left[:3]}, sweep cache created: {cache}",
        })
        shutil.rmtree(spool, ignore_errors=True)
        self.passes.append(result)
        return "error" not in result

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def scaled_wall(passes: List[dict]) -> float:
    """Timed-path wall time at reference speed, call by call across passes.

    Every pass makes the same calls on the same inputs, and each call's
    time is already scaled by the speed probes around it
    (``tracer.Stages``).  The probes weigh interpreter, cache and memory
    work in one fixed mix, so a call's scaled time still errs either way
    by up to about 15%; the median of each call over the passes, summed
    with the median glue between calls, keeps that error out.  Over ten
    seeds this held the spread of wall_s to 4-5% where the median pass
    before scaling spread 8-16%.
    """
    if not passes:
        return 0.0
    total = 0.0
    for name in {n for p in passes for n in p["stages"]}:
        calls = [p["stages"].get(name, []) for p in passes]
        if len({len(c) for c in calls}) == 1:
            total += sum(statistics.median(times) for times in zip(*calls))
        else:  # passes disagree on the call count: take the median total
            total += statistics.median(sum(c) for c in calls)
    return total + statistics.median(p["glue_s"] for p in passes)


def measure(run: Run, seconds: int, traced: bool) -> None:
    """Set-up probes, then passes until the next would overrun ``seconds``."""
    if run.workload == "live-week":
        feed = run.child("feed")
        if "error" in feed:
            raise RuntimeError(feed["error"])
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    while True:
        t0 = time.monotonic()
        ok = run.run_pass("untraced")
        if ok and traced:
            ok = run.run_pass("traced", run.dir / "trace.json")
        unit = time.monotonic() - t0
        # scaled_wall wants two untraced passes; a traced run reports
        # per-layer figures, for which one pass of each kind will do.
        enough = traced or sum(p["mode"] == "untraced" for p in run.passes) >= MIN_PASSES
        if not ok or run.elapsed() + unit > RUN_LIMIT_S - 5:
            return
        if enough and run.elapsed() + unit > seconds:
            return


def summarise(run: Run, bench: dict, traced: bool) -> dict:
    checks = [c for p in run.passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    good = [p for p in run.passes if "wall_s" in p and all(c["ok"] for c in p["checks"])]
    timed = good or [p for p in run.passes if "wall_s" in p]
    untraced = [p for p in timed if p["mode"] == "untraced"]
    traced_passes = [p for p in timed if p["mode"] == "traced"]
    e2e = {
        "setup_s": _median(run.setup_s),
        "wall_s": scaled_wall(untraced),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
    }
    extras = {
        name: _median([p["extras"][name] for p in untraced if name in p.get("extras", {})])
        for name in sorted({n for p in untraced for n in p.get("extras", {})})
    }
    layers: Dict[str, float] = {}
    if traced:
        names = sorted({n for p in traced_passes for n in p.get("layers", {})})
        layers = {n: _median([p["layers"].get(n, 0.0) for p in traced_passes]) for n in names}
        layers.update(extras)
        layers["trace_overhead_s"] = scaled_wall(traced_passes) - e2e["wall_s"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    values = layers if traced else e2e
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
    env = dict(run.passes[0].get("env", {}) if run.passes else {})
    env.update(_source_identity(run.root), cpu_count=os.cpu_count(),
               platform=platform.platform())
    return {
        "workload": run.workload, "seed": run.seed, "traced": traced, "env": env,
        "passes": {"untraced": len(untraced), "traced": len(traced_passes),
                   "setup_samples": len(run.setup_s)},
        "end_to_end": e2e, "live": extras, "layers": layers,
        "raw_wall_s": _median([p["raw_wall_s"] for p in untraced]),
        "speed": _median([p["speed"] for p in untraced]),
        "pass_times": [
            {k: p[k] for k in ("mode", "wall_s", "raw_wall_s", "speed", "stages",
                               "glue_s", "peak_rss_mb")}
            for p in run.passes if "wall_s" in p
        ],
        "failed_checks": failed,
        "result": {
            "correct": not failed,
            "attempted": len(checks),
            "failed": len(failed),
            "metrics": {
                m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in wanted
            },
        },
    }


def _layer_table(summary: dict, spec: dict, units: Dict[str, str]) -> str:
    rows = ["layer metric                               value  unit   should move / most work / little work"]
    for group in spec["per_layer"]:
        for pattern in group["metrics"]:
            names = [pattern] if "*" not in pattern else sorted(
                n for n in summary["layers"] if n.startswith("experiments.")
                and n.endswith(".wall_s")
            )
            for name in names:
                value = summary["layers"].get(name, 0.0)
                rows.append(
                    f"{name:40s} {value:>12.5g}  {units.get(name, ''):5s}  "
                    f"{','.join(group['moves']) or '-'} / {','.join(group['most'])}"
                    f" / {','.join(group['least']) or '-'}"
                )
    return "\n".join(rows)


def report(summary: dict, spec: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    p = summary["passes"]
    print(f"perfbench {summary['workload']} seed={summary['seed']} "
          f"passes: {p['untraced']} untraced, {p['traced']} traced; "
          f"{p['setup_samples']} set-up samples")
    print("env: " + json.dumps(summary["env"], sort_keys=True))
    for name, value in summary["end_to_end"].items():
        print(f"  {name:16s} {value:12.6g} {units[name]}")
    print(f"  {'':16s} (median pass before scaling {summary['raw_wall_s']:.4g} s; "
          f"the speed probe ran {summary['speed']:.2f}x its reference time)")
    result = summary["result"]
    print(f"  {'failed_ratio':16s} {result['failed']}/{result['attempted']} checks")
    for name, value in summary["live"].items():
        print(f"  {name:16s} {value:12.6g} {units.get(name, '')}")
    for check in summary["failed_checks"][:10]:
        print(f"  FAILED {check['name']}: {check['detail'][:300]}")
    if summary["traced"]:
        table = _layer_table(summary, spec, units)
        print(table)
        (Path(summary["dir"]) / "layers.txt").write_text(table + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="spoil one output per workload; fail unless each "
                        "spoiled run is reported as failed")
    args = parser.parse_args()

    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: run from the repository root (need src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.selftest:
        return selftest(root, [args.workload] if args.workload else names, args.seed)
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    run = Run(root, args.workload, args.seed, f"trace{args.trace}")
    try:
        measure(run, args.seconds, traced)
        summary = summarise(run, bench, traced)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    summary["dir"] = str(run.dir)
    (run.dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    report(summary, spec, bench)
    print(json.dumps(summary["result"]))
    return 0


def selftest(root: Path, workloads: List[str], seed: int) -> int:
    """One spoiled pass per workload; each must be reported as failed."""
    missed = []
    for workload in workloads:
        run = Run(root, workload, seed, "selftest", tamper=True)
        try:
            if workload == "live-week":
                run.child("feed")
            run.run_pass("untraced")
        finally:
            run.close()
        failed = [c["name"] for p in run.passes for c in p["checks"] if not c["ok"]]
        print(f"selftest {workload}: spoiled output "
              f"{'caught by ' + ', '.join(failed) if failed else 'NOT CAUGHT'}")
        if not failed or "pass.completed" in failed:
            missed.append(workload)
    print(json.dumps({"selftest": "ok" if not missed else "failed", "missed": missed}))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
