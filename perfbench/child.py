"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Modes: ``setup`` stops once the workload is ready (a set-up probe);
``feed`` writes live-week's arrival feed; ``untraced`` and ``traced`` run
the timed path and check its outputs.  The pass writes one JSON result to
``--out``; ``setup_s`` runs from ``--spawned-at`` (the parent's
``time.monotonic()`` just before it started this process) to ready.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import PROBE_REF_S, StageTimer, Tracer, speed_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _layers(tracer: Tracer, raw_wall_s: float) -> dict:
    """Per-layer metrics of a traced pass: span totals, self times, counts."""
    inc, own = tracer.inclusive, tracer.self_time
    layers = {f"{name}_s": seconds for name, seconds in inc.items()}
    layers.update(tracer.counts)
    layers["fleet.runner.self_s"] = own.get("fleet.runner.run", 0.0)
    layers["fleet.engine.self_s"] = own.get("fleet.engine.simulate", 0.0)
    layers["live.daemon.self_s"] = own.get("live.daemon.step", 0.0)
    layers["burnin.contracts.summary_s"] = (
        inc.get("burnin.contracts.summary", 0.0) - inc.get("burnin.contracts.replay", 0.0)
    )
    for name in list(layers):
        if name.startswith("experiments.") and name != "experiments.render_s":
            layers[name[: -len("_s")] + ".wall_s"] = layers.pop(name)
    layers["unattributed_s"] = raw_wall_s - sum(e - s for _, s, e in tracer.calls)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "feed", "untraced", "traced"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    w = WORKLOADS[args.workload](args.workload, args.seed, args.tmp, args.tamper)
    result = {}
    if args.mode == "feed":
        w.make_feed()
    else:
        w.setup()
        setup_s = time.monotonic() - args.spawned_at
        result["setup_s"] = setup_s * PROBE_REF_S / speed_probe()
    if args.mode in ("untraced", "traced"):
        import numpy
        from repro.scale.kernels import active_backend

        w.prepare()
        traced = args.mode == "traced"
        tr = Tracer() if traced else StageTimer()
        if traced:
            w.patch(tr)
        t0 = time.perf_counter()
        out = w.timed(tr)
        tr.probe()  # the last stage's after-probe
        window_s = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stages, glue_s = tr.calibrated(window_s)
        raw_wall_s = window_s - tr.probe_time()
        if traced:
            tr.unwrap()
        checks = []
        try:
            checks = w.check(out)
        except Exception:  # a crashing check is a failed check, with its cause
            checks.append(("checks.completed", False, traceback.format_exc(limit=4)))
        if traced:
            w.counts(out, tr)
            result["layers"] = layers = _layers(tr, raw_wall_s)
            if "sweeps.points" in layers:  # the sweep cache stayed cold
                checks.append(("sweeps.cache-hits-zero", layers.get("sweeps.cache_hits", 0) == 0,
                               f"{layers.get('sweeps.cache_hits')} cache hits"))
        result.update(
            wall_s=sum(map(sum, stages.values())) + glue_s,
            raw_wall_s=raw_wall_s,
            stages=stages,
            glue_s=glue_s,
            speed=statistics.median(p for _, _, p in tr.probes) / PROBE_REF_S,
            peak_rss_mb=peak_kb / 1024.0,
            checks=[{"name": n, "ok": bool(ok), "detail": "" if ok else d}
                    for n, ok, d in checks],
            extras=w.extras(out) if hasattr(w, "extras") else {},
            env={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "backend": active_backend(),
            },
        )
        if traced and args.trace_file:
            tr.write_chrome_trace(
                args.trace_file,
                {"workload": args.workload, "seed": args.seed, "wall_s": raw_wall_s},
            )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
