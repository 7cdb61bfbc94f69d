"""Shared helpers for the benchmark harness.

Every bench times a fast path against its reference implementation and
asserts their outputs equal in-run, so a regression in *correctness*
fails the bench, not just a slowdown.

Run the smoke sizes of every ``bench_*.py`` with:  make bench-smoke
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

#: repo root — machine-readable benchmark trajectories live here as
#: ``BENCH_<name>.json`` so successive PRs can compare timings.
REPO_ROOT = Path(__file__).resolve().parents[1]


def write_bench_json(name: str, payload: Dict) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    ``payload`` should carry a ``schema`` key and a ``benchmarks`` list of
    per-case dicts (name, n, reference_seconds, fast_seconds, speedup) so
    downstream tooling can diff trajectories across PRs.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def timeit_best(fn, repeats: int = 3):
    """``(best_seconds, last_result)`` over ``repeats`` runs of ``fn()``."""
    import time

    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result

