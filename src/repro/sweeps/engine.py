"""The sweep engine: enumerate, cache-check, shard, evaluate, column-pack.

``run_sweep`` drives a :class:`~repro.sweeps.spec.SweepSpec` end to end:

1. enumerate the grid (row-major, last axis fastest);
2. look every point up in the artifact cache (content hash over
   evaluator + fixed params + point) — only *dirty* points evaluate;
3. fan dirty points over worker processes through the fleet tier's
   :func:`~repro.fleet.runner.pool_map` (same pool/fold machinery the
   catalog runner uses; results fold back in point order, so output is
   independent of the worker count);
4. pack results into a columnar :class:`SweepResult` — one numpy array
   per axis and per metric.

Process-wide defaults for ``workers`` and ``cache`` are set by the CLI
(:func:`configure_sweeps`); library callers can always pass explicit
values (``cache=False`` force-disables even a configured default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..fleet.runner import pool_map
from ..scale.kernels import active_backend
from .cache import SweepCache
from .spec import SweepSpec

__all__ = [
    "SweepResult",
    "run_sweep",
    "configure_sweeps",
    "sweep_defaults",
]

_DEFAULTS: Dict[str, object] = {"workers": 0, "cache": None}


def configure_sweeps(
    workers: Optional[int] = None,
    cache: Union[SweepCache, str, None, bool] = None,
) -> None:
    """Set process-wide sweep defaults (the CLI's ``--workers/--cache``)."""
    if workers is not None:
        _DEFAULTS["workers"] = int(workers)
    if cache is not None:
        _DEFAULTS["cache"] = _normalise_cache(cache)


def sweep_defaults() -> Dict[str, object]:
    return dict(_DEFAULTS)


def _normalise_cache(cache) -> Optional[SweepCache]:
    if cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        return SweepCache(cache)
    return cache


def _column(values: Sequence) -> np.ndarray:
    """Pack one column, preserving Python value types exactly.

    All-int -> int64, all-float -> float64, all-bool -> bool; anything
    mixed or non-numeric stays an object array so ``rows()`` hands back
    the very objects the evaluator produced (no silent int->float
    coercion corrupting golden tables).
    """
    types = {type(v) for v in values}
    if types <= {bool}:
        return np.array(values, dtype=bool)
    if types <= {int}:
        return np.array(values, dtype=np.int64)
    if types <= {float}:
        return np.array(values, dtype=np.float64)
    out = np.empty(len(values), dtype=object)
    out[:] = list(values)
    return out


@dataclass
class SweepResult:
    """Columnar result table: one array per axis and per metric."""

    spec: SweepSpec
    columns: Dict[str, np.ndarray]
    cache_hits: int = 0
    cache_misses: int = 0
    evaluated: int = 0
    #: kernel backend of the process that ran the sweep ("numpy" or
    #: "numba").  Informational: both backends are contract-tested
    #: bit-identical, which is also why cache keys ignore it — cached
    #: artifacts are backend-portable by construction.
    backend: str = "numpy"

    @property
    def n_points(self) -> int:
        return self.spec.n_points

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def values(self, name: str) -> List:
        """One column as Python scalars (numpy types collapsed)."""
        return self.columns[name].tolist()

    def rows(self, *names: str) -> List[Tuple]:
        """Point-order tuples over the requested columns (all by default)."""
        use = names or tuple(self.columns)
        cols = [self.values(n) for n in use]
        return list(zip(*cols))

    def records(self) -> List[Dict[str, object]]:
        names = list(self.columns)
        return [dict(zip(names, row)) for row in self.rows(*names)]

    def columns_json(self) -> Dict[str, object]:
        """Columnar JSON payload (the ``--save`` twin of the text table)."""
        return {
            "sweep": self.spec.name,
            "n_points": self.n_points,
            "axes": list(self.spec.axis_names),
            "metrics": list(self.spec.metrics),
            "backend": self.backend,
            "columns": {name: self.values(name) for name in self.columns},
        }


def _eval_point(args) -> Dict[str, object]:
    """Worker entry: apply the evaluator to fixed params + one point."""
    evaluator, params = args
    return dict(evaluator(**params))


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Union[SweepCache, str, None, bool] = None,
    seed=None,
) -> SweepResult:
    """Evaluate a sweep spec into a columnar result table.

    ``workers``/``cache`` default to the process-wide configuration
    (:func:`configure_sweeps`); ``cache=False`` disables caching for this
    run regardless.  ``seed`` feeds the per-point ``SeedSequence`` spawn
    when ``spec.spawn_seeds`` — spawned points cache only under an
    explicit seed (entropy-seeded draws are not reproducible artifacts).
    """
    workers = int(_DEFAULTS["workers"]) if workers is None else int(workers)
    cache = _DEFAULTS["cache"] if cache is None else _normalise_cache(cache)
    if not spec.cacheable:
        cache = None

    points = spec.points()
    params: List[Dict[str, object]] = [dict(spec.fixed, **p) for p in points]
    keys: List[Optional[str]] = [None] * len(points)
    if spec.spawn_seeds:
        children = np.random.SeedSequence(seed).spawn(len(points))
        for i, (prm, child) in enumerate(zip(params, children)):
            prm["seed_seq"] = child
        if cache is not None and seed is not None:
            keys = [
                spec.point_key(p, extra={"base_seed": seed, "index": i})
                for i, p in enumerate(points)
            ]
    elif cache is not None:
        keys = [spec.point_key(p) for p in points]

    results: List[Optional[Dict[str, object]]] = [None] * len(points)
    hits = misses = 0
    if cache is not None:
        for i, key in enumerate(keys):
            if key is None:
                continue
            got = cache.get(key, spec.metrics)
            if got is None:
                misses += 1
            else:
                hits += 1
                results[i] = got

    dirty = [i for i, r in enumerate(results) if r is None]
    args = [(spec.evaluator, params[i]) for i in dirty]
    for i, metrics in zip(dirty, pool_map(_eval_point, args, workers=workers)):
        missing = set(spec.metrics) - set(metrics)
        if missing:
            raise KeyError(
                f"evaluator {spec.evaluator_id} returned no "
                f"{sorted(missing)} for point {points[i]}"
            )
        results[i] = metrics
        if cache is not None and keys[i] is not None:
            cache.put(keys[i], metrics)

    columns: Dict[str, np.ndarray] = {}
    for axis in spec.axes:
        columns[axis.name] = _column([p[axis.name] for p in points])
    for metric in spec.metrics:
        columns[metric] = _column([r[metric] for r in results])
    return SweepResult(
        spec=spec,
        columns=columns,
        cache_hits=hits,
        cache_misses=misses,
        evaluated=len(dirty),
        backend=active_backend(),
    )
