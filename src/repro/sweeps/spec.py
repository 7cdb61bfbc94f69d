"""Declarative parameter-sweep specifications.

Every figure and table of the paper is a *grid*: axes (delay, horizon,
intensity, tree size, ...) crossed into points, one evaluator applied per
point, a handful of named metrics out.  :class:`SweepSpec` captures that
shape declaratively so the engine (:mod:`repro.sweeps.engine`) can
enumerate, shard, cache and column-pack the evaluation — and so a new
scenario is a spec, not a new driver module.

An evaluator is a plain module-level function ``fn(**params) -> mapping``
called with the union of the spec's ``fixed`` parameters and one grid
point; it must return every name in ``metrics``.  Module-level functions
pickle by reference, which is what lets the engine ship points to worker
processes, and their dotted path is what anchors the content hash each
point is cached under.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

__all__ = ["Axis", "SweepSpec", "canonical_json"]


def _canonical(value):
    """Recursively normalise a parameter value for content hashing.

    Floats hash by their exact bit pattern (``float.hex``), so a cache
    key never aliases two different doubles; tuples and lists collapse to
    lists; numpy scalars collapse to their Python twins.  Anything else
    is rejected — specs whose parameters cannot be canonicalised must set
    ``cacheable=False``.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return float.hex(value)
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float.hex(float(value))
        if isinstance(value, np.bool_):
            return bool(value)
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(
        f"sweep parameter {value!r} of type {type(value).__name__} is not "
        "content-hashable; use JSON-like scalars/sequences or mark the "
        "spec cacheable=False"
    )


def canonical_json(value) -> str:
    """Deterministic JSON of a parameter structure (hashing substrate)."""
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Axis:
    """One named sweep dimension and its grid values."""

    name: str
    values: Tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ValueError("axis needs a name")
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")


AxesLike = Union[Sequence[Axis], Mapping[str, Sequence]]


@dataclass
class SweepSpec:
    """A grid of points, an evaluator, and the metrics it must produce.

    ``axes`` cross in declaration order (last axis fastest — row-major,
    matching the nested loops the drivers used to write).  ``fixed``
    parameters reach the evaluator on every point.  ``version`` is a
    manual cache-buster: bump it when the evaluator's semantics change
    without its dotted path changing.
    """

    name: str
    evaluator: Callable[..., Mapping[str, object]]
    axes: Tuple[Axis, ...]
    metrics: Tuple[str, ...]
    fixed: Dict[str, object] = field(default_factory=dict)
    version: str = "1"
    cacheable: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.axes, Mapping):
            self.axes = tuple(Axis(k, tuple(v)) for k, v in self.axes.items())
        else:
            self.axes = tuple(
                a if isinstance(a, Axis) else Axis(*a) for a in self.axes
            )
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        self.metrics = tuple(self.metrics)
        self.fixed = dict(self.fixed)
        names = [a.name for a in self.axes]
        clashes = set(names) & set(self.fixed)
        if len(set(names)) != len(names) or clashes:
            raise ValueError(
                f"axis names must be unique and disjoint from fixed params "
                f"(axes={names}, clashes={sorted(clashes)})"
            )

    # -- grid ----------------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def n_points(self) -> int:
        out = 1
        for a in self.axes:
            out *= len(a.values)
        return out

    def points(self) -> List[Dict[str, object]]:
        """Every grid point as a dict, row-major (last axis fastest)."""
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(a.values for a in self.axes))
        ]

    # -- hashing -------------------------------------------------------------

    @property
    def evaluator_id(self) -> str:
        return f"{self.evaluator.__module__}.{self.evaluator.__qualname__}"

    def point_key(self, point: Mapping[str, object]) -> str:
        """Content hash identifying one point's result artifact.

        Covers the evaluator identity, spec version, fixed parameters and
        the point itself — any change to any of them dirties the point;
        everything untouched stays warm in the artifact cache.
        """
        payload = {
            "sweep": self.name,
            "version": self.version,
            "evaluator": self.evaluator_id,
            "fixed": self.fixed,
            "point": dict(point),
            "metrics": list(self.metrics),
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        return digest
