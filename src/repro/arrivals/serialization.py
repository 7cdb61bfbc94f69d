"""Trace serialization: save/load workloads for reproducible experiments.

Experiments that compare policies must run them on *identical* traces;
persisting the trace (rather than the seed) also survives RNG-algorithm
changes across numpy versions.  Format: a small JSON envelope with a
schema version, the horizon, and the times array.

The payload-level helpers (:func:`trace_payload` /
:func:`trace_from_payload`) expose the envelope as a plain dict so
composite documents — one envelope per catalog object, say — can nest
traces without double-encoding JSON strings.  Both directions run the full validation (schema tag, declared
count, ArrivalTrace invariants), so a partial trace cut mid-horizon, a
zero-arrival object, or a single-client object round-trips exactly or
fails loudly (``tests/arrivals/test_serialization.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .traces import ArrivalTrace

__all__ = [
    "trace_payload",
    "trace_from_payload",
    "trace_to_json",
    "trace_from_json",
    "save_trace",
    "load_trace",
]

_SCHEMA = "repro.arrival-trace.v1"


def trace_payload(trace: ArrivalTrace, meta: Union[dict, None] = None) -> dict:
    """The serialisable envelope of a trace, as a plain dict."""
    return {
        "schema": _SCHEMA,
        "horizon": trace.horizon,
        "count": len(trace),
        "times": trace.times.tolist(),
        "meta": meta or {},
    }


def _is_number(value) -> bool:
    # bool is an int subclass, but ``true`` is not a time
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def trace_from_payload(payload: dict) -> ArrivalTrace:
    """Rebuild a trace from a :func:`trace_payload` dict.

    Validates the schema tag, the field types and the declared count,
    then re-runs the ArrivalTrace invariants (finite, strictly
    increasing, inside the horizon).  Any malformed payload raises a
    ``ValueError`` naming the offending field.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"trace payload must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("schema") != _SCHEMA:
        raise ValueError(
            f"not an arrival-trace document (schema={payload.get('schema')!r})"
        )
    horizon = payload.get("horizon")
    try:
        h = float(horizon) if _is_number(horizon) else math.nan
    except OverflowError:  # an integer literal past the float range
        h = math.inf
    if not (math.isfinite(h) and h > 0):
        raise ValueError(
            f"trace field 'horizon' must be a positive finite number, got {horizon!r}"
        )
    times = payload.get("times")
    if not isinstance(times, list) or not all(_is_number(t) for t in times):
        raise ValueError("trace field 'times' must be a list of numbers")
    count = payload.get("count")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"trace field 'count' must be an integer, got {count!r}")
    if count != len(times):
        raise ValueError(
            f"corrupt trace: declared {count} times, found {len(times)}"
        )
    try:
        ts = np.array(times, dtype=np.float64)
    except OverflowError:
        raise ValueError("trace field 'times' holds a number out of float range") from None
    try:
        return ArrivalTrace(times=ts, horizon=h)
    except ValueError as exc:
        raise ValueError(f"trace field 'times': {exc}") from None


def trace_to_json(trace: ArrivalTrace, meta: Union[dict, None] = None) -> str:
    """Serialise a trace (and optional metadata) to a JSON string."""
    return json.dumps(trace_payload(trace, meta))


def trace_from_json(text: str) -> ArrivalTrace:
    """Parse a trace serialised by :func:`trace_to_json`."""
    return trace_from_payload(json.loads(text))


def save_trace(trace: ArrivalTrace, path: Union[str, Path], meta: Union[dict, None] = None) -> None:
    """Write a trace to ``path`` as JSON."""
    Path(path).write_text(trace_to_json(trace, meta))


def load_trace(path: Union[str, Path]) -> ArrivalTrace:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_json(Path(path).read_text())
