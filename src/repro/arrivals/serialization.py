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
from pathlib import Path
from typing import Union

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
        "times": list(trace.times),
        "meta": meta or {},
    }


def trace_from_payload(payload: dict) -> ArrivalTrace:
    """Rebuild a trace from a :func:`trace_payload` dict.

    Validates the schema tag and the declared count, then re-runs the
    ArrivalTrace invariants (strictly increasing, inside the horizon).
    """
    if payload.get("schema") != _SCHEMA:
        raise ValueError(
            f"not an arrival-trace document (schema={payload.get('schema')!r})"
        )
    times = tuple(float(t) for t in payload["times"])
    if payload.get("count") != len(times):
        raise ValueError(
            f"corrupt trace: declared {payload.get('count')} times, "
            f"found {len(times)}"
        )
    return ArrivalTrace(times=times, horizon=float(payload["horizon"]))


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
