"""Workload generators and arrival traces for the MoD simulations."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ArrivalTrace": "traces",
    "bursty": "generators",
    "constant_rate": "generators",
    "every_slot": "generators",
    "load_trace": "serialization",
    "poisson": "generators",
    "rng_from": "generators",
    "save_trace": "serialization",
    "trace_from_json": "serialization",
    "trace_from_payload": "serialization",
    "trace_payload": "serialization",
    "trace_to_json": "serialization",
})
