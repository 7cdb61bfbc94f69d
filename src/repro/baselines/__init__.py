"""Baseline / comparator algorithms: dyadic merging, batching, unicast,
patching."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "DyadicOnline": "dyadic",
    "DyadicParams": "dyadic",
    "PatchingResult": "patching",
    "batched_dyadic_cost": "batching",
    "batched_dyadic_forest": "batching",
    "dyadic_cost": "dyadic",
    "dyadic_forest": "dyadic",
    "dyadic_interval_index": "dyadic",
    "dyadic_tree": "dyadic",
    "paper_beta": "dyadic",
    "patching_cost": "patching",
    "pure_batching_cost": "batching",
    "recommended_window": "patching",
    "unicast_cost": "unicast",
})
