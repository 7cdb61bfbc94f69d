"""Multi-object Media-on-Demand catalogs and workloads (the paper's
Section 5 future work): catalogs with Zipf popularity and per-object
request traces split from one global arrival process (a :class:`Workload`).
Serving a catalog and planning its channels live in :mod:`repro.fleet`."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "Catalog": "catalog",
    "MediaObject": "catalog",
    "Workload": "workload",
    "catalog_workload": "workload",
    "split_requests": "workload",
    "zipf_weights": "catalog",
})
