"""Multi-object Media-on-Demand catalogs and workloads (the paper's
Section 5 future work): catalogs with Zipf popularity and per-object
request traces split from one global arrival process.  Serving a
catalog and planning its channels live in :mod:`repro.fleet`."""

from .catalog import Catalog, MediaObject, zipf_weights
from .workload import catalog_workload, split_requests

__all__ = [
    "Catalog",
    "MediaObject",
    "catalog_workload",
    "split_requests",
    "zipf_weights",
]
