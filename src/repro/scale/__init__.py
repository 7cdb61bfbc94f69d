"""repro.scale — out-of-core columnar storage + hot-loop kernels.

The 10^7-client tier (ROADMAP item 1) in two halves:

* :mod:`repro.scale.columnar` — a chunked, memory-mapped columnar
  arrival store (one float64 segment + offsets index) that workers
  attach once and read as zero-copy views — the out-of-core route for
  store-backed fleet runs;
* :mod:`repro.scale.kernels` — the numpy hot loops of the fleet engine
  and the replay verifiers: the sorted-table lookup, slot bucketing, the
  flat-forest subtree maxima, the replay demand walk and the hybrid
  hysteresis scan.
"""

from .columnar import (
    ColumnarStore,
    ColumnarWriter,
    StoreError,
    StoreSlice,
    attach,
    detach,
    is_store,
    read_slice,
    store_slices,
    write_store,
)
from .kernels import (
    SortedTable,
    active_backend,
    bucket_slots,
    configure_backend,
    forest_z,
    replay_walk,
)

__all__ = [
    "ColumnarStore",
    "ColumnarWriter",
    "StoreError",
    "StoreSlice",
    "attach",
    "detach",
    "is_store",
    "read_slice",
    "store_slices",
    "write_store",
    "SortedTable",
    "active_backend",
    "bucket_slots",
    "configure_backend",
    "forest_z",
    "replay_walk",
]
