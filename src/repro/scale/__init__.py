"""repro.scale — out-of-core columnar storage + backend-selected kernels.

The 10^7-client tier (ROADMAP item 1) in two halves:

* :mod:`repro.scale.columnar` — a chunked, memory-mapped columnar
  arrival store (one float64 segment + offsets index) that workers
  attach once and read as zero-copy views — the out-of-core route for
  store-backed fleet runs;
* :mod:`repro.scale.kernels` — numba-JIT versions (optional dependency;
  numpy fallback auto-selected and contract-tested equal) of the three
  hot kernels that remained pure-numpy-bound: slot bucketing +
  flat-forest construction, the per-tree-level replay algebra, and the
  Knuth window scan.
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
    HAVE_NUMBA,
    active_backend,
    bucket_slots,
    configure_backend,
    forest_z,
    knuth_tables,
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
    "HAVE_NUMBA",
    "active_backend",
    "bucket_slots",
    "configure_backend",
    "forest_z",
    "knuth_tables",
    "replay_walk",
]
