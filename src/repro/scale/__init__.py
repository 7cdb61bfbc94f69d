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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ColumnarStore": "columnar",
    "ColumnarWriter": "columnar",
    "StoreError": "columnar",
    "StoreSlice": "columnar",
    "attach": "columnar",
    "detach": "columnar",
    "is_store": "columnar",
    "read_slice": "columnar",
    "store_slices": "columnar",
    "write_store": "columnar",
    "SortedTable": "kernels",
    "active_backend": "kernels",
    "bucket_slots": "kernels",
    "configure_backend": "kernels",
    "forest_z": "kernels",
    "replay_walk": "kernels",
})
