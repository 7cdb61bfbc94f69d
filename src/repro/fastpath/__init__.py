"""Fast-path layer: optimized equivalents of the reference algorithms.

Everything in this package computes *exactly* the same values as the
reference implementations in :mod:`repro.core` — the O(n^2)/O(n^3) DPs in
:mod:`repro.core.dp` and the pointer-based trees in
:mod:`repro.core.merge_tree` stay behind as correctness oracles (see
``tests/fastpath/``) — but does so at production scale:

* :mod:`repro.fastpath.cost_tables` — incremental, module-level memoized
  merge-cost tables filled in O(1) per entry via the Theorem 7 monotone
  split recurrence (receive-two) and the half-split characterisation
  below Eq. (20) (receive-all);
* :mod:`repro.fastpath.general` — the full general-arrivals solution with
  the Knuth/quadrangle-inequality speed-up, O(n^3) -> O(n^2): cost-only
  (:func:`~repro.fastpath.general.general_arrivals_cost`), the DP tables
  themselves, and the span-constrained optimal forest reconstructed
  directly into flat parent arrays
  (:func:`~repro.fastpath.general.optimal_flat_forest_general`);
* :mod:`repro.fastpath.flat_forest` — :class:`FlatForest`, a flat
  numpy-backed merge-forest representation with vectorised ``Mcost`` /
  ``Fcost`` / stream-length / interval evaluation and lossless round-trip
  conversion to/from :class:`~repro.core.merge_tree.MergeForest`;
* :mod:`repro.fastpath.dyadic` — the vectorised batch (alpha, beta)-dyadic
  builder :func:`~repro.fastpath.dyadic.dyadic_flat_forest`, with the
  recursive ``MergeNode`` construction of ``baselines.dyadic`` as oracle;
* :mod:`repro.fastpath.incremental` —
  :class:`~repro.fastpath.incremental.IncrementalFlatForest`, the one
  flat dyadic stack machine (``DyadicOnline`` is its oracle), behind the
  dyadic simulation policies and ``repro.live``: append-arrival /
  extend-stream / evict-completed-tree in amortised O(log n), vectorised
  epoch ingest, node-for-node equal to the batch construction on every
  prefix;
* :mod:`repro.fastpath.replay` — batched replay verification of whole
  merge forests (Section 2 receiving programs, Lemma 1/17 tightness,
  Lemma 15 buffer peaks) as per-level vectorised interval algebra,
  report-identical to the per-client walks kept in
  ``simulation.verify`` as ``verify_forest*_reference``.

Benchmarks comparing old vs. new paths live in
``benchmarks/bench_fastpath.py`` / ``bench_general.py`` / ``bench_sim.py``
and emit ``BENCH_fastpath.json`` / ``BENCH_general.json`` /
``BENCH_sim.json``.
"""

from .cost_tables import (
    merge_cost,
    merge_cost_table,
    receive_all_cost,
    receive_all_cost_table,
    reset_cost_caches,
)
from .general import (
    general_arrivals_cost,
    general_merge_tables,
    optimal_flat_forest_general,
    optimal_flat_tree_general,
)
from .flat_forest import FlatForest
from .dyadic import dyadic_flat_forest
from .incremental import CommittedTree, IncrementalFlatForest
from .replay import replay_verify_forest, replay_verify_forest_continuous

__all__ = [
    "merge_cost",
    "merge_cost_table",
    "receive_all_cost",
    "receive_all_cost_table",
    "reset_cost_caches",
    "general_arrivals_cost",
    "general_merge_tables",
    "optimal_flat_forest_general",
    "optimal_flat_tree_general",
    "FlatForest",
    "CommittedTree",
    "IncrementalFlatForest",
    "dyadic_flat_forest",
    "replay_verify_forest",
    "replay_verify_forest_continuous",
]
