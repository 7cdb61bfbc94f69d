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
  :class:`~repro.fastpath.incremental.IncrementalFlatForest`, the open
  dyadic windows behind ``repro.live``: catalog-wide epoch batches that
  each tree is built from once, when it commits, node-for-node equal to
  the batch construction on every prefix;
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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "merge_cost": "cost_tables",
    "merge_cost_table": "cost_tables",
    "receive_all_cost": "cost_tables",
    "receive_all_cost_table": "cost_tables",
    "reset_cost_caches": "cost_tables",
    "general_arrivals_cost": "general",
    "general_merge_tables": "general",
    "optimal_flat_forest_general": "general",
    "optimal_flat_tree_general": "general",
    "FlatForest": "flat_forest",
    "CommittedTrees": "incremental",
    "IncrementalFlatForest": "incremental",
    "dyadic_flat_forest": "dyadic",
    "replay_verify_forest": "replay",
    "replay_verify_forest_continuous": "replay",
})
