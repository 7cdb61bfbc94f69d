"""Peak-allocation guard on the continuous replay walk.

The walk runs its per-level arrays one cache-sized block of clients at a
time, so a call's transient memory is a few arrays per node, whatever
the forest's size.  The peak ``tracemalloc`` sees over the walk of a
dense 2.5x10^5-node dyadic forest (a hot title's shape: ~1.5x10^4
arrivals per root window) must stay within 80 B per node; with each
level's arrays spanning every client it was about 120.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.fastpath.dyadic import dyadic_flat_forest
from repro.fastpath.replay import replay_verify_forest_continuous

N = 250_000
L = 240


def test_continuous_walk_peak_per_node():
    ts = np.cumsum(np.random.default_rng(7).exponential(0.008, N))
    flat = dyadic_flat_forest(ts, L)
    tracemalloc.start()
    try:
        report = replay_verify_forest_continuous(flat, L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok, report.failures[:3]
    assert peak <= 80 * N, f"walk peak {peak / N:.1f} B per node"
