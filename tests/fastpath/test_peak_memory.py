"""Peak-allocation guards on a hot title's build and replay verification.

The dyadic build's member loop, the continuous replay walk and that
verifier's per-node checks run one block at a time, so a call's
transient memory is a few arrays per node, whatever the forest's size.
The peak ``tracemalloc`` sees over each call on a dense 2.5x10^5-node
dyadic forest (a hot title's shape: ~1.5x10^4 arrivals per root window)
must stay within a per-node bound:

* the build, outputs included: 36 B per node (43 with the one-object
  forest re-validated by the ``FlatForest`` constructor, 93 with the
  member loop over every window at once);
* the continuous verifier: 45 B per node (120 with each level's arrays
  spanning every client, 59 with node-sized tail and tightness arrays).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.fastpath.dyadic import dyadic_flat_forest
from repro.fastpath.replay import replay_verify_forest_continuous

N = 250_000
L = 240


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def hot_times():
    return np.cumsum(np.random.default_rng(7).exponential(0.008, N))


def test_dyadic_build_peak_per_node(hot_times):
    flat, peak = _traced_peak(lambda: dyadic_flat_forest(hot_times, L))
    assert len(flat) == N
    assert peak <= 36 * N, f"build peak {peak / N:.1f} B per node"


def test_continuous_walk_peak_per_node(hot_times):
    flat = dyadic_flat_forest(hot_times, L)
    report, peak = _traced_peak(lambda: replay_verify_forest_continuous(flat, L))
    assert report.ok, report.failures[:3]
    assert peak <= 45 * N, f"walk peak {peak / N:.1f} B per node"

