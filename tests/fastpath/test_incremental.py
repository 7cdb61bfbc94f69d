"""IncrementalFlatForest: prefix equivalence, eviction, watermark safety.

The incremental forest must be indistinguishable from the batch
construction at every moment: concatenating its committed trees with the
live remainder reproduces ``dyadic_flat_forest`` of the full prefix node
for node (parents *and* z), whether arrivals came through scalar ``push``
or vectorised ``push_batch``, and however eviction interleaved.
"""

import math

import numpy as np
import pytest

from repro.baselines.dyadic import PHI, DyadicParams
from repro.fastpath import (
    FlatForest,
    IncrementalFlatForest,
    dyadic_flat_forest,
)

L = 120.0
PARAMS = [
    DyadicParams(alpha=PHI, beta=0.5),
    DyadicParams(alpha=2.0, beta=1.0),
]


def _poisson_trace(n, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.exponential(scale, size=n))
    return np.unique(ts)


def _edge_trace(params):
    """Arrivals on and around dyadic interval edges (adversarial grid)."""
    window = params.window(L)
    eps = window * 1e-9  # near the edges, above the resolution guard
    base = [0.0]
    for i in range(1, 6):
        edge = window * params.alpha ** (-i)
        for t in (edge, edge - eps, edge + eps):
            base.append(t)
    base.append(window)  # exactly on the cutoff: still inside
    base.append(np.nextafter(window, math.inf))  # first out: new root
    base.append(window * 2.5)
    return np.unique(np.asarray(base, dtype=np.float64))


def _materialise(inc, committed):
    """Committed trees + live remainder as one global FlatForest."""
    chunks = [c.forest for c in committed]
    live = inc.live_forest()
    if live is not None:
        chunks.append(live)
    assert chunks, "nothing pushed yet"
    arrivals = np.concatenate([c.arrivals for c in chunks])
    parents = []
    base = 0
    for c in chunks:
        p = c.parent.copy()
        p[p >= 0] += base
        parents.append(p)
        base += len(c)
    z = np.concatenate([c.z for c in chunks])
    return FlatForest(arrivals, np.concatenate(parents), z=z)


def _assert_identical(flat_a, flat_b):
    np.testing.assert_array_equal(flat_a.arrivals, flat_b.arrivals)
    np.testing.assert_array_equal(flat_a.parent, flat_b.parent)
    np.testing.assert_array_equal(flat_a.z, flat_b.z)


@pytest.mark.parametrize("params", PARAMS)
def test_push_matches_batch_on_every_prefix(params):
    ts = _poisson_trace(300, seed=1)
    inc = IncrementalFlatForest(L, params)
    committed = []
    for k, t in enumerate(ts, start=1):
        inc.push(float(t))
        got = _materialise(inc, committed)
        want = dyadic_flat_forest(ts[:k], L, params)
        _assert_identical(got, want)


@pytest.mark.parametrize("params", PARAMS)
def test_edge_grid_prefixes(params):
    ts = _edge_trace(params)
    inc = IncrementalFlatForest(L, params)
    for k, t in enumerate(ts, start=1):
        inc.push(float(t))
        _assert_identical(_materialise(inc, []), dyadic_flat_forest(ts[:k], L, params))


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("batch", [1, 3, 17, 64])
def test_push_batch_equals_scalar_push(params, batch):
    ts = _poisson_trace(500, seed=2)
    scalar = IncrementalFlatForest(L, params)
    scalar.extend(ts.tolist())
    batched = IncrementalFlatForest(L, params)
    for lo in range(0, ts.size, batch):
        batched.push_batch(ts[lo : lo + batch])
    _assert_identical(_materialise(scalar, []), _materialise(batched, []))
    assert scalar.total_appended == batched.total_appended == ts.size
    # pushes continue bit-identically after a batch (stack reconstruction)
    tail = float(ts[-1]) + 0.001
    scalar.push(tail)
    batched.push(tail)
    _assert_identical(_materialise(scalar, []), _materialise(batched, []))


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("batch", [1, 5, 17, 64])
def test_current_path_after_push_batch(params, batch):
    """The stack ``push_batch`` rebuilds gives the scalar pushes' path."""
    for seed in range(10):
        ts = _poisson_trace(150, seed=seed, scale=0.2 + 0.3 * seed)
        scalar = IncrementalFlatForest(L, params)
        batched = IncrementalFlatForest(L, params)
        for lo in range(0, ts.size, batch):
            chunk = ts[lo : lo + batch]
            scalar.extend(chunk.tolist())
            batched.push_batch(chunk)
            assert batched.current_path() == scalar.current_path()


@pytest.mark.parametrize("params", PARAMS)
def test_eviction_is_invisible_to_the_global_forest(params):
    ts = _poisson_trace(400, seed=3, scale=2.5)  # many windows
    inc = IncrementalFlatForest(L, params)
    committed = []
    for k, t in enumerate(ts, start=1):
        inc.push(float(t))
        if k % 37 == 0:
            fence = float(t) - params.window(L) / 2
            committed.extend(inc.evict_committable(fence))
        _assert_identical(_materialise(inc, committed), dyadic_flat_forest(ts[:k], L, params))
    committed.extend(inc.evict_committable(math.inf))
    assert inc.live_forest() is None
    assert len(inc) == 0
    assert inc.evicted == ts.size
    _assert_identical(_materialise(inc, committed), dyadic_flat_forest(ts, L, params))
    # committed trees are in tree order and carry their global root ids
    roots = [c.root_id for c in committed]
    assert roots == sorted(roots)
    want_roots = np.nonzero(dyadic_flat_forest(ts, L, params).is_root)[0]
    assert roots == want_roots.tolist()


def test_evict_only_strictly_before_fence():
    params = DyadicParams(alpha=2.0, beta=1.0)
    inc = IncrementalFlatForest(L, params)
    inc.push(0.0)
    cutoff = 0.0 + params.window(L)
    assert inc.evict_committable(cutoff) == []  # cutoff == fence: not yet
    assert inc.min_live_cutoff() == cutoff
    done = inc.evict_committable(np.nextafter(cutoff, math.inf))
    assert len(done) == 1 and done[0].cutoff == cutoff
    assert inc.min_live_cutoff() is None


def test_watermark_rejects_push_into_committed_window():
    params = DyadicParams(alpha=2.0, beta=1.0)
    inc = IncrementalFlatForest(L, params)
    inc.push(0.0)
    inc.push(200.0)  # second window (window = 120)
    [done] = inc.evict_committable(150.0)
    assert done.cutoff == 120.0
    with pytest.raises(ValueError):
        inc.push(100.0)  # not strictly increasing — caught first
    inc2 = IncrementalFlatForest(L, params)
    inc2.push(0.0)
    inc2.evict_committable(math.inf)
    with pytest.raises(RuntimeError):
        inc2.push(60.0)  # increasing, but at/below the committed cutoff
    with pytest.raises(RuntimeError):
        inc2.push_batch(np.asarray([90.0, 130.0]))
    inc2.push(121.0)  # strictly above the watermark: fine


def test_batch_after_evict_and_empty_batch():
    params = DyadicParams(alpha=PHI, beta=0.5)
    ts = _poisson_trace(200, seed=4, scale=1.7)
    inc = IncrementalFlatForest(L, params)
    committed = []
    third = ts.size // 3
    inc.push_batch(ts[:third])
    committed.extend(inc.evict_committable(float(ts[third - 1]) - 20.0))
    assert inc.push_batch(np.asarray([], dtype=np.float64)) == 0
    inc.push_batch(ts[third:])
    committed.extend(inc.evict_committable(math.inf))
    _assert_identical(_materialise(inc, committed), dyadic_flat_forest(ts, L, params))


def _state(inc):
    return (
        inc._arrivals, inc._parent, inc._z, inc._offset, inc._tree_roots,
        inc._tree_cutoffs, inc._last_time, inc._watermark,
        [(e.node, e.arrival, e.cutoff, e.last_child_interval) for e in inc._stack],
    )


@pytest.mark.parametrize("params", PARAMS)
def test_resume_rebuilds_the_open_window_exactly(params):
    ts = _poisson_trace(400, seed=5, scale=1.3)
    inc = IncrementalFlatForest(L, params)
    for k, lo in enumerate(range(0, ts.size, 23)):
        inc.push_batch(ts[lo : lo + 23])
        if k % 3 == 2:
            inc.evict_committable(float(ts[lo]) - params.window(L) / 3)
        back = IncrementalFlatForest.resume(L, *inc.open_window(), params=params)
        assert _state(back) == _state(inc)
    # everything committed: the empty window still remembers its last push
    inc.evict_committable(math.inf)
    back = IncrementalFlatForest.resume(L, *inc.open_window(), params=params)
    assert len(back) == 0 and _state(back) == _state(inc)
    with pytest.raises(RuntimeError):
        back.push(float(ts[-1]) + 1.0)  # still at or below the watermark


def test_resume_rejects_inconsistent_state():
    arrivals = np.asarray([10.0, 11.0])
    with pytest.raises(ValueError, match="watermark"):
        IncrementalFlatForest.resume(L, arrivals, 3, 10.0, 11.0)
    with pytest.raises(ValueError, match="last push"):
        IncrementalFlatForest.resume(L, arrivals, 3, 5.0, 12.0)
    with pytest.raises(ValueError, match="offset"):
        IncrementalFlatForest.resume(L, arrivals, -1, 5.0, 11.0)


def test_rejects_bad_input():
    inc = IncrementalFlatForest(L)
    inc.push(1.0)
    with pytest.raises(ValueError):
        inc.push(1.0)  # not strictly increasing
    with pytest.raises(ValueError):
        inc.push(math.nan)
    with pytest.raises(ValueError):
        inc.push_batch(np.asarray([2.0, 2.0]))
    with pytest.raises(ValueError):
        IncrementalFlatForest(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_non_finite_L(bad):
    with pytest.raises(ValueError, match="finite"):
        IncrementalFlatForest(bad)
