"""IncrementalFlatForest: prefix equivalence, eviction, watermark safety.

The incremental forest must be indistinguishable from the batch
construction at every moment: concatenating its committed trees with the
live remainder reproduces ``dyadic_flat_forest`` of the full prefix node
for node (parents *and* z), for one object or a ragged catalog, however
the batches were cut and however eviction interleaved.  The one-arrival
walk the event policies place arrivals with (``DyadicOnline.push``) is
pinned against it too: after every arrival, the new node's root path is
the rightmost path of the batch build of the prefix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dyadic import PHI, DyadicOnline, DyadicParams
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
    """Committed trees + live remainder of a one-object forest, as one
    global FlatForest."""
    chunks = [c.forest for c in committed if len(c.forest)]
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


def _rightmost_path(forest):
    """Arrivals from the root to the newest node, root first."""
    path, i = [], len(forest) - 1
    while i >= 0:
        path.append(float(forest.arrivals[i]))
        i = int(forest.parent[i])
    return tuple(reversed(path))


def _node_path(node):
    """The receiving path the event policies take from a placed node."""
    return tuple(n.arrival for n in node.path_from_root())


@pytest.mark.parametrize("params", PARAMS)
def test_push_matches_batch_on_every_prefix(params):
    ts = _poisson_trace(300, seed=1)
    obj = DyadicOnline(L, params)
    inc = IncrementalFlatForest(L, params)
    for k, t in enumerate(ts, start=1):
        node = obj.push(float(t))
        inc.push_batch(ts[k - 1 : k])
        want = dyadic_flat_forest(ts[:k], L, params)
        # the parent the one-arrival walk just decided, and every one above it
        assert _node_path(node) == _rightmost_path(want)
        _assert_identical(_materialise(inc, []), want)


@pytest.mark.parametrize("params", PARAMS)
def test_edge_grid_prefixes(params):
    ts = _edge_trace(params)
    obj = DyadicOnline(L, params)
    inc = IncrementalFlatForest(L, params)
    for k, t in enumerate(ts, start=1):
        node = obj.push(float(t))
        inc.push_batch(ts[k - 1 : k])
        want = dyadic_flat_forest(ts[:k], L, params)
        assert _node_path(node) == _rightmost_path(want)
        _assert_identical(_materialise(inc, []), want)


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("batch", [1, 3, 17, 64])
def test_push_batch_equals_scalar_push(params, batch):
    """Batches of any size give the forest of one-arrival batches and of
    the one-arrival walk, and later arrivals continue it identically."""
    ts = _poisson_trace(500, seed=2)
    scalar = IncrementalFlatForest(L, params)
    for k in range(ts.size):
        scalar.push_batch(ts[k : k + 1])
    batched = IncrementalFlatForest(L, params)
    for lo in range(0, ts.size, batch):
        batched.push_batch(ts[lo : lo + batch])
    _assert_identical(_materialise(scalar, []), _materialise(batched, []))
    assert scalar.total_appended.tolist() == batched.total_appended.tolist() == [ts.size]
    obj = DyadicOnline.forest(ts.tolist(), L, params)
    _assert_identical(FlatForest.from_forest(obj), _materialise(batched, []))
    tail = float(ts[-1]) + 0.001
    scalar.push_batch([tail])
    batched.push_batch([tail])
    _assert_identical(_materialise(scalar, []), _materialise(batched, []))


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("batch", [1, 5, 17, 64])
def test_current_path_after_push_batch(params, batch):
    """After every batch the open window's rightmost path is the one the
    one-arrival walk gave the batch's last arrival."""
    for seed in range(10):
        ts = _poisson_trace(150, seed=seed, scale=0.2 + 0.3 * seed)
        obj = DyadicOnline(L, params)
        batched = IncrementalFlatForest(L, params)
        for lo in range(0, ts.size, batch):
            chunk = ts[lo : lo + batch]
            for t in chunk.tolist():
                node = obj.push(t)
            batched.push_batch(chunk)
            assert _rightmost_path(batched.live_forest()) == _node_path(node)


@pytest.mark.parametrize("params", PARAMS)
def test_eviction_is_invisible_to_the_global_forest(params):
    ts = _poisson_trace(400, seed=3, scale=2.5)  # many windows
    inc = IncrementalFlatForest(L, params)
    committed = []
    for k, t in enumerate(ts, start=1):
        inc.push_batch(ts[k - 1 : k])
        if k % 37 == 0:
            fence = float(t) - params.window(L) / 2
            committed.append(inc.evict_committable(fence))
        want = dyadic_flat_forest(ts[:k], L, params)
        _assert_identical(_materialise(inc, committed), want)
    committed.append(inc.evict_committable(math.inf))
    assert inc.live_forest() is None
    assert len(inc) == 0
    assert inc.evicted.tolist() == [ts.size]
    whole = _materialise(inc, committed)
    _assert_identical(whole, dyadic_flat_forest(ts, L, params))
    # each eviction reports its trees: their count and the last cutoff
    assert sum(int(c.roots[0]) for c in committed) == whole.num_trees()
    roots = np.flatnonzero(whole.is_root)
    last = [int(roots[: sum(int(c.roots[0]) for c in committed[: i + 1])][-1])
            for i, c in enumerate(committed) if c.roots[0]]
    cutoffs = [float(c.cutoffs[0]) for c in committed if c.roots[0]]
    assert cutoffs == [float(ts[r]) + params.window(L) for r in last]


def test_evict_only_strictly_before_fence():
    params = DyadicParams(alpha=2.0, beta=1.0)
    inc = IncrementalFlatForest(L, params)
    inc.push_batch([0.0])
    cutoff = 0.0 + params.window(L)
    none = inc.evict_committable(cutoff)  # cutoff == fence: not yet
    assert none.roots.tolist() == [0] and len(none.forest) == 0
    assert none.cutoffs.tolist() == [-math.inf]
    assert inc.min_live_cutoffs().tolist() == [cutoff]
    done = inc.evict_committable(np.nextafter(cutoff, math.inf))
    assert done.roots.tolist() == [1] and done.cutoffs.tolist() == [cutoff]
    assert done.offsets.tolist() == [0, 1]
    assert inc.min_live_cutoffs().tolist() == [math.inf]


def test_watermark_rejects_push_into_committed_window():
    params = DyadicParams(alpha=2.0, beta=1.0)
    inc = IncrementalFlatForest(L, params)
    inc.push_batch([0.0, 200.0])  # two windows (window = 120)
    done = inc.evict_committable(150.0)
    assert done.cutoffs.tolist() == [120.0]
    with pytest.raises(ValueError):
        inc.push_batch([100.0])  # not strictly increasing — caught first
    inc2 = IncrementalFlatForest(L, params)
    inc2.push_batch([0.0])
    inc2.evict_committable(math.inf)
    with pytest.raises(RuntimeError):
        inc2.push_batch([60.0])  # increasing, but at/below the committed cutoff
    with pytest.raises(RuntimeError):
        inc2.push_batch(np.asarray([90.0, 130.0]))
    inc2.push_batch([121.0])  # strictly above the watermark: fine


def test_batch_after_evict_and_empty_batch():
    params = DyadicParams(alpha=PHI, beta=0.5)
    ts = _poisson_trace(200, seed=4, scale=1.7)
    inc = IncrementalFlatForest(L, params)
    committed = []
    third = ts.size // 3
    inc.push_batch(ts[:third])
    committed.append(inc.evict_committable(float(ts[third - 1]) - 20.0))
    assert inc.push_batch(np.asarray([], dtype=np.float64)) == 0
    inc.push_batch(ts[third:])
    committed.append(inc.evict_committable(math.inf))
    _assert_identical(_materialise(inc, committed), dyadic_flat_forest(ts, L, params))


def _state(inc):
    live = inc.live_forest()
    return (
        [a.tolist() for a in inc.open_window()],
        None if live is None else (live.parent.tolist(), live.z.tolist()),
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
        back.push_batch([float(ts[-1]) + 1.0])  # still at or below the watermark


def test_resume_rejects_inconsistent_state():
    arrivals = np.asarray([10.0, 11.0])
    bounds = [0, 2]
    with pytest.raises(ValueError, match="watermark"):
        IncrementalFlatForest.resume(L, arrivals, bounds, [3], [10.0], [11.0])
    with pytest.raises(ValueError, match="last push"):
        IncrementalFlatForest.resume(L, arrivals, bounds, [3], [5.0], [12.0])
    with pytest.raises(ValueError, match="evicted"):
        IncrementalFlatForest.resume(L, arrivals, bounds, [-1], [5.0], [11.0])
    with pytest.raises(ValueError, match="object 1: .*no arrival is live"):
        IncrementalFlatForest.resume(
            [L, L], arrivals, [0, 2, 2], [3, 0], [5.0, 1.0], [11.0, 2.0]
        )
    with pytest.raises(ValueError, match="resolution limit"):  # the builder refuses
        IncrementalFlatForest.resume(L, np.asarray([0.0, 1e-14]), bounds, [0], [-math.inf], [1e-14])


def test_rejects_bad_input():
    inc = IncrementalFlatForest(L)
    inc.push_batch([1.0])
    with pytest.raises(ValueError):
        inc.push_batch([1.0])  # not strictly increasing
    with pytest.raises(ValueError):
        inc.push_batch([math.nan])
    with pytest.raises(ValueError):
        inc.push_batch(np.asarray([2.0, 2.0]))
    with pytest.raises(ValueError):
        IncrementalFlatForest(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_non_finite_L(bad):
    with pytest.raises(ValueError, match="finite"):
        IncrementalFlatForest(bad)


# ---------------------------------------------------------------------------
# ragged form: one forest for several objects, one stream length each
# ---------------------------------------------------------------------------


def _object_forest(committed, live, k):
    """Object ``k``'s committed trees and live remainder, as one forest."""
    chunks = []
    for c in committed:
        lo, hi = int(c.offsets[k]), int(c.offsets[k + 1])
        if hi > lo:
            chunks.append((c.forest, lo, hi))
    if live is not None:
        chunks.append(live)
    arrivals, parents, zs, base = [], [], [], 0
    for forest, lo, hi in chunks:
        p = forest.parent[lo:hi].copy()
        p[p >= 0] += base - lo
        arrivals.append(forest.arrivals[lo:hi])
        parents.append(p)
        zs.append(forest.z[lo:hi])
        base += hi - lo
    return FlatForest(np.concatenate(arrivals), np.concatenate(parents), z=np.concatenate(zs))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([4.0, 20.0, 60.0, 120.0]), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(PARAMS),
)
def test_ragged_epochs_equal_per_object_batch_builds(lengths, seed, params):
    rng = np.random.default_rng(seed)
    m = len(lengths)
    traces = [
        np.unique(np.cumsum(rng.exponential(rng.choice([0.3, 2.0, 9.0]), size=rng.integers(0, 80))))
        for _ in range(m)
    ]
    edges = np.sort(rng.uniform(0.0, 300.0, size=rng.integers(1, 12)))
    edges = np.concatenate(([-1.0], edges, [np.inf]))
    inc = IncrementalFlatForest(lengths, params)
    committed = []
    for lo_t, hi_t in zip(edges[:-1], edges[1:]):
        parts = [ts[(ts > lo_t) & (ts <= hi_t)] for ts in traces]
        offsets = np.concatenate(([0], np.cumsum([p.size for p in parts])))
        assert inc.push_batch(np.concatenate(parts), offsets) == offsets[-1]
        if rng.random() < 0.7:
            committed.append(inc.evict_committable(hi_t - rng.uniform(0.0, 80.0)))
    committed.append(inc.evict_committable(math.inf))
    assert len(inc) == 0 and inc.live_forest() is None
    assert inc.evicted.tolist() == [ts.size for ts in traces]
    for k, ts in enumerate(traces):
        if not ts.size:
            assert all(c.offsets[k] == c.offsets[k + 1] for c in committed)
            continue
        want = dyadic_flat_forest(ts, lengths[k], params)
        _assert_identical(_object_forest(committed, None, k), want)
        roots = np.flatnonzero(want.is_root)
        assert sum(int(c.roots[k]) for c in committed) == roots.size
        for c in committed:
            if c.roots[k]:
                lo, hi = int(c.offsets[k]), int(c.offsets[k + 1])
                last_root = lo + int(np.flatnonzero(c.forest.parent[lo:hi] < 0)[-1])
                assert c.cutoffs[k] == c.forest.arrivals[last_root] + params.window(lengths[k])


@pytest.mark.parametrize("params", PARAMS)
def test_ragged_open_windows_equal_the_prefix_builds(params):
    lengths = [20.0, 120.0, 5.0]
    rng = np.random.default_rng(8)
    traces = [np.unique(np.cumsum(rng.exponential(s, size=60))) for s in (0.5, 3.0, 0.2)]
    inc = IncrementalFlatForest(lengths, params)
    committed = []
    edges = [-1.0, 10.0, 40.0, 41.0, 90.0, 200.0]
    for lo_t, hi_t in zip(edges[:-1], edges[1:]):
        parts = [ts[(ts > lo_t) & (ts <= hi_t)] for ts in traces]
        offsets = np.concatenate(([0], np.cumsum([p.size for p in parts])))
        inc.push_batch(np.concatenate(parts), offsets)
        committed.append(inc.evict_committable(hi_t - 30.0))
        live = inc.live_forest()
        bounds = inc.open_window()[1]
        for k, ts in enumerate(traces):
            n = int(inc.total_appended[k])
            if not n:
                continue
            prefix = ts[:n]
            part = None
            if live is not None and bounds[k + 1] > bounds[k]:
                part = (live, int(bounds[k]), int(bounds[k + 1]))
            got = _object_forest(committed, part, k)
            _assert_identical(got, dyadic_flat_forest(prefix, lengths[k], params))
        back = IncrementalFlatForest.resume(lengths, *inc.open_window(), params=params)
        assert [a.tolist() for a in back.open_window()] == [a.tolist() for a in inc.open_window()]


def test_ragged_batch_checks_every_object():
    inc = IncrementalFlatForest([10.0, 10.0])
    inc.push_batch(np.asarray([1.0, 2.0, 5.0]), [0, 2, 3])
    with pytest.raises(ValueError, match="needs offsets"):
        inc.push_batch(np.asarray([7.0]))
    with pytest.raises(ValueError, match="strictly increasing: 4.0 after 5.0"):
        inc.push_batch(np.asarray([3.0, 4.0]), [0, 1, 2])  # object 1 went back
    with pytest.raises(ValueError, match="strictly increasing"):
        inc.push_batch(np.asarray([3.0, 9.0, 8.0]), [0, 1, 3])
    with pytest.raises(ValueError, match="finite"):
        inc.push_batch(np.asarray([3.0, math.nan]), [0, 1, 2])
    assert inc.total_appended.tolist() == [2, 1]  # the refused batches left no trace
    inc.evict_committable(math.inf)
    with pytest.raises(RuntimeError, match="watermark"):
        inc.push_batch(np.asarray([20.0, 6.0]), [0, 1, 2])  # 6.0 <= object 1's 15.0
