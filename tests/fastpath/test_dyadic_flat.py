"""Flat dyadic builders vs. the MergeNode oracles — node-for-node.

``dyadic_flat_forest`` == ``dyadic_forest`` == ``DyadicOnline`` (the
stack machine the event policies place arrivals with) ==
``IncrementalFlatForest``'s open window on adversarial traces — arrivals
exactly on dyadic interval edges, exactly at the cutoff ``y``, dense
clusters, for alpha from the ``MIN_ALPHA`` floor up to 7.5 — and the
ragged form == one call per object.

The builder tests run twice: with the shipped ``SPLIT_RATIO`` and with
``SPLIT_RATIO = 0``, which sends every level through phase 1 (the window
split), since the natural inputs here are too small to reach it.  The
batch equivalences, edge grids and alpha sweep included, run once more
with every interval classification on the bucket-table side of
:class:`~repro.scale.kernels.SortedTable`, which inputs this small never
reach either.  The ragged equivalence, the dense phase-1 trace and the
resolution messages run with phase 2 in member blocks of 1 and 7 as well
as the shipped ``MEMBER_BLOCK``.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dyadic import (
    MIN_ALPHA,
    MIN_RELATIVE_GAP,
    DyadicOnline,
    DyadicParams,
    dyadic_cost,
    dyadic_forest,
)
import repro.fastpath.dyadic as flat_dyadic
import repro.scale.kernels as kernels
from repro.core.fibonacci import PHI
from repro.fastpath.dyadic import MEMBER_BLOCK, SPLIT_RATIO, dyadic_flat_forest
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.incremental import IncrementalFlatForest

from tests.conftest import increasing_times, increasing_times_exact

ALPHAS = st.sampled_from([2.0, PHI])
BETAS = st.sampled_from([0.5, 0.3, 0.9])
EDGE_ALPHAS = [1.3, PHI, 2.0, 3.0, 7.5]

#: the split fixture is function-scoped; it only sets a module constant,
#: which holds for every example alike
SPLIT_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(params=[0, SPLIT_RATIO], ids=["phase1-forced", "shipped"])
def split_ratio(request, monkeypatch):
    """Run the test with phase 1 forced at every level, and as shipped."""
    monkeypatch.setattr(flat_dyadic, "SPLIT_RATIO", request.param)
    return request.param


@pytest.fixture(params=[1, 7, MEMBER_BLOCK], ids=["block1", "block7", "shipped"])
def member_block(request, monkeypatch):
    """Run phase 2 in blocks of at most 1, 7 or the shipped number of
    members."""
    monkeypatch.setattr(flat_dyadic, "MEMBER_BLOCK", request.param)
    return request.param


@pytest.fixture
def interval_lookup(monkeypatch):
    """Every ``SortedTable.index`` call looks up, however few its keys."""
    monkeypatch.setattr(kernels, "LOOKUP_MIN_KEYS", 0)
    monkeypatch.setattr(kernels, "LOOKUP_KEYS_PER_BUCKET", 0)


def _interval_edges(params, L):
    """Root, an arrival exactly at the cutoff, and every dyadic left edge
    above the resolution limit (down to ``alpha ** -17``)."""
    window = params.window(L)
    ts = {0.0, window}
    for i in range(1, 18):
        if params.alpha**-i >= MIN_RELATIVE_GAP:  # deeper edges are rejected
            ts.add(window / params.alpha**i)
    return sorted(ts)


def _nested_edges(params, L):
    """Left edges of the root's intervals and of the second-level windows."""
    alpha, window = params.alpha, params.window(L)
    ts = {0.0}
    for i in range(1, 8):
        child = window / alpha**i
        ts.add(child)
        hi = window / alpha ** (i - 1)
        for j in range(1, 6):
            ts.add(child + (hi - child) / alpha**j)
    return sorted(t for t in ts if t <= window)


def _assert_same_forest(ts, L, params):
    ref = FlatForest.from_forest(dyadic_forest(ts, L, params))
    flat = dyadic_flat_forest(ts, L, params)
    assert flat.equals(ref)
    assert np.array_equal(flat.z, ref.z)  # trusted-z shortcut is exact
    assert FlatForest.from_forest(DyadicOnline.forest(ts, L, params)).equals(ref)
    window = IncrementalFlatForest(L, params)
    window.push_batch(ts)
    live = window.live_forest()
    assert live.equals(ref)
    assert np.array_equal(live.z, ref.z)
    return flat, ref


@pytest.mark.usefixtures("split_ratio")
class TestBatchEquivalence:
    @settings(SPLIT_SETTINGS, max_examples=60)
    @given(increasing_times(min_size=1, max_size=50, horizon=300.0), ALPHAS, BETAS)
    def test_random_traces(self, times, alpha, beta):
        _assert_same_forest(times, 100, DyadicParams(alpha=alpha, beta=beta))

    @settings(SPLIT_SETTINGS, max_examples=40)
    @given(increasing_times_exact(min_size=1, max_size=40, horizon=200.0), ALPHAS)
    def test_exact_grid_costs_bit_identical(self, times, alpha):
        params = DyadicParams(alpha=alpha, beta=0.5)
        L = 64  # binary-exact L: every length expression stays exact
        flat, _ref = _assert_same_forest(times, L, params)
        assert flat.full_cost(L) == dyadic_forest(times, L, params).full_cost(L)
        # the public dyadic_cost entry point routes through the flat path
        assert dyadic_cost(times, L, params) == flat.full_cost(L)

    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_arrivals_on_interval_edges(self, alpha):
        """Arrivals exactly at dyadic left edges and at the cutoff."""
        params = DyadicParams(alpha=alpha, beta=0.5)
        _assert_same_forest(_interval_edges(params, 64), 64, params)

    @pytest.mark.parametrize("alpha", [MIN_ALPHA, 1.05, 1.3, 7.5])
    def test_every_table_edge(self, alpha):
        """An arrival on every left edge down to the resolution limit: the
        whole interval table, its deepest entry included."""
        params = DyadicParams(alpha=alpha, beta=0.5)
        window = params.window(64)
        ts = {0.0, window}
        i = 1
        while alpha**-i >= MIN_RELATIVE_GAP:
            ts.add(window / alpha**i)
            i += 1
        ts = sorted(ts)
        _assert_same_forest(ts, 64, params)
        # and one step past the table rejects like the oracle does
        below = [0.0, window / alpha**i, window]
        with pytest.raises(ValueError, match="resolution limit"):
            dyadic_forest(below, 64, params)
        with pytest.raises(ValueError, match="resolution limit"):
            dyadic_flat_forest(below, 64, params)

    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_nested_edge_grid(self, alpha):
        """Edges of the *second-level* windows too (deep descents)."""
        params = DyadicParams(alpha=alpha, beta=0.5)
        _assert_same_forest(_nested_edges(params, 64), 64, params)

    def test_multiple_roots(self):
        params = DyadicParams(beta=0.5)
        ts = [0.0, 10.0, 51.0, 70.0, 102.0]
        flat, _ = _assert_same_forest(ts, 100, params)
        assert flat.roots() == [0.0, 51.0, 102.0]

    def test_dense_cluster(self):
        ts = [i * 0.125 for i in range(400)]
        _assert_same_forest(ts, 100, DyadicParams(alpha=2.0, beta=0.5))

    def test_mixed_gaps(self):
        """Gaps from an eighth of a slot to past the window: deep paths,
        shallow ones and many roots in one trace."""
        rng = random.Random(5)
        gaps = [rng.choice([0.125, 0.5, 3.0, 60.0]) for _ in range(200)]
        ts = list(itertools.accumulate(gaps))
        _assert_same_forest(ts, 100, DyadicParams(alpha=PHI, beta=0.5))

    @pytest.mark.usefixtures("member_block")
    @pytest.mark.parametrize("alpha", [MIN_ALPHA, PHI, 7.5])
    def test_resolution_message_is_the_member_loops(self, alpha, monkeypatch):
        """Phase 1 checks only each window's first member: the smallest g
        of the window.  The first offence in index order (a child window
        of the second tree; the third tree offends too) must raise the
        member loop's message."""
        params = DyadicParams(alpha=alpha, beta=0.5)
        ts = [0.0, 9.6, 20.0]
        for root in (40.0, 100.0):
            child = root + 9.6  # g = 0.3: inside an interval, off its edges
            ts += [root, child, child + 4 * math.ulp(child), root + 20.0]
        with pytest.raises(ValueError, match="resolution limit") as split:
            dyadic_flat_forest(ts, 64, params)
        assert "window start 49.6 " in str(split.value)  # the second tree
        monkeypatch.setattr(flat_dyadic, "SPLIT_RATIO", 10**9)
        with pytest.raises(ValueError, match="resolution limit") as member:
            dyadic_flat_forest(ts, 64, params)
        assert str(split.value) == str(member.value)
        with pytest.raises(ValueError, match="resolution limit"):
            dyadic_forest(ts, 64, params)

    @pytest.mark.usefixtures("member_block")
    @pytest.mark.parametrize("alpha", [PHI, 2.0, 7.5])
    def test_resolution_message_across_blocks(self, alpha, monkeypatch):
        """Two offending trees in phase 2: the first tree offends one level
        deeper than the second, so the message names the second tree's
        member (the earliest offence by level, then index), however the
        windows fall into blocks.  Raising at the first block that
        offends would name the first tree's."""
        monkeypatch.setattr(flat_dyadic, "SPLIT_RATIO", 10**9)
        params = DyadicParams(alpha=alpha, beta=0.5)
        deep = 51.6 + 4 * math.ulp(51.6)
        shallow = 109.6 + 4 * math.ulp(109.6)
        ts = [0.0, 9.6, 20.0, 40.0, 49.6, 51.6, deep, 60.0, 100.0, 109.6, shallow, 120.0]
        with pytest.raises(ValueError, match="resolution limit") as raised:
            dyadic_flat_forest(ts, 64, params)
        assert str(raised.value).startswith(f"arrival {shallow} ")
        assert "window start 109.6 " in str(raised.value)


@pytest.mark.usefixtures("interval_lookup")
class TestBatchEquivalenceLookup(TestBatchEquivalence):
    """:class:`TestBatchEquivalence` with the interval classification
    looked up in the per-alpha bucket table instead of bisected."""


class TestPhaseOne:
    """Phase 1 on the inputs it is shipped for, without forcing it."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """Count the levels phase 1 places."""
        placed = []
        split_level = flat_dyadic._split_level

        def spy(*args):
            out = split_level(*args)
            placed.append(out is not None)
            return out

        monkeypatch.setattr(flat_dyadic, "_split_level", spy)
        return placed

    @pytest.mark.usefixtures("member_block")
    def test_dense_root_window_reaches_phase_one(self, splits):
        """2.4e4 arrivals in one root window: large windows are split at
        their boundaries, and the forest is still the oracle's."""
        rng = np.random.default_rng(19)
        ticks = np.sort(rng.choice(10**6, size=24_000, replace=False))
        ts = np.concatenate([[0.0], (ticks + 1) / 20_000.0, [60.0, 61.5]])
        _, ref = _assert_same_forest(ts.tolist(), 100, DyadicParams())
        assert ref.num_trees() == 2
        assert sum(splits) >= 2  # phase 1 placed the first levels
        assert splits[-1] is False  # and handed the rest to phase 2

    def test_small_levels_go_straight_to_phase_two(self, splits):
        """A few hundred members go to phase 2 before any window endpoint
        is evaluated: phase 1 is not even entered."""
        _assert_same_forest([i * 0.125 for i in range(400)], 100, DyadicParams())
        assert splits == []


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dyadic_flat_forest([], 100)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            dyadic_flat_forest([0.0, 0.0], 100)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dyadic_flat_forest([0.0, float("nan"), 2.0], 100)

    def test_bad_L(self):
        with pytest.raises(ValueError):
            dyadic_flat_forest([0.0], 0)
        with pytest.raises(ValueError):
            IncrementalFlatForest(0)

    @pytest.mark.parametrize("L", [float("nan"), float("inf")])
    def test_non_finite_L_rejected_by_batch(self, L):
        """NaN used to build a one-tree chain; the oracle gave four roots."""
        with pytest.raises(ValueError, match="finite"):
            dyadic_flat_forest([0.0, 1.0, 2.0, 5.0], L)

    @pytest.mark.parametrize("L", [float("nan"), float("inf")])
    def test_non_finite_L_rejected_by_flat_online(self, L):
        with pytest.raises(ValueError, match="finite"):
            IncrementalFlatForest(L)

    @pytest.mark.parametrize("L", [float("nan"), float("inf")])
    def test_non_finite_L_rejected_by_oracles(self, L):
        with pytest.raises(ValueError, match="finite"):
            dyadic_forest([0.0, 1.0, 2.0, 5.0], L)
        with pytest.raises(ValueError, match="finite"):
            DyadicOnline(L)

    def test_alpha_near_one_is_rejected_not_exhausting_memory(self):
        """alpha = 1 + 1e-9 used to build a ~1e10-entry power table."""
        with pytest.raises(ValueError, match="alpha"):
            dyadic_flat_forest([0, 1, 2, 5], 8, DyadicParams(alpha=1 + 1e-9))

    def test_interval_table_is_small_and_strictly_decreasing(self):
        from repro.fastpath.dyadic import _power_tables

        for alpha, size in ((1.3, 107), (PHI, None), (MIN_ALPHA, 2_778)):
            edges, powers = _power_tables(alpha)
            assert np.all(np.diff(edges) > 0)  # alpha ** -i, ascending
            assert edges[0] <= MIN_RELATIVE_GAP < edges[1]
            assert edges.size == powers.size <= 2_778
            if size is not None:
                assert edges.size == size

    @pytest.mark.usefixtures("split_ratio", "member_block")
    def test_resolution_limit_matches_oracle(self):
        ts = [0.0, 1e-14, 1.0]
        with pytest.raises(ValueError, match="resolution limit"):
            dyadic_forest(ts, 100)
        with pytest.raises(ValueError, match="resolution limit"):
            dyadic_flat_forest(ts, 100)


class TestFlatOnline:
    """One arrival at a time: the path the event policies serve
    (``DyadicOnline.push`` and the new node's ``path_from_root()``) is the
    rightmost path of the flat open window fed the same arrival through a
    one-element ``push_batch``."""

    @staticmethod
    def _assert_paths_agree(ts, L, params):
        obj = DyadicOnline(L, params)
        flat = IncrementalFlatForest(L, params)
        for t in ts:
            node = obj.push(t)
            flat.push_batch([t])
            want = tuple(n.arrival for n in node.path_from_root())
            assert flat.live_forest().paths()[-1] == want

    def test_paths_match_object_stack(self):
        rng = random.Random(5)
        gaps = [rng.choice([0.125, 0.5, 3.0, 60.0]) for _ in range(200)]
        ts = list(itertools.accumulate(gaps))
        self._assert_paths_agree(ts, 100, DyadicParams(alpha=PHI, beta=0.5))

    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_paths_match_object_stack_on_edge_grids(self, alpha):
        params = DyadicParams(alpha=alpha, beta=0.5)
        for ts in (_interval_edges(params, 64), _nested_edges(params, 64)):
            self._assert_paths_agree(ts, 64, params)

    def test_monotonicity_enforced(self):
        online = IncrementalFlatForest(100)
        online.push_batch([5.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            online.push_batch([5.0])

    def test_nan_push_rejected_without_advancing(self):
        online = IncrementalFlatForest(100)
        online.push_batch([0.0])
        with pytest.raises(ValueError, match="finite"):
            online.push_batch([float("nan")])
        assert online.push_batch([1.0]) == 1
        assert online.total_appended.tolist() == [2]
        assert online.live_forest().paths()[-1] == (0.0, 1.0)

    def test_finish_empty(self):
        assert IncrementalFlatForest(100).live_forest() is None

    def test_indices_are_arrival_order(self):
        online = IncrementalFlatForest(100)
        for t in (0.0, 10.0, 70.0):  # 70 is past the window: new root
            online.push_batch([t])
        assert len(online) == 3
        live = online.live_forest()
        assert live.arrivals.tolist() == [0.0, 10.0, 70.0]
        assert live.parent.tolist() == [-1, 0, -1]
        assert live.num_trees() == 2


@st.composite
def ragged_catalog(draw):
    """1-40 objects' strictly increasing traces (empty and one-arrival
    objects included), each with its own L."""
    k = draw(st.integers(min_value=1, max_value=40))
    parts, lengths = [], []
    for _ in range(k):
        n = draw(st.sampled_from([0, 0, 1, 1, 2, 5, 12, 30]))
        ticks = draw(
            st.lists(st.integers(0, 299_999), min_size=n, max_size=n, unique=True)
        )
        parts.append(np.asarray(sorted(ticks), dtype=np.float64) / 1000.0)
        lengths.append(draw(st.sampled_from([2, 5, 17, 60, 64, 100])))
    return parts, lengths


@pytest.mark.usefixtures("split_ratio")
class TestRagged:
    @pytest.mark.usefixtures("member_block")
    @settings(SPLIT_SETTINGS, max_examples=80)
    @given(ragged_catalog(), st.sampled_from([1.3, PHI, 2.0, 3.0]), BETAS)
    def test_ragged_equals_per_object(self, catalog, alpha, beta):
        parts, lengths = catalog
        params = DyadicParams(alpha=alpha, beta=beta)
        offsets = np.cumsum([0] + [p.size for p in parts])
        values = np.concatenate(parts)
        if values.size == 0:
            with pytest.raises(ValueError, match="at least one arrival"):
                dyadic_flat_forest(values, lengths, params, offsets=offsets)
            return
        ragged = dyadic_flat_forest(values, lengths, params, offsets=offsets)
        assert np.array_equal(ragged.arrivals, values)
        for k, part in enumerate(parts):
            lo, hi = offsets[k], offsets[k + 1]
            if part.size == 0:
                continue
            one = dyadic_flat_forest(part, lengths[k], params)
            assert one.equals(FlatForest.from_forest(dyadic_forest(part, lengths[k], params)))
            parent = ragged.parent[lo:hi]
            assert np.array_equal(np.where(parent < 0, -1, parent - lo), one.parent)
            assert np.array_equal(ragged.z[lo:hi], one.z)
            assert np.array_equal(
                ragged.stream_lengths(np.repeat(lengths, np.diff(offsets)))[lo:hi],
                one.stream_lengths(lengths[k]),
            )

    def test_one_object_ragged_equals_batch(self):
        ts = [0.0, 1.5, 2.0, 9.0, 40.0, 41.0]
        flat = dyadic_flat_forest(ts, 20)
        ragged = dyadic_flat_forest(ts, 20, offsets=[0, 6])
        assert np.array_equal(ragged.parent, flat.parent)
        assert np.array_equal(ragged.z, flat.z)

    def test_objects_may_restart_their_clocks(self):
        """Times fall at object boundaries; within an object they must rise."""
        values = [0.0, 5.0, 9.0, 0.0, 1.0]
        ragged = dyadic_flat_forest(values, [20, 20], offsets=[0, 3, 5])
        assert ragged.parent.tolist() == [-1, 0, 0, -1, 3]
        with pytest.raises(ValueError, match="within each object"):
            dyadic_flat_forest([0.0, 5.0, 5.0], [20], offsets=[0, 3])

    @pytest.mark.parametrize(
        "offsets", [[0, 2], [1, 3], [0, 3, 2, 3], [0.0, 3.0], [[0, 3]]]
    )
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            dyadic_flat_forest([0.0, 1.0, 2.0], 20, offsets=offsets)

    def test_non_finite_L_rejected(self):
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="finite"):
                dyadic_flat_forest([0.0, 1.0, 0.5], [20, bad], offsets=[0, 2, 3])
