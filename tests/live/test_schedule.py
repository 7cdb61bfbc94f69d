"""ChannelPlanner must equal the batch greedy, stream for stream."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import ChannelPlanner
from repro.simulation.channels import assign_channels_flat, peak_concurrency


def _random_intervals(rng, n):
    starts = np.sort(rng.uniform(0.0, 100.0, size=n))
    ends = starts + rng.uniform(0.01, 30.0, size=n)
    return starts, ends


class TestPlannerEqualsBatchGreedy:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_feed(self, seed):
        rng = np.random.default_rng(seed)
        starts, ends = _random_intervals(rng, 200)
        planner = ChannelPlanner()
        got = planner.assign(starts, ends)
        want = assign_channels_flat(starts, ends)
        np.testing.assert_array_equal(got, want)
        assert planner.channels == int(want.max()) + 1
        assert planner.channels == peak_concurrency(starts, ends)

    @pytest.mark.parametrize("chunk", [1, 3, 17, 1000])
    def test_chunked_feed_is_the_identical_array(self, chunk):
        rng = np.random.default_rng(42)
        starts, ends = _random_intervals(rng, 300)
        planner = ChannelPlanner()
        got = np.concatenate(
            [
                planner.assign(starts[i : i + chunk], ends[i : i + chunk])
                for i in range(0, starts.size, chunk)
            ]
        )
        np.testing.assert_array_equal(got, assign_channels_flat(starts, ends))

    def test_free_time_ties_broken_fifo_like_the_oracle(self):
        # two channels free at exactly t=10; the one released first
        # (channel 0) must be reused first — the oracle's seq-numbered heap
        planner = ChannelPlanner()
        a = planner.assign([0.0, 1.0], [10.0, 10.0])
        b = planner.assign([10.0, 10.0], [20.0, 21.0])
        np.testing.assert_array_equal(a, [0, 1])
        np.testing.assert_array_equal(
            np.concatenate([a, b]),
            assign_channels_flat([0.0, 1.0, 10.0, 10.0], [10.0, 10.0, 20.0, 21.0]),
        )

    def test_boundary_release_reuses_channel(self):
        planner = ChannelPlanner()
        out = planner.assign([0.0, 5.0], [5.0, 9.0])  # frees exactly at start
        np.testing.assert_array_equal(out, [0, 0])
        assert planner.channels == 1


class TestPlannerValidation:
    def test_empty_batch_is_a_no_op(self):
        planner = ChannelPlanner()
        assert planner.assign([], []).size == 0
        assert planner.channels == 0

    def test_rejects_out_of_order_feed_across_calls(self):
        planner = ChannelPlanner()
        planner.assign([5.0], [6.0])
        with pytest.raises(ValueError, match="nondecreasing start order"):
            planner.assign([4.0], [7.0])

    def test_rejects_out_of_order_feed_within_a_call(self):
        with pytest.raises(ValueError, match="nondecreasing start order"):
            ChannelPlanner().assign([1.0, 0.5], [2.0, 2.0])

    def test_rejects_empty_or_reversed_interval(self):
        with pytest.raises(ValueError, match="empty or reversed"):
            ChannelPlanner().assign([1.0], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ChannelPlanner().assign([np.nan], [2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ChannelPlanner().assign([1.0, 2.0], [3.0])

    def test_rejects_offsets_of_another_catalog(self):
        with pytest.raises(ValueError, match="3 bounds"):
            ChannelPlanner(2).assign([1.0], [2.0], [0, 1])

    def test_catalog_planner_needs_offsets(self):
        with pytest.raises(ValueError, match="needs offsets"):
            ChannelPlanner(2).assign([1.0], [2.0])

    def test_refused_catalog_batch_changes_nothing(self):
        planner = ChannelPlanner(2)
        planner.assign([1.0, 2.0], [4.0, 3.0], [0, 1, 2])
        before = [planner.state(k) for k in range(2)]
        # title 1's start goes back in time: the whole batch is refused
        with pytest.raises(ValueError, match="nondecreasing start order"):
            planner.assign([5.0, 1.0], [6.0, 2.0], [0, 1, 2])
        for k, (free_at, release_seq, seq, last) in enumerate(before):
            got = planner.state(k)
            assert got[0].tolist() == free_at.tolist()
            assert got[1].tolist() == release_seq.tolist()
            assert got[2:] == (seq, last)


@st.composite
def ragged_feeds(draw):
    """Per title, strictly increasing starts (a title's streams start at
    its distinct arrivals) on a coarse grid, so starts tie with release
    times, and their ends; and the cut points that split the feed into
    successive batches (empty titles and empty batches included)."""
    titles = draw(st.integers(1, 5))
    feeds = []
    for _ in range(titles):
        grid = sorted(draw(st.sets(st.integers(0, 40), max_size=25)))
        starts = np.array(grid, dtype=float) / 2
        n = starts.size
        spans = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), dtype=float) / 2
        feeds.append((starts, starts + spans))
    cuts = draw(st.lists(st.integers(0, 26), max_size=4))
    return feeds, sorted(set(cuts))


def _batches(feeds, cuts):
    """Each title's feed cut at the same positions: one ragged batch per
    piece, as ``(starts, ends, offsets)``."""
    edges = [0] + cuts + [max((s.size for s, _ in feeds), default=0)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts = [(s[lo:hi], e[lo:hi]) for s, e in feeds]
        offsets = np.cumsum([0] + [p[0].size for p in parts])
        yield (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            offsets,
        )


class TestCatalogPlanner:
    @settings(max_examples=150, deadline=None)
    @given(ragged_feeds())
    def test_one_call_per_batch_equals_a_planner_per_title(self, case):
        feeds, cuts = case
        catalog = ChannelPlanner(len(feeds))
        alone = [ChannelPlanner() for _ in feeds]
        got = [[] for _ in feeds]
        want = [[] for _ in feeds]
        for starts, ends, offsets in _batches(feeds, cuts):
            out = catalog.assign(starts, ends, offsets)
            assert out.dtype == np.intp and out.size == starts.size
            for k, planner in enumerate(alone):
                lo, hi = offsets[k], offsets[k + 1]
                got[k].append(out[lo:hi])
                want[k].append(planner.assign(starts[lo:hi], ends[lo:hi]))
        for k, (starts, ends) in enumerate(feeds):
            ids = np.concatenate(got[k]).astype(np.intp)
            np.testing.assert_array_equal(ids, np.concatenate(want[k]))
            np.testing.assert_array_equal(ids, assign_channels_flat(starts, ends))
            free_at, release_seq, seq, last = catalog.state(k)
            a_free, a_rel, a_seq, a_last = alone[k].state()
            assert (free_at.tolist(), release_seq.tolist(), seq, last) == (
                a_free.tolist(), a_rel.tolist(), a_seq, a_last
            )
        assert catalog.channels == sum(p.channels for p in alone)

    @settings(max_examples=100, deadline=None)
    @given(ragged_feeds(), st.integers(0, 26))
    def test_state_round_trips_through_resume(self, case, at):
        """Resuming every title's state mid-feed continues exactly as the
        planner that never stopped."""
        feeds, _cuts = case
        head = [(s[:at], e[:at]) for s, e in feeds]
        tail = [(s[at:], e[at:]) for s, e in feeds]
        (s0, e0, o0), = _batches(head, [])
        (s1, e1, o1), = _batches(tail, [])
        planner = ChannelPlanner(len(feeds))
        planner.assign(s0, e0, o0)
        resumed = ChannelPlanner(len(feeds))
        for k in range(len(feeds)):
            resumed.resume(k, *planner.state(k))
        for k in range(len(feeds)):
            a, b = planner.state(k), resumed.state(k)
            assert (a[0].tolist(), a[1].tolist(), a[2:]) == (b[0].tolist(), b[1].tolist(), b[2:])
        np.testing.assert_array_equal(
            resumed.assign(s1, e1, o1), planner.assign(s1, e1, o1)
        )
