"""The numpy kernels of :mod:`repro.scale.kernels` against independent
references.

Each kernel must equal, bit for bit on adversarial inputs, a reference
that computes the same thing another way: ``np.searchsorted`` for the
sorted-table lookup, the two-pointer bucketing and the per-client
replay walk of ``tests/scale/oracles.py``, a brute-force ancestor walk
for the subtree maxima, the cubic DP for the Knuth tables and the event
policy's deque window for the hysteresis scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.general import _merge_tables
from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.general import general_merge_tables
from repro.scale import kernels as K

from tests.scale.oracles import (
    bucket_slots_two_pointer,
    forest_z_ancestors,
    replay_walk_per_client,
)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: sorted float arrival times (duplicates allowed — bucket_slots only
#: requires non-decreasing input)
sorted_times = st.lists(
    st.floats(0.0, 50.0, allow_nan=False), min_size=0, max_size=60
).map(lambda xs: np.sort(np.asarray(xs, dtype=np.float64)))

#: strictly increasing slot end times
slot_ends = st.lists(
    st.floats(0.25, 4.0, allow_nan=False), min_size=1, max_size=40
).map(lambda xs: np.cumsum(np.asarray(xs, dtype=np.float64)))

#: per-slot arrival counts (hysteresis-scan input), biased toward runs of
#: zeros and small bursts so the mode trajectory actually switches
slot_counts = st.lists(
    st.one_of(st.just(0), st.integers(0, 5)), min_size=0, max_size=80
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@st.composite
def ragged_bucketing(draw):
    """Several objects' sorted times end to end, shared slot ends and a
    per-object slot count (0 included: every arrival past the last slot)."""
    ends = draw(slot_ends)
    objects = draw(st.lists(sorted_times, min_size=1, max_size=6))
    nslots = [draw(st.integers(0, ends.size)) for _ in objects]
    offsets = np.cumsum([0] + [t.size for t in objects])
    return objects, offsets, np.asarray(nslots), ends


#: entries a table strategy mixes in: subnormals, the smallest normal,
#: and the ends of a 600-decade range
SPECIAL_ENTRIES = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300]


@st.composite
def sorted_tables(draw):
    """Non-decreasing float64 tables for :class:`SortedTable`: one entry
    or many, ties, one-ULP and sub-``2**-16`` relative gaps, subnormal
    entries, ranges across 600 decades, and now and then a non-positive
    entry (such tables always bisect)."""
    values = draw(st.lists(
        st.one_of(
            st.floats(min_value=5e-324, max_value=1e300),
            st.sampled_from(SPECIAL_ENTRIES),
        ),
        min_size=1, max_size=16,
    ))
    for v in list(values):
        near = draw(st.sampled_from(["none", "tie", "ulp", "tight"]))
        if near == "tie":
            values.append(v)
        elif near == "ulp":
            values.append(float(np.nextafter(v, np.inf)))
        elif near == "tight":
            values.append(v * (1.0 + 2.0 ** -draw(st.integers(17, 45))))
    if draw(st.integers(0, 4)) == 0:
        values.append(draw(st.sampled_from([0.0, -0.0, -1.0, -1e300])))
    return np.sort(np.asarray(values, dtype=np.float64))


def _table_keys(table, extra):
    """Every entry, one ULP either side of it, +-0, +-inf, negatives."""
    keys = [0.0, -0.0, np.inf, -np.inf, -1.0, -5e-324, -1e300, 1.0, *extra]
    for v in table.tolist():
        keys += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    return np.asarray(keys, dtype=np.float64)


@pytest.fixture(params=["shipped", "lookup-forced"])
def table_side(request, monkeypatch):
    """:class:`SortedTable` as shipped (arrays as small as these bisect),
    and with every call on the bucket-table side: no size check, no walk
    cap, and 7-key blocks so that calls cross block seams."""
    if request.param == "lookup-forced":
        monkeypatch.setattr(K, "LOOKUP_MIN_KEYS", 0)
        monkeypatch.setattr(K, "LOOKUP_KEYS_PER_BUCKET", 0)
        monkeypatch.setattr(K, "MAX_WALK", 10**9)
        monkeypatch.setattr(K, "LOOKUP_BLOCK", 7)
    return request.param


def _hysteresis_reference(counts, window, rate_high, rate_low):
    """The event ``HybridPolicy`` mode trajectory, deque window and all."""
    from collections import deque

    recent = deque(maxlen=window)
    mode, out = 0, []
    for c in counts:
        recent.append(c)
        rate = sum(recent) / len(recent)
        if mode == 0 and rate >= rate_high:
            mode = 1
        elif mode == 1 and rate < rate_low:
            mode = 0
        out.append(mode)
    return out


@st.composite
def random_forest(draw, max_n: int = 50):
    """A structurally valid FlatForest (contiguous trees, parent < i)
    over integer arrivals — the replay kernels' input domain."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    gaps = draw(
        st.lists(
            st.integers(min_value=1, max_value=6), min_size=n - 1, max_size=n - 1
        )
    )
    arr = np.concatenate([[0.0], np.cumsum(gaps, dtype=np.float64)])
    par = np.full(n, -1, dtype=np.intp)
    root = 0
    for i in range(1, n):
        if draw(st.booleans()) and draw(st.booleans()):
            root = i  # new tree
        else:
            par[i] = draw(st.integers(min_value=root, max_value=i - 1))
    return FlatForest(arr, par)


# ---------------------------------------------------------------------------
# dispatch semantics
# ---------------------------------------------------------------------------


class TestBackendConfig:
    def test_numpy_always_available(self):
        assert K.configure_backend("numpy") == "numpy"
        assert K.active_backend() == "numpy"

    def test_auto_resolves_by_availability(self):
        assert K.configure_backend("auto") == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            K.configure_backend("cython")

    def test_numba_request_raises_without_numba(self):
        """numpy is the only backend: asking for numba is an error and
        changes nothing."""
        with pytest.raises(ValueError, match="'numba'"):
            K.configure_backend("numba")
        assert K.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# kernels == independent references (bit-identical)
# ---------------------------------------------------------------------------


class TestKernelsMatchOracles:
    @settings(max_examples=60, deadline=None)
    @given(sorted_times, slot_ends)
    def test_bucket_slots(self, times, ends):
        cs, served = K.bucket_slots(times, ends)
        offsets = np.array([0, times.size], dtype=np.intp)
        ref = bucket_slots_two_pointer(times, offsets, np.array([ends.size]), ends)
        assert np.array_equal(cs, ref)
        assert np.array_equal(served, np.unique(ref[ref >= 0]))

    @settings(max_examples=60, deadline=None)
    @given(ragged_bucketing())
    def test_bucket_slots_ragged(self, case):
        """The ragged kernel equals the two-pointer walk restarted per
        object, and one call per object."""
        objects, offsets, nslots, ends = case
        times = np.concatenate(objects)
        cs, served, served_offsets = K.bucket_slots(times, ends, offsets, nslots)
        assert np.array_equal(
            cs, bucket_slots_two_pointer(times, offsets, nslots, ends)
        )
        for k, obj in enumerate(objects):
            one_cs, one_served = K.bucket_slots(obj, ends[: nslots[k]])
            assert np.array_equal(cs[offsets[k] : offsets[k + 1]], one_cs)
            lo, hi = served_offsets[k], served_offsets[k + 1]
            assert np.array_equal(served[lo:hi], one_served)
            assert np.array_equal(one_served, np.unique(one_cs[one_cs >= 0]))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sorted_tables(), st.lists(st.floats(allow_nan=False), max_size=8))
    def test_sorted_table(self, table_side, table, extra):
        """``index`` is ``np.searchsorted(side="right")`` exactly, on both
        sides of the size check."""
        keys = _table_keys(table, extra)
        sorted_table = K.SortedTable(table)
        got = sorted_table.index(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(table, keys, side="right"))
        looked_up = sorted_table._walk is not None
        assert looked_up == (table_side == "lookup-forced" and table[0] > 0)
        # a 2-D key array keeps its shape; a strided one reads the same
        square = keys[: keys.size // 2 * 2].reshape(2, -1)
        for other in (square, keys[::-1]):
            assert np.array_equal(
                sorted_table.index(other), np.searchsorted(table, other, side="right")
            )

    @settings(max_examples=60, deadline=None)
    @given(random_forest())
    def test_forest_z(self, forest):
        arr, par = forest.arrivals, forest.parent
        z = K.forest_z(arr, par)
        assert np.array_equal(z, forest_z_ancestors(arr, par))
        assert np.array_equal(z, forest.z)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=45), st.integers(0, 10_000))
    def test_knuth_tables(self, n, seed):
        """The Knuth-windowed tables equal the full-scan cubic DP's,
        largest-optimal-split tie-break included."""
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.integers(1, 7, size=n)).astype(np.float64).tolist()
        cost, split = general_merge_tables(ts)
        cost_ref, split_ref = _merge_tables(ts)
        assert cost == cost_ref
        assert split == split_ref

    @settings(max_examples=60, deadline=None)
    @given(random_forest(), st.sampled_from([2, 4, 7, 15, 40]),
           st.sampled_from(["receive-two", "receive-all"]))
    def test_replay_walk(self, forest, L, model):
        """Equal to the per-client walk, and clean: a valid forest with
        its model's stream lengths over-demands no stream."""
        arr, par = forest.arrivals, forest.parent
        lengths = forest.stream_lengths(L, model)
        out = K.replay_walk(arr, par, lengths, float(L), model)
        demanded, t2max, used, fails = replay_walk_per_client(
            arr, par, lengths, float(L), model == "receive-two"
        )
        assert np.array_equal(out[0], demanded)
        assert np.array_equal(out[1], t2max)
        assert out[2] == used
        assert out[3].size == fails == 0

    @settings(max_examples=30, deadline=None)
    @given(random_forest(max_n=30), st.sampled_from([3, 6, 12]))
    def test_replay_walk_fail_count_on_corrupted_lengths(self, forest, L):
        """Shorten streams so demands overflow: the kernel's failure
        records must number the per-client walk's failures."""
        arr, par = forest.arrivals, forest.parent
        lengths = forest.stream_lengths(L, "receive-two") * 0.5
        out = K.replay_walk(arr, par, lengths, float(L), "receive-two")
        _, _, _, fails = replay_walk_per_client(arr, par, lengths, float(L), True)
        assert out[3].size == fails

    def test_replay_walk_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            K.replay_walk(
                np.zeros(1), np.full(1, -1, dtype=np.intp), np.zeros(1), 4.0,
                "receive-three",
            )

    @settings(max_examples=60, deadline=None)
    @given(slot_counts, st.integers(1, 8),
           st.floats(0.0, 4.0), st.floats(0.0, 1.0))
    def test_hysteresis_scan(self, counts, window, rate_high, low_frac):
        """The kernel's running sum equals the event policy's deque-window
        reference model."""
        rate_low = rate_high * low_frac
        mode = K.hysteresis_scan(counts, window, rate_high, rate_low)
        assert mode.tolist() == _hysteresis_reference(
            counts.tolist(), window, rate_high, rate_low
        )

    def test_hysteresis_scan_validates_inputs(self):
        counts = np.zeros(3, dtype=np.int64)
        for window in (0, 2.5, True):
            with pytest.raises(ValueError, match="window"):
                K.hysteresis_scan(counts, window, 1.0, 0.5)
        assert K.hysteresis_scan(counts, np.int64(2), 1.0, 0.5).tolist() == [0, 0, 0]
        with pytest.raises(ValueError, match="rate_low"):
            K.hysteresis_scan(counts, 2, 1.0, 2.0)
        with pytest.raises(ValueError, match="rate_low"):
            K.hysteresis_scan(counts, 2, 1.0, -0.1)

    def test_hysteresis_scan_empty_counts(self):
        out = K.hysteresis_scan(np.empty(0, dtype=np.int64), 3, 1.0, 0.5)
        assert out.size == 0 and out.dtype == np.int8


class TestSortedTableSizes:
    """The shipped constants at the sizes the three callers use."""

    def test_hot_sizes_look_up_and_small_calls_bisect(self):
        from repro.fastpath.dyadic import _power_tables
        from repro.multiplex.catalog import zipf_weights

        rng = np.random.default_rng(5)
        cdf = zipf_weights(1000).cumsum()
        cdf /= cdf[-1]
        slot_ends = np.arange(1, 721, dtype=np.float64) * 2.0
        edges, _ = _power_tables(1.3)
        for table, keys in (
            (cdf, rng.random(200_000)),
            (slot_ends, np.sort(rng.uniform(0.0, 1440.0, 60_000))),
            (edges, rng.random(2**12) ** 8),
        ):
            small = K.SortedTable(table)
            assert np.array_equal(
                small.index(keys[:100]), np.searchsorted(table, keys[:100], side="right")
            )
            assert small._walk is None  # 100 keys bisect
            hot = K.SortedTable(table)
            assert np.array_equal(hot.index(keys), np.searchsorted(table, keys, side="right"))
            assert hot._walk is not None

    def test_crowded_bucket_bisects(self):
        """A cluster the bucket cap cannot split takes the bisection."""
        table = np.append(1.0 + np.arange(200) * 2.0**-40, 1e300)
        cluster = np.random.default_rng(1).uniform(1.0, 1.0 + 2.0**-32, 2**20)
        keys = np.concatenate([table, cluster])
        sorted_table = K.SortedTable(table)
        assert np.array_equal(
            sorted_table.index(keys), np.searchsorted(table, keys, side="right")
        )
        assert sorted_table._walk is None

    @pytest.mark.parametrize("table", [
        [1.0, np.nan], [1.0, np.inf], [-np.inf, 1.0], [2.0, 1.0], [[1.0, 2.0]],
    ])
    def test_rejects_bad_tables(self, table):
        with pytest.raises(ValueError, match="sorted table"):
            K.SortedTable(table)

    def test_empty_and_non_positive_tables_bisect(self):
        keys = np.linspace(-2.0, 2.0, 2**16)
        for table in (np.empty(0), np.array([0.0, 1.0]), np.array([-1.0, 1.0])):
            sorted_table = K.SortedTable(table)
            assert np.array_equal(
                sorted_table.index(keys), np.searchsorted(table, keys, side="right")
            )
            assert sorted_table._walk is None


class TestRaggedBucketValidation:
    def test_rejects_bad_slot_counts(self):
        times = np.array([0.5, 1.5, 0.2])
        ends = np.array([1.0, 2.0])
        for nslots in ([1], [1, 3], [-1, 1]):
            with pytest.raises(ValueError, match="slot count"):
                K.bucket_slots(times, ends, [0, 2, 3], nslots)

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError, match="offsets"):
            K.bucket_slots(np.array([0.5]), np.array([1.0]), [0, 2], [1])
