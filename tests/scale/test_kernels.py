"""Backend-selected kernels: dispatch semantics + fallback/JIT equality.

The contract this file pins: for every kernel in
:mod:`repro.scale.kernels`, the scalar body (the code numba compiles) is
**bit-identical** to the fallback path (the pre-JIT production code) on
adversarial inputs.  The scalar bodies are plain Python, so the equality
half runs everywhere; the ``TestJitBackend`` class additionally
exercises the actually-compiled dispatchers and is skipped on
numpy-only environments (the satellite contract: the full suite passes
unchanged without numba).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.flat_forest import FlatForest
from repro.fastpath.general import _knuth_tables
from repro.scale import kernels as K


@pytest.fixture(autouse=True)
def _restore_backend():
    before = K.active_backend()
    yield
    K.configure_backend(before)


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
        expected = "numba" if K.HAVE_NUMBA else "numpy"
        assert K.configure_backend("auto") == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            K.configure_backend("cython")

    @pytest.mark.skipif(K.HAVE_NUMBA, reason="needs a numpy-only environment")
    def test_numba_request_degrades_without_numba(self, caplog):
        """Asking for numba without numba never raises: one warning,
        numpy fallback (the graceful-degradation satellite)."""
        K._WARNED_NUMBA_MISSING = False
        with caplog.at_level(logging.WARNING, logger="repro.scale"):
            assert K.configure_backend("numba") == "numpy"
            assert K.configure_backend("numba") == "numpy"
        assert sum("numba" in r.message for r in caplog.records) == 1  # one-time


# ---------------------------------------------------------------------------
# scalar bodies == fallback paths (bit-identical), no numba required
# ---------------------------------------------------------------------------


class TestScalarBodiesMatchFallbacks:
    @settings(max_examples=60, deadline=None)
    @given(sorted_times, slot_ends)
    def test_bucket_slots_body(self, times, ends):
        K.configure_backend("numpy")
        cs_ref, served_ref = K.bucket_slots(times, ends)
        cs = np.empty(times.size, dtype=np.intp)
        offsets = np.array([0, times.size], dtype=np.intp)
        K._bucket_slots_body(times, offsets, np.array([ends.size]), ends, cs)
        assert np.array_equal(cs, cs_ref)
        assert np.array_equal(np.unique(cs[cs >= 0]), served_ref)

    @settings(max_examples=60, deadline=None)
    @given(ragged_bucketing())
    def test_bucket_slots_ragged_body(self, case):
        """The ragged body restarts its pointer per object and equals the
        ragged fallback, which equals one call per object."""
        objects, offsets, nslots, ends = case
        times = np.concatenate(objects)
        K.configure_backend("numpy")
        cs_ref, served_ref, served_offsets = K.bucket_slots(
            times, ends, offsets, nslots
        )
        cs = np.empty(times.size, dtype=np.intp)
        K._bucket_slots_body(times, offsets, nslots, ends, cs)
        assert np.array_equal(cs, cs_ref)
        for k, obj in enumerate(objects):
            one_cs, one_served = K.bucket_slots(obj, ends[: nslots[k]])
            assert np.array_equal(cs_ref[offsets[k] : offsets[k + 1]], one_cs)
            lo, hi = served_offsets[k], served_offsets[k + 1]
            assert np.array_equal(served_ref[lo:hi], one_served)
            assert np.array_equal(one_served, np.unique(one_cs[one_cs >= 0]))

    @settings(max_examples=60, deadline=None)
    @given(random_forest())
    def test_forest_z_body(self, forest):
        arr, par = forest.arrivals, forest.parent
        z_ref = K.forest_z(arr, par)  # list-loop fallback
        z = arr.copy()
        K._forest_z_body(arr, par, z)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(z_ref, forest.z)  # and both match FlatForest

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=45), st.integers(0, 10_000))
    def test_knuth_tables_body(self, n, seed):
        K.configure_backend("numpy")  # make _knuth_tables run the list DP
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.integers(1, 7, size=n)).astype(np.float64)
        cost2d, split2d = K.knuth_tables(ts)  # always the scalar body
        assert cost2d.shape == (n, n) and split2d.shape == (n, n)
        if n:
            cost_ref, split_ref = _knuth_tables(ts.tolist())
            assert cost2d.tolist() == cost_ref
            assert split2d.tolist() == split_ref

    @settings(max_examples=60, deadline=None)
    @given(random_forest(), st.sampled_from([2, 4, 7, 15, 40]),
           st.sampled_from(["receive-two", "receive-all"]))
    def test_replay_walk_body(self, forest, L, model):
        arr, par = forest.arrivals, forest.parent
        lengths = forest.stream_lengths(L, model)
        ref = K._replay_walk_numpy(arr, par, lengths, float(L), model)
        demanded = np.empty(arr.size, dtype=np.float64)
        t2max = np.full(arr.size, -np.inf)
        used, fails = K._replay_walk_body(
            arr, par, lengths, float(L), model == "receive-two", demanded, t2max
        )
        assert np.array_equal(demanded, ref[0])
        assert np.array_equal(t2max, ref[1])
        assert used == ref[2]
        assert fails == ref[3].size  # same failure *count*; records via numpy

    @settings(max_examples=30, deadline=None)
    @given(random_forest(max_n=30), st.sampled_from([3, 6, 12]))
    def test_replay_walk_fail_count_on_corrupted_lengths(self, forest, L):
        """Shorten streams so demands overflow: the scalar body's failure
        count must equal the numpy walk's failure-record count."""
        arr, par = forest.arrivals, forest.parent
        lengths = forest.stream_lengths(L, "receive-two") * 0.5
        ref = K._replay_walk_numpy(arr, par, lengths, float(L), "receive-two")
        demanded = np.empty(arr.size, dtype=np.float64)
        t2max = np.full(arr.size, -np.inf)
        _, fails = K._replay_walk_body(
            arr, par, lengths, float(L), True, demanded, t2max
        )
        assert fails == ref[3].size

    def test_replay_walk_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            K.replay_walk(
                np.zeros(1), np.full(1, -1, dtype=np.intp), np.zeros(1), 4.0,
                "receive-three",
            )

    @settings(max_examples=60, deadline=None)
    @given(slot_counts, st.integers(1, 8),
           st.floats(0.0, 4.0), st.floats(0.0, 1.0))
    def test_hysteresis_scan_body(self, counts, window, rate_high, low_frac):
        rate_low = rate_high * low_frac
        K.configure_backend("numpy")
        ref = K.hysteresis_scan(counts, window, rate_high, rate_low)
        mode = np.empty(counts.size, dtype=np.int8)
        K._hysteresis_scan_body(
            counts.astype(np.int64), window, rate_high, rate_low, mode
        )
        assert np.array_equal(mode, ref)
        # And both match the event policy's deque-window reference model.
        assert mode.tolist() == _hysteresis_reference(
            counts.tolist(), window, rate_high, rate_low
        )

    def test_hysteresis_scan_validates_inputs(self):
        counts = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="window"):
            K.hysteresis_scan(counts, 0, 1.0, 0.5)
        with pytest.raises(ValueError, match="rate_low"):
            K.hysteresis_scan(counts, 2, 1.0, 2.0)
        with pytest.raises(ValueError, match="rate_low"):
            K.hysteresis_scan(counts, 2, 1.0, -0.1)

    def test_hysteresis_scan_empty_counts(self):
        out = K.hysteresis_scan(np.empty(0, dtype=np.int64), 3, 1.0, 0.5)
        assert out.size == 0 and out.dtype == np.int8


# ---------------------------------------------------------------------------
# the compiled dispatchers (JIT path; skipped on numpy-only environments)
# ---------------------------------------------------------------------------


class TestJitBackend:
    pytestmark = pytest.mark.skipif(
        not K.HAVE_NUMBA, reason="numba not installed (repro[fast] extra)"
    )

    @settings(max_examples=25, deadline=None)
    @given(sorted_times, slot_ends)
    def test_bucket_slots_backends_identical(self, times, ends):
        K.configure_backend("numpy")
        ref = K.bucket_slots(times, ends)
        K.configure_backend("numba")
        jit = K.bucket_slots(times, ends)
        assert np.array_equal(jit[0], ref[0])
        assert np.array_equal(jit[1], ref[1])

    @settings(max_examples=25, deadline=None)
    @given(ragged_bucketing())
    def test_bucket_slots_ragged_backends_identical(self, case):
        objects, offsets, nslots, ends = case
        times = np.concatenate(objects)
        K.configure_backend("numpy")
        ref = K.bucket_slots(times, ends, offsets, nslots)
        K.configure_backend("numba")
        jit = K.bucket_slots(times, ends, offsets, nslots)
        for a, b in zip(jit, ref):
            assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(random_forest())
    def test_forest_z_backends_identical(self, forest):
        arr, par = forest.arrivals, forest.parent
        K.configure_backend("numpy")
        ref = K.forest_z(arr, par)
        K.configure_backend("numba")
        assert np.array_equal(K.forest_z(arr, par), ref)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 10_000))
    def test_knuth_tables_backends_identical(self, n, seed):
        # dispatch for this kernel lives in general._knuth_tables
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.integers(1, 7, size=n)).astype(np.float64).tolist()
        K.configure_backend("numpy")
        cost_ref, split_ref = _knuth_tables(ts)
        K.configure_backend("numba")
        cost, split = _knuth_tables(ts)
        assert cost == cost_ref
        assert split == split_ref

    @settings(max_examples=25, deadline=None)
    @given(random_forest(), st.sampled_from([2, 7, 15]),
           st.sampled_from(["receive-two", "receive-all"]))
    def test_replay_walk_backends_identical(self, forest, L, model):
        arr, par = forest.arrivals, forest.parent
        lengths = forest.stream_lengths(L, model)
        K.configure_backend("numpy")
        ref = K.replay_walk(arr, par, lengths, float(L), model)
        K.configure_backend("numba")
        jit = K.replay_walk(arr, par, lengths, float(L), model)
        for a, b in zip(jit, ref):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b

    @settings(max_examples=25, deadline=None)
    @given(slot_counts, st.integers(1, 8),
           st.floats(0.0, 4.0), st.floats(0.0, 1.0))
    def test_hysteresis_scan_backends_identical(
        self, counts, window, rate_high, low_frac
    ):
        rate_low = rate_high * low_frac
        K.configure_backend("numpy")
        ref = K.hysteresis_scan(counts, window, rate_high, rate_low)
        K.configure_backend("numba")
        assert np.array_equal(
            K.hysteresis_scan(counts, window, rate_high, rate_low), ref
        )


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
