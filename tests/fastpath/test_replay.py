"""Batched replay verification vs. the per-client oracle — report-for-report.

Satellite contract of the flat-simulation PR: on randomized forests
(optimal, on-line, buffer-bounded, receive-all, dyadic-continuous) the
batched replay must produce *identical* ``VerificationReport``s to the
object-walk oracle — same ok flag, same check count, same failure set —
including on corrupted forests with injected violations (mutated parent
pointers, shortened streams via tampered subtree maxima, buffer bound
breaches).  Every case that runs the continuous verifier runs with its
walk and per-node checks in blocks of 1 and 7 nodes as well as the
shipped ``WALK_BLOCK``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dyadic import dyadic_forest
from repro.fastpath.dyadic import dyadic_flat_forest
from repro.core.buffers import build_optimal_bounded_forest
from repro.core.full_cost import build_optimal_forest
from repro.core.online import build_online_forest
from repro.core.receive_all import build_optimal_forest_receive_all
from repro.fastpath.flat_forest import FlatForest, as_flat_forest
import repro.fastpath.replay as replay
from repro.fastpath.replay import (
    WALK_BLOCK,
    replay_verify_forest,
    replay_verify_forest_continuous,
)
from repro.simulation.verify import (
    verify_forest,
    verify_forest_continuous,
    verify_forest_continuous_reference,
    verify_forest_reference,
)

from tests.conftest import increasing_times_exact


def assert_reports_equal(ref, fast, ctx=""):
    assert fast.ok == ref.ok, (ctx, ref.failures, fast.failures)
    assert fast.checks == ref.checks, (ctx, ref.checks, fast.checks)
    assert sorted(fast.failures) == sorted(ref.failures), ctx


small_L = st.sampled_from([4, 7, 10, 15, 30])
small_n = st.integers(min_value=1, max_value=90)

#: the block fixture is function-scoped; it only sets a module constant,
#: which holds for every example alike
BLOCK_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(params=[1, 7, WALK_BLOCK], ids=["block1", "block7", "shipped"])
def walk_block(request, monkeypatch):
    """Walk and check the nodes 1, 7 or the shipped number at a time."""
    monkeypatch.setattr(replay, "WALK_BLOCK", request.param)
    return request.param


class TestValidForests:
    @settings(max_examples=40, deadline=None)
    @given(small_L, small_n)
    def test_optimal_forests(self, L, n):
        forest = build_optimal_forest(L, n)
        for model in ("receive-two", "receive-all"):
            assert_reports_equal(
                verify_forest_reference(forest, L, model=model),
                replay_verify_forest(forest, L, model=model),
                (L, n, model),
            )

    @pytest.mark.usefixtures("walk_block")
    @settings(BLOCK_SETTINGS, max_examples=30)
    @given(small_L, small_n)
    def test_online_forests(self, L, n):
        forest = build_online_forest(L, n)
        assert_reports_equal(
            verify_forest_reference(forest, L),
            replay_verify_forest(forest, L),
            (L, n),
        )
        assert_reports_equal(
            verify_forest_continuous_reference(forest, L),
            replay_verify_forest_continuous(forest, L),
            (L, n, "continuous"),
        )

    def test_receive_all_forests(self):
        for L, n in [(20, 30), (10, 57), (8, 8)]:
            forest = build_optimal_forest_receive_all(L, n)
            assert_reports_equal(
                verify_forest_reference(forest, L, model="receive-all"),
                replay_verify_forest(forest, L, model="receive-all"),
                (L, n),
            )

    def test_bounded_forests_with_buffer_bound(self):
        forest = build_optimal_bounded_forest(30, 50, 10)
        for bound in (10, 3, 1):
            assert_reports_equal(
                verify_forest_reference(forest, 30, buffer_bound=bound),
                replay_verify_forest(forest, 30, buffer_bound=bound),
                bound,
            )

    @pytest.mark.usefixtures("walk_block")
    @settings(BLOCK_SETTINGS, max_examples=30)
    @given(increasing_times_exact(min_size=1, max_size=35, horizon=300.0))
    def test_dyadic_continuous(self, times):
        forest = dyadic_forest(times, 100)
        assert_reports_equal(
            verify_forest_continuous_reference(forest, 100),
            replay_verify_forest_continuous(forest, 100),
        )


def _mutate_parent(flat: FlatForest, rng: random.Random) -> FlatForest:
    """Reattach one non-root node to a different earlier node of its tree."""
    par = flat.parent.copy()
    candidates = [
        i
        for i in range(1, len(flat))
        if i - int(flat.root_index[i]) >= 2
    ]
    if not candidates:
        return flat
    i = rng.choice(candidates)
    lo = int(flat.root_index[i])
    choices = [j for j in range(lo, i) if j != int(par[i])]
    par[i] = rng.choice(choices)
    return FlatForest(flat.arrivals.copy(), par)


class TestInjectedViolations:
    """Corrupted forests must fail identically in both replays."""

    @pytest.mark.usefixtures("walk_block")
    def test_mutated_parents(self):
        rng = random.Random(11)
        failing = 0
        for _ in range(60):
            L = rng.choice([6, 10, 15])
            n = rng.randint(4, 70)
            mutated = _mutate_parent(
                as_flat_forest(build_optimal_forest(L, n)), rng
            )
            for model in ("receive-two", "receive-all"):
                ref = verify_forest_reference(mutated, L, model=model)
                fast = replay_verify_forest(mutated, L, model=model)
                assert_reports_equal(ref, fast, (L, n, model))
                failing += 0 if ref.ok else 1
            assert_reports_equal(
                verify_forest_continuous_reference(mutated, L),
                replay_verify_forest_continuous(mutated, L),
                (L, n, "continuous"),
            )
        assert failing > 0  # the injection does produce real violations

    def test_shortened_stream(self):
        """Tampering z shortens Lemma 1 lengths: sufficiency must fail."""
        rng = random.Random(13)
        failing = 0
        for _ in range(40):
            L = rng.choice([8, 15])
            n = rng.randint(3, 60)
            flat = as_flat_forest(build_optimal_forest(L, n))
            j = rng.randrange(n)
            flat.z[j] = flat.arrivals[j]  # pretend the subtree ends at j
            ref = verify_forest_reference(flat, L)
            fast = replay_verify_forest(flat, L)
            assert_reports_equal(ref, fast, (L, n, j))
            failing += 0 if ref.ok else 1
        assert failing > 0

    def test_buffer_bound_breach(self):
        forest = build_optimal_forest(30, 50)
        ref = verify_forest_reference(forest, 30, buffer_bound=1)
        fast = replay_verify_forest(forest, 30, buffer_bound=1)
        assert_reports_equal(ref, fast)
        assert not ref.ok
        assert any("buffer" in f for f in fast.failures)

    @pytest.mark.usefixtures("walk_block")
    def test_dense_dyadic_forest_with_a_deep_corruption(self):
        """A dense dyadic forest (its first levels are split in phase 1 at
        the shipped ratio) whose deepest node is moved under the latest
        earlier node off its root path, the stored subtree maxima kept:
        the new ancestors' streams are too short for it, the old ones'
        too long, several levels up."""
        rng = random.Random(23)
        ts = sorted(rng.sample(range(1, 400_000), 6000))
        flat = dyadic_flat_forest([0.0] + [t / 4000.0 for t in ts], 200)
        par = flat.parent.tolist()
        depth = [0] * len(par)
        for i in range(1, len(par)):
            depth[i] = depth[par[i]] + 1 if par[i] >= 0 else 0
        deep = max(range(len(par)), key=depth.__getitem__)
        assert depth[deep] >= 6
        path = set(flat.path_indices(deep))
        par[deep] = max(j for j in range(deep) if j not in path)
        corrupt = FlatForest(flat.arrivals, par, z=flat.z)
        ref = verify_forest_continuous_reference(corrupt, 200)
        assert len(ref.failures) >= 5
        assert any("needs position" in f for f in ref.failures)
        assert_reports_equal(ref, replay_verify_forest_continuous(corrupt, 200))

    @pytest.mark.usefixtures("walk_block")
    def test_not_tight_replays_only_the_affected_trees(self, monkeypatch):
        """Tampered subtree maxima in two of many dyadic trees: the
        not-tight messages equal the oracle's, and no root path is built:
        the demands in them are the walk's own maxima."""
        rng = random.Random(29)
        ts = sorted(rng.sample(range(1, 200_000), 3000))
        flat = dyadic_flat_forest([t / 100.0 for t in ts], 100)
        starts = np.flatnonzero(flat.parent < 0)
        ends = np.append(starts[1:], len(flat))
        assert starts.size >= 10
        z = flat.z.copy()
        for k in (2, 7):
            lo, hi = int(starts[k]), int(ends[k])
            inner = np.intersect1d(np.arange(lo + 1, hi), flat.parent[lo:hi])
            z[inner[0]] = flat.arrivals[inner[0]]  # its subtree "ends" at it
        corrupt = FlatForest(flat.arrivals, flat.parent, z=z)
        ref = verify_forest_continuous_reference(corrupt, 100)
        assert sum("not tight" in f for f in ref.failures) >= 2
        built = []
        paths = FlatForest.paths

        def spy(self, labels=None):
            built.append(len(self))
            return paths(self, labels)

        monkeypatch.setattr(FlatForest, "paths", spy)
        assert_reports_equal(ref, replay_verify_forest_continuous(corrupt, 100))
        assert built == []

    def test_infeasible_span(self):
        from repro.core.merge_tree import MergeForest, star_tree

        forest = MergeForest([star_tree([0, 1, 12])])
        ref = verify_forest_reference(forest, 10)
        fast = replay_verify_forest(forest, 10)
        assert_reports_equal(ref, fast)
        assert not fast.ok and "infeasible" in fast.failures[0]


class TestErrorPaths:
    def test_non_integer_arrivals_raise(self):
        forest = dyadic_forest([0.0, 0.5, 1.5], 10)
        with pytest.raises(ValueError, match="slotted"):
            verify_forest_reference(forest, 10)
        with pytest.raises(ValueError, match="slotted"):
            replay_verify_forest(forest, 10)

    @pytest.mark.parametrize("L", [float("inf"), float("nan")])
    def test_non_finite_L_rejected(self, L):
        """All four verifiers refuse before any work.  With L = inf the
        batched ones used to report ok while the oracles disagreed (or
        raised TypeError); with NaN the continuous pair counted 5 checks
        against 9."""
        forest = FlatForest([0.0, 1.0, 3.0], [-1, 0, 0])
        for verify in (
            replay_verify_forest,
            verify_forest_reference,
            replay_verify_forest_continuous,
            verify_forest_continuous_reference,
        ):
            with pytest.raises(ValueError, match="L must be finite"):
                verify(forest, L)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_buffer_bound_rejected(self, bound):
        """NaN compares false, so a NaN bound used to pass the batched
        verifier while the oracle failed 50 of the same 426 checks.  Both
        refuse a non-finite bound; None stays the way to say "no bound"."""
        forest = build_optimal_forest(30, 50)
        for verify in (replay_verify_forest, verify_forest_reference):
            with pytest.raises(ValueError, match="buffer_bound must be finite"):
                verify(forest, 30, buffer_bound=bound)

    @pytest.mark.parametrize("L", [0, -3])
    def test_non_positive_L_is_an_infeasible_record(self, L):
        forest = FlatForest([0.0, 1.0, 3.0], [-1, 0, 0])
        for fast, ref in (
            (replay_verify_forest, verify_forest_reference),
            (replay_verify_forest_continuous, verify_forest_continuous_reference),
        ):
            report = fast(forest, L)
            assert_reports_equal(ref(forest, L), report)
            assert report.checks == 1 and "infeasible" in report.failures[0]

    def test_unknown_model(self):
        forest = build_optimal_forest(10, 5)
        with pytest.raises(ValueError, match="unknown model"):
            replay_verify_forest(forest, 10, model="receive-three")

    def test_public_entry_points_are_flat(self):
        """verify_forest / verify_forest_continuous run the batched path
        and stay interchangeable with the oracle."""
        forest = build_optimal_forest(15, 40)
        assert_reports_equal(
            verify_forest_reference(forest, 15), verify_forest(forest, 15)
        )
        assert_reports_equal(
            verify_forest_continuous_reference(forest, 15),
            verify_forest_continuous(forest, 15),
        )
