"""Tests for media catalogs and Zipf popularity."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.multiplex import Catalog, MediaObject, zipf_weights


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(10, 0.8)
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()

    def test_decreasing(self):
        w = zipf_weights(20, 1.0)
        assert (np.diff(w) < 0).all()

    def test_exponent_zero_uniform(self):
        w = zipf_weights(5, 0.0)
        assert np.allclose(w, 0.2)

    def test_errors(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, -1.0)

    @pytest.mark.parametrize("count,exponent", [(120, 200.0), (3, 1e308)])
    def test_overflowing_exponent_rejected_without_warning(self, count, exponent):
        """k ** exponent overflows to inf: a ValueError naming the
        exponent, not numpy's overflow RuntimeWarning and a zero weight."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exponent"):
                zipf_weights(count, exponent)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, exponent):
        """NaN used to give all-NaN weights that failed inside sampling."""
        with pytest.raises(ValueError, match="finite"):
            zipf_weights(3, exponent)


class TestMediaObject:
    def test_units(self):
        movie = MediaObject("m", 120.0, 1.0)
        assert movie.units(15.0) == 8
        assert movie.units(7.0) == 17
        assert MediaObject("short", 3.0, 1.0).units(10.0) == 1  # floor of 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MediaObject("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            MediaObject("x", 10.0, 0.0)
        with pytest.raises(ValueError):
            MediaObject("x", 10.0, 1.0).units(0)
        # non-finite fields used to pass (nan <= 0 is False) and surface
        # only at the draw, as "Probabilities contain NaN"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weight"):
                MediaObject("x", 10.0, bad)
            with pytest.raises(ValueError, match="duration"):
                MediaObject("x", bad, 1.0)
        with pytest.raises(ValueError, match="weight"):
            Catalog([MediaObject("a", 60.0, float("nan")), MediaObject("b", 60.0, 1.0)])
        for delay in (1e-300, float("nan")):
            # 1e-300 used to give an L the engine could not hold
            with pytest.raises(ValueError, match="int64"):
                MediaObject("x", 10.0, 1.0).units(delay)


class TestCatalog:
    def test_zipf_factory(self):
        cat = Catalog.zipf(8, duration_minutes=90.0, exponent=0.7)
        assert len(cat) == 8
        assert sum(o.weight for o in cat) == pytest.approx(1.0)
        assert cat[0].weight > cat[-1].weight
        assert all(o.duration_minutes == 90.0 for o in cat)

    def test_weights_renormalised(self):
        cat = Catalog([MediaObject("a", 60, 2.0), MediaObject("b", 60, 6.0)])
        assert cat[0].weight == pytest.approx(0.25)
        assert cat[1].weight == pytest.approx(0.75)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Catalog([MediaObject("a", 60, 1.0), MediaObject("a", 90, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Catalog([])

    def test_popularity_rank(self):
        cat = Catalog([MediaObject("cold", 60, 1.0), MediaObject("hot", 60, 9.0)])
        assert [o.name for o in cat.popularity_rank()] == ["hot", "cold"]
