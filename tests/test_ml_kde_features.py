"""Tests for the KDE estimator and the feature scaler."""

import numpy as np
import pytest

from repro.ml.kde import GaussianKDE, scott_bandwidth, silverman_bandwidth
from repro.ml.scaling import StandardScaler

from tests.oracles.kde import updated


class TestGaussianKDE:
    def test_pdf_integrates_to_one(self, rng):
        data = rng.normal(10.0, 2.0, size=200)
        kde = GaussianKDE(data)
        grid = np.linspace(0.0, 20.0, 2000)
        integral = np.trapezoid(kde.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_cdf_is_monotone(self, rng):
        kde = GaussianKDE(rng.normal(size=100))
        grid = np.linspace(-4, 4, 50)
        cdf = kde.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_cdf_limits(self, rng):
        kde = GaussianKDE(rng.normal(size=100))
        assert kde.cdf(-100.0)[0] == pytest.approx(0.0, abs=1e-6)
        assert kde.cdf(100.0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_percentile_inverts_cdf(self, rng):
        kde = GaussianKDE(rng.normal(5.0, 1.0, size=300))
        for q in (10.0, 50.0, 90.0, 99.0):
            x = kde.percentile(q)
            assert kde.cdf(x)[0] == pytest.approx(q / 100.0, abs=1e-3)

    def test_percentile_is_monotone_in_q(self, rng):
        kde = GaussianKDE(rng.normal(size=200))
        assert kde.percentile(99.0) > kde.percentile(50.0) > kde.percentile(1.0)

    def test_percentile_out_of_range_raises(self, rng):
        kde = GaussianKDE(rng.normal(size=10))
        with pytest.raises(ValueError):
            kde.percentile(101.0)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            GaussianKDE([])

    def test_invalid_bandwidth_raises(self):
        with pytest.raises(ValueError):
            GaussianKDE([1.0, 2.0], bandwidth=0.0)
        with pytest.raises(ValueError):
            GaussianKDE([1.0, 2.0], bandwidth="unknown")

    def test_updated_keeps_size_when_dropping_same_amount(self, rng):
        kde = GaussianKDE(rng.normal(size=50))
        grown = updated(kde, rng.normal(size=10), drop_oldest=10)
        assert grown.n == 50

    def test_updated_shifts_towards_new_data(self, rng):
        kde = GaussianKDE(rng.normal(0.0, 1.0, size=100))
        shifted = updated(kde, np.full(100, 50.0), drop_oldest=100)
        assert shifted.percentile(50.0) > 40.0

    def test_sample_draws_near_data(self, rng):
        kde = GaussianKDE(rng.normal(100.0, 1.0, size=200))
        samples = kde.sample(500, rng)
        assert abs(np.mean(samples) - 100.0) < 1.0

    def test_sample_requires_explicit_rng(self, rng):
        # Library code must never silently fall back to a fresh global
        # generator; every draw belongs to an explicit seed stream.
        kde = GaussianKDE(rng.normal(size=20))
        with pytest.raises(TypeError):
            kde.sample(5)
        with pytest.raises(TypeError):
            kde.sample(5, None)

    def test_sample_is_reproducible_per_seed(self, rng):
        kde = GaussianKDE(rng.normal(size=50))
        a = kde.sample(20, np.random.default_rng(7))
        b = kde.sample(20, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_percentile_warm_start_matches_cold(self, rng):
        kde = GaussianKDE(rng.normal(10.0, 2.0, size=100))
        cold = kde.percentile(99.0)
        warm = kde.percentile(99.0, x0=cold + 0.3)
        assert warm == pytest.approx(cold, abs=2e-6)

    def test_percentile_of_invalid_profile_raises(self):
        # The bracket guard: non-finite profile data must raise loudly
        # instead of silently iterating on a [NaN, NaN] bracket (the old
        # expansion loops exhausted their 64 steps and proceeded anyway).
        kde = GaussianKDE([1.0, 2.0, 3.0])
        kde._data[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kde.percentile(99.0)

    def test_mixture_quantiles_validates_shapes(self, rng):
        from repro.ml.kde import mixture_quantiles

        data = rng.normal(size=(3, 10))
        with pytest.raises(ValueError, match="one value per profile"):
            mixture_quantiles(data, np.ones(2), 50.0)
        with pytest.raises(ValueError, match="matrix"):
            mixture_quantiles(data[0], np.ones(1), 50.0)
        with pytest.raises(ValueError, match="within"):
            mixture_quantiles(data, np.ones(3), 101.0)

    def test_bandwidth_rules_positive(self, rng):
        data = rng.normal(size=100)
        assert scott_bandwidth(data) > 0
        assert silverman_bandwidth(data) > 0

    def test_bandwidth_rules_handle_constant_data(self):
        assert scott_bandwidth(np.ones(10)) == 1.0
        assert silverman_bandwidth(np.ones(10)) == 1.0


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self, rng):
        X = rng.normal(5.0, 3.0, size=(100, 4))
        Xs = StandardScaler().fit(X).transform(X)
        assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_feature_no_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Xs = StandardScaler().fit(X).transform(X)
        assert np.all(np.isfinite(Xs))

    def test_standard_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))
