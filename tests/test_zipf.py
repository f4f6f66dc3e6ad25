"""Unit tests for the Zipf-like demand distribution."""

import numpy as np
import pytest

from repro.workload.zipf import ZipfPopularity


class TestProbabilities:
    def test_sum_to_one(self):
        for theta in (-1.5, -0.5, 0.0, 0.5, 1.0):
            z = ZipfPopularity(100, theta)
            assert z.probabilities.sum() == pytest.approx(1.0)

    def test_theta_one_is_uniform(self):
        z = ZipfPopularity(50, 1.0)
        assert np.allclose(z.probabilities, 1.0 / 50)

    def test_theta_zero_is_classic_zipf(self):
        z = ZipfPopularity(10, 0.0)
        # p_i ∝ 1/i
        ratios = z.probabilities[0] / z.probabilities
        assert np.allclose(ratios, np.arange(1, 11))

    def test_monotone_nonincreasing_in_rank(self):
        for theta in (-1.0, 0.0, 0.5, 1.0):
            z = ZipfPopularity(30, theta)
            assert (np.diff(z.probabilities) <= 1e-15).all()

    def test_lower_theta_is_more_skewed(self):
        skews = [
            ZipfPopularity(100, theta).skew_ratio()
            for theta in (1.0, 0.5, 0.0, -0.5, -1.0)
        ]
        assert skews == sorted(skews)

    def test_larger_catalog_is_more_skewed_at_fixed_theta(self):
        small = ZipfPopularity(10, 0.0).skew_ratio()
        large = ZipfPopularity(1000, 0.0).skew_ratio()
        assert large > small

    def test_exponent_definition(self):
        assert ZipfPopularity(10, 0.3).exponent == pytest.approx(0.7)

    def test_single_item(self):
        z = ZipfPopularity(1, 0.0)
        assert z.probabilities.tolist() == [1.0]

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0, 0.0)

    def test_probability_accessor_is_one_indexed(self):
        z = ZipfPopularity(5, 0.0)
        assert z.probability(1) == pytest.approx(float(z.probabilities[0]))
        with pytest.raises(ValueError):
            z.probability(0)
        with pytest.raises(ValueError):
            z.probability(6)


class TestSampling:
    def test_scalar_sample_in_range(self, rng):
        z = ZipfPopularity(20, 0.0)
        for _ in range(100):
            idx = z.draw(rng)
            assert isinstance(idx, int)
            assert 0 <= idx < 20

    def test_vector_sample_shape_and_range(self, rng):
        z = ZipfPopularity(20, 0.5)
        idx = z.sample(rng, size=1000)
        assert idx.shape == (1000,)
        assert idx.min() >= 0 and idx.max() < 20

    def test_empirical_frequencies_match(self, rng):
        z = ZipfPopularity(5, 0.0)
        samples = z.sample(rng, size=200_000)
        freqs = np.bincount(samples, minlength=5) / len(samples)
        assert np.allclose(freqs, z.probabilities, atol=0.01)

    def test_uniform_sampling_at_theta_one(self, rng):
        z = ZipfPopularity(4, 1.0)
        samples = z.sample(rng, size=100_000)
        freqs = np.bincount(samples, minlength=4) / len(samples)
        assert np.allclose(freqs, 0.25, atol=0.01)


class TestExpectedValue:
    def test_weights_by_popularity(self):
        z = ZipfPopularity(2, 1.0)  # uniform
        assert z.expected_value([10.0, 30.0]) == pytest.approx(20.0)

    def test_skew_pulls_toward_hot_item(self):
        z = ZipfPopularity(2, -1.0)
        # item 0 dominates, so expectation approaches its value
        assert z.expected_value([10.0, 30.0]) < 20.0

    def test_shape_mismatch_rejected(self):
        z = ZipfPopularity(3, 0.0)
        with pytest.raises(ValueError):
            z.expected_value([1.0, 2.0])
