"""Tests for the random instance generators."""

import hashlib

import numpy as np
import pytest

from entropic_sums import (
    ky_fan_norm,
    sample_density,
    sample_ensemble,
    sample_near,
    sample_povm,
    sample_simplex,
    sample_state_vector,
    spectra,
)


class TestSampleSimplex:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        assert sample_simplex(1, rng).values[0] == 1.0

    def test_outputs_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = sample_simplex(int(rng.integers(1, 12)), rng)
            assert np.all(p.values >= 0.0)
            assert p.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coordinate_means_are_uniform(self):
        rng = np.random.default_rng(2)
        draws = rng.exponential(size=(100000, 4))
        draws /= draws.sum(axis=1, keepdims=True)
        assert np.max(np.abs(draws.mean(axis=0) - 0.25)) < 0.005

    def test_rejects_bad_m(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_simplex(0, rng)


class TestSampleDensity:
    def test_outputs_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            rho = sample_density(d, rng)
            assert rho.dim == d
            assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional(self):
        rng = np.random.default_rng(5)
        rho = sample_density(1, rng)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_eigenvalue_sums(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            rho = sample_density(4, rng)
            assert np.linalg.eigvalsh(rho.matrix).sum() == pytest.approx(1.0, abs=1e-12)


class TestSampleNear:
    def test_zero_epsilon_returns_input(self):
        rng = np.random.default_rng(7)
        p = sample_simplex(5, rng)
        q = sample_near(p, 0.0, rng)
        assert np.allclose(q.values, p.values, atol=1e-15)
        rho = sample_density(3, rng)
        sigma = sample_near(rho, 0.0, rng)
        assert np.max(np.abs(sigma.matrix - rho.matrix)) < 1e-15

    def test_distance_cap_honoured(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            eps = 10.0 ** rng.uniform(-4, 0)
            p = sample_simplex(4, rng)
            q = sample_near(p, eps, rng)
            assert np.abs(q.values - p.values).sum() <= eps + 1e-12
            rho = sample_density(3, rng)
            sigma = sample_near(rho, eps, rng)
            assert ky_fan_norm(sigma.matrix - rho.matrix, 3) <= eps + 1e-12

    def test_large_epsilon_gives_fresh_sample(self):
        rng = np.random.default_rng(9)
        rho = sample_density(3, rng)
        sigma = sample_near(rho, 10.0, rng)
        assert ky_fan_norm(sigma.matrix - rho.matrix, 3) > 1e-3

    def test_nan_epsilon_is_blamed_on_epsilon(self):
        rng = np.random.default_rng(15)
        p = sample_simplex(3, rng)
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            sample_near(p, float("nan"), rng)
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            sample_near(sample_density(2, rng), float("nan"), rng)

    def test_infinite_epsilon_returns_the_fresh_sample(self):
        rng, twin = np.random.default_rng(16), np.random.default_rng(16)
        p = sample_simplex(4, rng)
        q = sample_near(p, float("inf"), rng)
        sample_simplex(4, twin)
        assert np.allclose(q.values, sample_simplex(4, twin).values, rtol=0, atol=1e-15)
        rho = sample_density(3, rng)
        sigma = sample_near(rho, float("inf"), rng)
        sample_density(3, twin)
        assert np.allclose(sigma.matrix, sample_density(3, twin).matrix, rtol=0, atol=1e-15)

    def test_type_error(self):
        rng = np.random.default_rng(10)
        with pytest.raises(TypeError):
            sample_near(np.ones(3) / 3.0, 0.1, rng)


class TestPinnedSamplerBytes:
    """The scalar samplers' output for a fixed seed, pinned byte for byte: the
    acceptance suites draw every instance through them. Recorded when the
    scalar samplers wrapped the stacked ones with stacks of one, with the
    LAPACK caveat of ``test_cli.TestPinnedSweepBytes`` for the density bytes."""

    def test_digest(self):
        rng = np.random.default_rng(18)
        digest = hashlib.sha256()
        for d in (1, 2, 3, 8):
            # a capped distance mixes with the fresh draw, an uncapped one returns it
            for eps in (0.05, float("inf")):
                p = sample_simplex(d, rng)
                q = sample_near(p, eps, rng)
                rho = sample_density(d, rng)
                sigma = sample_near(rho, eps, rng)
                for arr in (p.values, q.values, rho.matrix, spectra(rho), sigma.matrix, spectra(sigma)):
                    digest.update(arr.tobytes())
        assert digest.hexdigest() == "1f7f39b123e3e77444ef95c057f6ae7fd3fb511dd4a5cb856075955e5b82549a"


class TestSamplePOVMAndEnsemble:
    def test_povm_complete(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d, 2 * d + 2))
            povm = sample_povm(d, n, rng)
            frame = np.einsum("ja,jb->ab", povm.vectors, povm.vectors.conj())
            assert np.max(np.abs(frame - np.eye(d))) < 1e-10

    def test_povm_needs_enough_outcomes(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            sample_povm(3, 2, rng)

    def test_state_vectors_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = sample_state_vector(int(rng.integers(1, 8)), rng)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_ensembles_valid(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            ens = sample_ensemble(int(rng.integers(1, 5)), int(rng.integers(1, 7)), rng)
            assert ens.weights.values.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.linalg.norm(ens.states, axis=1), 1.0, atol=1e-12)

