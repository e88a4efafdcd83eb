"""Tests for probability vectors, gauge sums, and classical partial entropic sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_sums import (
    JointDistribution,
    ProbVector,
    entropy_term_argmax,
    instability_example,
    kolmogorov_distance,
    marginal,
    max_partial_bounds,
    max_partial_sum,
    partial_distance,
    partial_sum,
    q_log,
    sum_largest_abs,
)

from _oracles import mp_instability, mp_max_partial_sum, mp_partial_sum

ALPHAS = (0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 7.0)


def random_simplex(m, rng):
    g = rng.exponential(size=m)
    return g / g.sum()


class TestProbVector:
    def test_clamps_and_renormalizes(self):
        p = ProbVector([0.5, 0.5 + 4e-10, -4e-10])
        assert np.all(p.values >= 0.0)
        assert p.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProbVector([0.5, 0.4])  # sums to 0.9
        with pytest.raises(ValueError):
            ProbVector([1.1, -0.1])  # negative beyond tolerance
        with pytest.raises(ValueError):
            ProbVector([])
        with pytest.raises(ValueError):
            ProbVector([np.nan, 1.0])

    def test_immutable(self):
        p = ProbVector([0.25, 0.75])
        with pytest.raises(ValueError):
            p.values[0] = 1.0


class TestJointDistribution:
    def test_shape_and_flatten(self):
        r = JointDistribution([[0.1, 0.2], [0.3, 0.4]])
        assert (r.rows, r.cols) == (2, 2)
        flat = r.flattened()
        assert flat.dim == 4
        assert flat.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_grid(self):
        with pytest.raises(ValueError):
            JointDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            JointDistribution([[0.6, 0.6]])


class TestSumLargestAbs:
    def test_frozen_examples(self):
        assert sum_largest_abs([0.5, -0.2, 0.3], 2) == pytest.approx(0.8, abs=1e-15)
        x = np.array([0.1, -0.4, 0.25, -0.05])
        assert sum_largest_abs(x, 4) == pytest.approx(np.abs(x).sum(), abs=1e-15)

    def test_prob_vector_full_gauge_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            p = random_simplex(m, rng)
            assert sum_largest_abs(p, m) == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(7)
        vals = [sum_largest_abs(x, k) for k in range(1, 8)]
        assert np.all(np.diff(vals) >= 0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sum_largest_abs([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            sum_largest_abs([1.0, 2.0], 3)
        with pytest.raises(ValueError, match="k must be an integer"):
            sum_largest_abs([1.0, 2.0], float("inf"))


class TestPartialSum:
    def test_corner_is_zero(self):
        p = ProbVector([1.0, 0.0, 0.0, 0.0])
        for a in ALPHAS:
            for k in range(1, 5):
                assert partial_sum(p, k, a) == 0.0

    def test_uniform_full_sum_is_qlog_m(self):
        for m in (2, 3, 5, 8):
            p = ProbVector(np.full(m, 1.0 / m))
            for a in ALPHAS:
                assert partial_sum(p, m, a) == pytest.approx(q_log(m, a), abs=1e-13)

    def test_selects_largest_terms_not_largest_probs(self):
        # the term function peaks at 1/e for order 1, so 0.495 beats 0.505
        p = ProbVector([0.495, 0.505])
        assert partial_sum(p, 1, 1.0) == pytest.approx(0.34808277062465614, abs=1e-14)

    def test_order_monotonicity_2C(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(2, 10))
            p = ProbVector(random_simplex(m, rng))
            a = rng.uniform(0.05, 8.0)
            sums = [partial_sum(p, k, a) for k in range(1, m + 1)]
            assert np.all(np.diff(sums) >= -1e-15)

    def test_symmetry_3C(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            vals = random_simplex(m, rng)
            perm = rng.permutation(m)
            a = rng.uniform(0.05, 8.0)
            k = int(rng.integers(1, m + 1))
            assert partial_sum(ProbVector(vals), k, a) == partial_sum(ProbVector(vals[perm]), k, a)

    def test_expansibility_4C(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            vals = random_simplex(m, rng)
            a = rng.uniform(0.05, 8.0)
            k = int(rng.integers(1, m + 1))
            padded = np.concatenate([vals, [0.0]])
            assert partial_sum(ProbVector(vals), k, a) == partial_sum(ProbVector(padded), k, a)

    def test_marginal_refinement_lemma(self):
        # marginal partial sum at k never beats the joint's at k * n_cols
        rng = np.random.default_rng(10)
        for _ in range(400):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            r = JointDistribution(random_simplex(m * n, rng).reshape(m, n))
            p = marginal(r, "rows")
            flat = r.flattened()
            a = rng.uniform(0.05, 8.0)
            for k in range(1, m + 1):
                assert partial_sum(p, k, a) <= partial_sum(flat, k * n, a) + 1e-12

    def test_product_monotonicity_5C(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = random_simplex(m, rng)
            q = random_simplex(n, rng)
            r = JointDistribution(np.outer(p, q))
            a = rng.uniform(0.05, 8.0)
            k = int(rng.integers(1, m + 1))
            assert partial_sum(ProbVector(p), k, a) <= partial_sum(r.flattened(), k * n, a) + 1e-12

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            p = random_simplex(m, rng)
            a = rng.uniform(0.05, 9.0)
            k = int(rng.integers(1, m + 1))
            expected = float(mp_partial_sum([float(v) for v in p], k, a))
            assert partial_sum(ProbVector(p), k, a) == pytest.approx(expected, rel=1e-11, abs=1e-13)


class TestDistances:
    def test_kolmogorov_frozen(self):
        assert kolmogorov_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        assert kolmogorov_distance([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.1, abs=1e-15)
        p = ProbVector([0.3, 0.7])
        assert kolmogorov_distance(p, p) == 0.0

    def test_partial_distance_frozen(self):
        assert partial_distance([0.6, 0.4], [0.5, 0.5], 1) == pytest.approx(0.1, abs=1e-15)
        p = ProbVector([0.2, 0.3, 0.5])
        assert partial_distance(p, p, 2) == 0.0

    def test_partial_distance_nondecreasing_and_full_case(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            p, q = random_simplex(m, rng), random_simplex(m, rng)
            dists = [partial_distance(p, q, k) for k in range(1, m + 1)]
            assert np.all(np.diff(dists) >= -1e-15)
            assert dists[-1] == pytest.approx(2.0 * kolmogorov_distance(p, q), abs=1e-13)

    def test_metric_properties(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            p, q, r = (random_simplex(m, rng) for _ in range(3))
            dpq = kolmogorov_distance(p, q)
            assert dpq == pytest.approx(kolmogorov_distance(q, p), abs=1e-15)
            assert dpq <= kolmogorov_distance(p, r) + kolmogorov_distance(r, q) + 1e-13
            assert 0.0 <= dpq <= 1.0 + 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([0.5, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            partial_distance([0.5, 0.5], [0.2, 0.3, 0.5], 1)


class TestMarginal:
    def test_product_recovers_factor(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.1, 0.4, 0.5])
        r = JointDistribution(np.outer(p, q))
        assert np.allclose(marginal(r, "rows").values, p, atol=1e-15)
        assert np.allclose(marginal(r, "columns").values, q, atol=1e-15)

    def test_grid_frozen_example(self):
        r = JointDistribution([[0.1, 0.2], [0.3, 0.4]])
        assert np.allclose(marginal(r, "rows").values, [0.3, 0.7], atol=1e-15)

    def test_random_marginals_are_normalized(self):
        rng = np.random.default_rng(15)
        r = JointDistribution(random_simplex(20, rng).reshape(4, 5))
        for which in ("rows", "columns"):
            assert marginal(r, which).values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_selector(self):
        r = JointDistribution([[0.5, 0.5]])
        with pytest.raises(ValueError):
            marginal(r, "diagonal")


class TestMaxPartialBounds:
    def test_k1_exact_maximum(self):
        lower, upper, cap = max_partial_bounds(1, 2.0)
        assert lower == upper == pytest.approx(0.25, abs=1e-15)
        assert cap == 0.0

    def test_k2_shannon_bracket_contains_true_max(self):
        lower, upper, _ = max_partial_bounds(2, 1.0)
        assert lower == pytest.approx(np.log(2.0), abs=1e-15)
        assert upper == pytest.approx(np.log(3.0), abs=1e-15)
        true_max = 2.0 * np.exp(-1.0)  # two terms parked at the peak point
        assert lower < true_max < upper

    def test_error_cap_frozen(self):
        _, _, cap = max_partial_bounds(5, 1.0)
        assert cap == pytest.approx(0.11162212531024945, abs=1e-14)
        # strictly under 0.1 past k = 5
        for k in (6, 8, 12):
            assert max_partial_bounds(k, 1.0)[2] < 0.1

    def test_input_validation(self):
        for k in (0, 1.5, float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                max_partial_bounds(k, 1.0)


def equal_split(m, k, alpha):
    """The maximizing point: the uniform one when m = k, else k entries at
    min(x*, 1/k) and the rest of the mass spread over the other m - k."""
    if m == k:
        return np.full(m, 1.0 / m)
    x = min(entropy_term_argmax(alpha), 1.0 / k)
    return np.array([x] * k + [max(1.0 - k * x, 0.0) / (m - k)] * (m - k))


class TestMaxPartialSum:
    def test_matches_oracle(self):
        for a in (0.3, 0.5, 1.0 - 1e-7, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 1e-7, 2.0, 2.5, 5.0, 10.0):
            for m in range(1, 9):
                for k in range(1, m + 1):
                    expected = float(mp_max_partial_sum(m, k, a))
                    assert max_partial_sum(m, k, a) == pytest.approx(expected, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.data(),
           st.one_of(st.sampled_from((0.3, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0)),
                     st.floats(0.05, 0.9), st.floats(1.1, 9.0)),
           st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), st.floats(0.0, 1.0))
    def test_equal_split_witness_attains_maximum(self, m, data, a, raw, t):
        k = data.draw(st.integers(1, m))
        best = max_partial_sum(m, k, a)
        witness = equal_split(m, k, a)
        assert partial_sum(witness, k, a) == pytest.approx(best, abs=1e-14)
        # no point of the simplex beats it, near the witness or far from it
        r = np.array(raw[:m])
        r = r / r.sum() if r.sum() > 0.0 else np.full(m, 1.0 / m)
        p = (1.0 - t) * witness + t * r
        assert partial_sum(p / p.sum(), k, a) <= best + 1e-12

    def test_bracket_sandwich(self):
        for a in (0.5, 1.0, 2.0, 3.0):
            for k in (1, 2, 3):
                lower, upper, _ = max_partial_bounds(k, a)
                for m in range(max(k, 2), 9):
                    assert lower - 1e-9 <= max_partial_sum(m, k, a) <= upper + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            max_partial_sum(3, 4, 1.0)
        with pytest.raises(ValueError):
            max_partial_sum(0, 1, 1.0)
        with pytest.raises(ValueError, match="k must be an integer"):
            max_partial_sum(3, float("inf"), 1.0)


class TestInstabilityExample:
    def test_frozen_values(self):
        d1, d2, ratio = instability_example(1e-4)
        assert d1 == pytest.approx(1.5340140888665234e-05, rel=1e-12)
        assert d2 == pytest.approx(5.0000000083333334e-09, rel=1e-9)
        assert ratio == pytest.approx(3068.0281726196665, rel=1e-9)

    def test_ratio_times_eps_approaches_limit(self):
        limit = 1.0 - np.log(2.0)
        for eps, tol in ((1e-4, 0.05), (1e-2, 0.15)):
            _, _, ratio = instability_example(eps)
            assert abs(ratio * eps - limit) / limit < tol

    def test_positivity_on_grid(self):
        for eps in np.linspace(1e-4, 0.499, 200):
            d1, d2, _ = instability_example(eps)
            assert d1 > 0.0 and d2 > 0.0

    def test_matches_high_precision_oracle(self):
        for eps in (1e-5, 1e-3, 0.1, 0.9):
            d1, d2, ratio = instability_example(eps)
            o1, o2, oratio = mp_instability(eps)
            assert d1 == pytest.approx(float(o1), rel=1e-10)
            assert d2 == pytest.approx(float(o2), rel=1e-9)
            assert ratio == pytest.approx(float(oratio), rel=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                instability_example(bad)
