"""Tests for the scalar order-alpha building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_sums import (
    SHANNON_LIMIT_WINDOW,
    Alpha,
    as_alpha,
    binary_entropy,
    entropy_gap_bound,
    entropy_term,
    entropy_term_argmax,
    q_log,
)

from _oracles import mp_entropy_term, mp_gap_bound, mp_qlog


class TestAlpha:
    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -1e-12, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Alpha(bad)

    def test_shannon_limit_flag(self):
        assert Alpha(1.0).is_shannon_limit
        assert Alpha(1.0 + SHANNON_LIMIT_WINDOW / 2).is_shannon_limit
        assert not Alpha(1.0 + 2 * SHANNON_LIMIT_WINDOW).is_shannon_limit
        assert not Alpha(2.0).is_shannon_limit

    def test_as_alpha_passthrough(self):
        a = Alpha(1.5)
        assert as_alpha(a) is a
        assert as_alpha(2).value == 2.0


class TestQLog:
    def test_unity_is_zero_for_every_order(self):
        for a in (0.3, 0.7, 1.0, 1.5, 2.0, 5.0):
            assert q_log(1.0, a) == 0.0
            assert not np.signbit(q_log(1.0, a))

    def test_frozen_value(self):
        # (4**-1 - 1)/(1 - 2), independently 0.75
        assert q_log(4.0, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_shannon_limit_is_natural_log(self):
        for m in (2, 3, 10):
            assert q_log(m, 1.0) == pytest.approx(np.log(m), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            q_log(0.0, 2.0)
        with pytest.raises(ValueError):
            q_log(-0.5, 2.0)

    def test_monotone_in_x(self):
        xs = np.linspace(0.01, 3.0, 400)
        for a in (0.3, 1.0, 2.0, 7.0):
            vals = q_log(xs, a)
            assert np.all(np.diff(vals) > 0)

    def test_product_identity(self):
        # q_log(xy) = q_log(x) + x**(1-alpha) q_log(y), a key algebraic identity.
        # The terms blow up like x**(1-alpha) for small x at high order, so the
        # 1e-10 tolerance is applied relative to the largest term involved.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x, y = rng.uniform(1e-6, 1.0, size=2)
            a = rng.uniform(1e-3, 10.0)
            lhs = q_log(x * y, a)
            term = x ** (1.0 - a) * q_log(y, a)
            rhs = q_log(x, a) + term
            scale = max(1.0, abs(lhs), abs(term))
            assert abs(lhs - rhs) < 1e-10 * scale

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(1e-4, 5.0)
            a = rng.uniform(0.05, 12.0)
            assert q_log(x, a) == pytest.approx(float(mp_qlog(x, a)), rel=1e-12, abs=1e-13)


class TestEntropyTerm:
    def test_vanishes_at_endpoints(self):
        for a in (0.3, 0.5, 1.0, 2.0, 9.0):
            assert entropy_term(0.0, a) == 0.0
            assert entropy_term(1.0, a) == 0.0
            assert not np.any(np.signbit(entropy_term(np.array([0.0, 1.0]), a)))

    def test_frozen_values(self):
        assert entropy_term(0.5, 2.0) == pytest.approx(0.25, abs=1e-15)
        # -x log x at x = 1/e equals 1/e
        assert entropy_term(np.exp(-1.0), 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_domain_error(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                entropy_term(bad, 2.0)

    def test_concavity_chord(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x, z = np.sort(rng.uniform(0.0, 1.0, size=2))
            a = rng.uniform(1e-3, 10.0)
            mid = entropy_term((x + z) / 2.0, a)
            chord = (entropy_term(x, a) + entropy_term(z, a)) / 2.0
            assert mid >= chord - 1e-12

    def test_limit_consistency_inside_window(self):
        xs = np.linspace(0.0, 1.0, 1000)
        shannon = entropy_term(xs, 1.0)
        for a in (1.0 - 1e-9, 1.0 + 1e-9):
            assert np.max(np.abs(entropy_term(xs, a) - shannon)) < 1e-6

    def test_limit_consistency_outside_window(self):
        # continuity across the branch switch itself
        xs = np.linspace(1e-6, 1.0, 1000)
        shannon = entropy_term(xs, 1.0)
        for a in (1.0 - 1e-7, 1.0 + 1e-7):
            assert np.max(np.abs(entropy_term(xs, a) - shannon)) < 1e-6

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(0.0, 1.0)
            a = rng.uniform(0.05, 12.0)
            assert entropy_term(x, a) == pytest.approx(float(mp_entropy_term(x, a)), rel=1e-11, abs=1e-13)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200)
    def test_nonnegative_everywhere(self, x, a):
        assert entropy_term(x, a) >= 0.0


class TestArgmax:
    def test_frozen_values(self):
        assert entropy_term_argmax(2.0) == pytest.approx(0.5, abs=1e-15)
        assert entropy_term_argmax(1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert entropy_term_argmax(10.0) == pytest.approx(0.77426368268112706, abs=1e-13)

    def test_monotone_in_order(self):
        grid = np.linspace(0.05, 20.0, 300)
        vals = [entropy_term_argmax(a) for a in grid]
        assert np.all(np.diff(vals) > 0)

    def test_is_the_maximizer(self):
        xs = np.linspace(0.0, 1.0, 2001)
        for a in (0.3, 0.8, 1.0, 1.7, 3.0, 8.0):
            peak = entropy_term(entropy_term_argmax(a), a)
            assert peak >= np.max(entropy_term(xs, a)) - 1e-12


class TestBinaryEntropy:
    def test_endpoints_and_symmetry(self):
        for a in (0.4, 1.0, 2.5):
            assert binary_entropy(0.0, a) == 0.0
            assert binary_entropy(1.0, a) == 0.0
            assert binary_entropy(0.3, a) == pytest.approx(binary_entropy(0.7, a), abs=1e-15)

    def test_frozen_values(self):
        assert binary_entropy(0.5, 1.0) == pytest.approx(np.log(2.0), abs=1e-15)
        assert binary_entropy(0.3, 2.0) == pytest.approx(0.42, abs=1e-15)


class TestGapBound:
    def test_zero_at_origin(self):
        for a, n in ((0.5, 2), (1.0, 3), (4.0, 5)):
            assert entropy_gap_bound(0.0, n, a) == 0.0

    def test_frozen_value(self):
        assert entropy_gap_bound(0.2, 3, 2.0) == pytest.approx(0.34666666666666667, abs=1e-15)

    def test_dominates_entropy_term(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.05, 10.0)
            assert entropy_gap_bound(d, n, a) >= entropy_term(d, a) - 1e-12

    def test_monotone_witness(self):
        assert entropy_gap_bound(0.1, 4, 3.0) < entropy_gap_bound(0.5, 4, 3.0)
        assert entropy_gap_bound(0.1, 4, 3.0) == pytest.approx(0.13546875, abs=1e-15)
        assert entropy_gap_bound(0.5, 4, 3.0) == pytest.approx(0.43359375, abs=1e-15)

    def test_strictly_increasing_for_high_orders(self):
        for a in (1.5, 3.0, 6.0):
            for n in (2, 3, 6):
                d = np.linspace(1e-4, n / (n + 1.0) - 1e-4, 200)
                vals = entropy_gap_bound(d, n, a)
                assert np.all(np.diff(vals) > 0)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 8))
            a = rng.uniform(0.05, 9.0)
            assert entropy_gap_bound(d, n, a) == pytest.approx(float(mp_gap_bound(d, n, a)), rel=1e-11, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            entropy_gap_bound(-0.1, 3, 2.0)
        with pytest.raises(ValueError):
            entropy_gap_bound(1.1, 3, 2.0)
        with pytest.raises(ValueError):
            entropy_gap_bound(0.5, 0, 2.0)
