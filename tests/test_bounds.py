"""Tests for bound evaluation, inequality checks, stability, and the exact tightness supremum."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_sums import (
    BoundViolationError,
    DensityOperator,
    ProbVector,
    adversarial_search,
    binary_entropy,
    bounds,
    check_classical,
    check_fidelity_variant,
    check_quantum,
    check_tolerance,
    classical,
    classical_checks,
    entropy_sum_diff,
    entropy_term,
    entropy_term_argmax,
    fannes_bound,
    fannes_bounds,
    instability_example,
    kolmogorov_distance,
    ky_fan_distance,
    max_partial_bounds,
    max_partial_sum,
    partial_fidelity,
    partial_sum,
    q_log,
    sample_density,
    sample_near,
    sample_simplex,
    stability_delta,
    stability_threshold,
)

from _oracles import mp_adversarial_sup, mp_entropy_term, mp_fannes_rhs, mp_gap_bound, mp_qlog


class TestFannesBound:
    def test_zero_distance(self):
        b = fannes_bound(0.0, 3, 1.7)
        assert b.rhs == 0.0
        assert b.applicable

    def test_frozen_shannon_value(self):
        b = fannes_bound(0.1, 1, 1.0)
        assert b.rhs == pytest.approx(0.29957322735539910, abs=1e-14)
        assert b.regime == "low_alpha"
        assert b.threshold == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert b.applicable

    def test_high_order_threshold(self):
        b = fannes_bound(0.8, 2, 3.0)
        assert b.regime == "high_alpha"
        assert b.threshold == pytest.approx(0.57735026918962576, abs=1e-14)
        assert not b.applicable
        assert np.isfinite(b.rhs)  # reported even when not applicable

    def test_rhs_nan_past_one(self):
        b = fannes_bound(1.3, 2, 3.0)
        assert np.isnan(b.rhs)
        assert not b.applicable

    def test_regime_split_at_two(self):
        assert fannes_bound(0.1, 2, 2.0).regime == "low_alpha"
        assert fannes_bound(0.1, 2, 2.0 + 1e-9).regime == "high_alpha"

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            eps = rng.uniform(0.0, 1.0)
            k = int(rng.integers(1, 9))
            a = rng.uniform(0.05, 9.0)
            expected = float(mp_fannes_rhs(eps, k, a))
            assert fannes_bound(eps, k, a).rhs == pytest.approx(expected, rel=1e-11, abs=1e-12)

    def test_regime_consistency_on_overlap(self):
        # for orders in (1, 2] the high-order style bound is weaker at equal distance
        rng = np.random.default_rng(61)
        for _ in range(300):
            a = rng.uniform(1.0 + 1e-6, 2.0)
            k = int(rng.integers(1, 7))
            eps = rng.uniform(0.0, 1.0)
            rhs1 = fannes_bound(eps, k, a).rhs
            rhs2 = eps ** a * q_log(k + 1, a) + entropy_term(eps, a) + binary_entropy(eps, a)
            assert rhs2 >= rhs1 - 1e-15

    def test_rhs_monotone_on_applicable_range(self):
        for a in (0.5, 1.0, 1.8, 2.0, 3.0, 6.0):
            for k in (1, 2, 5):
                thr = fannes_bound(0.0, k, a).threshold
                grid = np.linspace(1e-6, thr, 300)
                vals = [fannes_bound(e, k, a).rhs for e in grid]
                assert np.all(np.diff(vals) > 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fannes_bound(-0.1, 1, 1.0)
        with pytest.raises(ValueError):
            fannes_bound(0.1, 0, 1.0)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            fannes_bound(0.1, float("inf"), 1.0)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            fannes_bounds([0.1, 0.2], [2, np.inf], 1.0)


class TestEntropySumDiff:
    def test_antisymmetry_and_zero(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            x, y = rng.uniform(0.0, 1.0, size=(2, k))
            a = rng.uniform(0.05, 9.0)
            assert entropy_sum_diff(x, x, a) == 0.0
            assert entropy_sum_diff(x, y, a) == pytest.approx(-entropy_sum_diff(y, x, a), abs=1e-15)

    def test_matches_total_entropy_deviation(self):
        # against the closed-form deviation near the two-point uniform distribution
        eps = 0.01
        q = np.array([0.5, 0.5])
        p = np.array([(1.0 - eps) / 2.0, (1.0 + eps) / 2.0])
        _, delta2, _ = instability_example(eps)
        assert entropy_sum_diff(q, p, 1.0) == pytest.approx(delta2, rel=1e-10)

    def test_triangle(self):
        rng = np.random.default_rng(63)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            x, y = rng.uniform(0.0, 1.0, size=(2, k))
            a = rng.uniform(0.05, 9.0)
            bound = np.sum(np.abs(entropy_term(x, a) - entropy_term(y, a)))
            assert abs(entropy_sum_diff(x, y, a)) <= bound + 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            entropy_sum_diff([0.1, 0.2], [0.1], 1.0)


class TestCheckClassical:
    def test_equal_inputs(self):
        p = ProbVector([0.2, 0.8])
        chk = check_classical(p, p, 1, 1.0)
        assert chk.lhs == 0.0
        assert chk.epsilon == 0.0
        assert chk.satisfied is True

    def test_frozen_worked_example(self):
        chk = check_classical([0.6, 0.4], [0.5, 0.5], 2, 2.0)
        assert chk.lhs == pytest.approx(0.02, abs=1e-14)
        assert chk.epsilon == pytest.approx(0.2, abs=1e-14)
        assert chk.bound.rhs == pytest.approx(0.18666666666666667, abs=1e-13)
        assert chk.satisfied is True
        assert chk.margin == pytest.approx(chk.bound.rhs - chk.lhs, abs=1e-15)

    def test_random_suite(self):
        rng = np.random.default_rng(64)
        applicable = 0
        for _ in range(2000):
            m = int(rng.integers(2, 10))
            p = sample_simplex(m, rng)
            q = sample_near(p, 10.0 ** rng.uniform(-3, 0), rng)
            a = rng.uniform(0.05, 10.0)
            k = int(rng.integers(1, m + 1))
            chk = check_classical(p, q, k, a)
            if chk.bound.applicable:
                applicable += 1
                assert chk.satisfied is True
        assert applicable > 500  # the protocol must actually exercise the bound

    def test_not_applicable_reports_none(self):
        chk = check_classical([1.0, 0.0], [0.0, 1.0], 1, 3.0)  # distance 1 beyond threshold
        assert not chk.bound.applicable
        assert chk.satisfied is None

    def test_stacks_are_checked_row_by_row(self):
        with pytest.raises(ValueError, match="sum to 0.6"):
            classical_checks([[0.3, 0.3]], [[0.5, 0.5]], 1)
        with pytest.raises(ValueError, match="sum to 0.6"):
            classical_checks([[0.5, 0.5], [0.3, 0.3]], [[0.5, 0.5], [0.5, 0.5]], 1)
        rng = np.random.default_rng(65)
        # rows off the simplex by up to the construction tolerance are renormalized as a ProbVector is
        base = rng.dirichlet(np.ones(5), size=4)
        p = base * (1.0 + rng.uniform(-5e-10, 5e-10, size=(4, 1)))
        q = (0.95 * base + 0.05 * rng.dirichlet(np.ones(5), size=4)).tolist()
        alphas = [0.5, 1.0, 3.0]
        table = classical_checks(p, q, alphas)
        assert table.applicable.any()
        for i in range(4):
            for j, alpha in enumerate(alphas):
                for k in range(1, 6):
                    # repr tells every float apart and matches NaN with NaN
                    assert repr(table.cell((i, j, k - 1))) == repr(check_classical(p[i], q[i], k, alpha))


class TestCheckQuantum:
    def test_equal_states(self):
        rng = np.random.default_rng(65)
        rho = sample_density(4, rng)
        chk = check_quantum(rho, rho, 2, 1.5)
        assert chk.lhs == 0.0
        assert chk.satisfied is True

    def test_commuting_diagonal_reduces_to_classical(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            p, q = sample_simplex(m, rng), sample_simplex(m, rng)
            dp = DensityOperator(np.diag(p.values).astype(complex))
            dq = DensityOperator(np.diag(q.values).astype(complex))
            a = rng.uniform(0.05, 8.0)
            k = int(rng.integers(1, m + 1))
            cq = check_quantum(dp, dq, k, a)
            cc = check_classical(p, q, k, a)
            assert cq.lhs == pytest.approx(cc.lhs, abs=1e-12)
            assert cq.epsilon == pytest.approx(cc.epsilon, abs=1e-12)

    def test_random_suite(self):
        rng = np.random.default_rng(67)
        applicable = 0
        for _ in range(500):
            d = int(rng.integers(2, 7))
            rho = sample_density(d, rng)
            sigma = sample_near(rho, 10.0 ** rng.uniform(-3, 0), rng)
            a = rng.uniform(0.05, 10.0)
            k = int(rng.integers(1, d + 1))
            chk = check_quantum(rho, sigma, k, a)
            if chk.bound.applicable:
                applicable += 1
                assert chk.satisfied is True
        assert applicable > 100

    def test_distance_chain_tightens_applicability(self):
        # the k-norm distance never exceeds the trace-norm distance
        rng = np.random.default_rng(68)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            rho, sigma = sample_density(d, rng), sample_density(d, rng)
            eps_full = ky_fan_distance(rho, sigma, d)
            for k in range(1, d + 1):
                assert ky_fan_distance(rho, sigma, k) <= eps_full + 1e-12


class TestCheckFidelityVariant:
    def test_full_fidelity_distance_vanishes_on_equal(self):
        rng = np.random.default_rng(69)
        rho = sample_density(3, rng)
        assert 2.0 * (1.0 - partial_fidelity(rho, rho, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_substituted_distance_dominates(self):
        rng = np.random.default_rng(70)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            rho, sigma = sample_density(d, rng), sample_density(d, rng)
            k = int(rng.integers(1, d + 1))
            a = rng.uniform(0.05, 10.0)
            cq = check_quantum(rho, sigma, k, a)
            cf = check_fidelity_variant(rho, sigma, k, a)
            assert cq.epsilon <= cf.epsilon + 1e-9
            if cq.bound.applicable and cf.bound.applicable:
                assert cf.bound.rhs >= cq.bound.rhs - 1e-12

    def test_witness_looser_applicability(self):
        # identical mixed states: operator distance 0 applies, while the
        # substituted distance 2 * (1 - F_1) = 2 * (1 - 3/4) exceeds 1/e
        rho = DensityOperator(np.eye(4) / 4.0)
        cq = check_quantum(rho, rho, 1, 1.0)
        cf = check_fidelity_variant(rho, rho, 1, 1.0)
        assert cq.bound.applicable
        assert not cf.bound.applicable
        assert cf.epsilon == pytest.approx(0.5, abs=1e-9)

    def test_random_suite_satisfied(self):
        # the substituted distance applies only when the top-k spectral mass is
        # small, so draw near-maximally-mixed states at high order and k = 1
        rng = np.random.default_rng(71)
        seen = 0
        base = DensityOperator(np.eye(6) / 6.0)
        for _ in range(300):
            rho = sample_near(base, 0.15, rng)
            sigma = sample_near(rho, 10.0 ** rng.uniform(-3, -1), rng)
            a = rng.uniform(4.0, 10.0)
            chk = check_fidelity_variant(rho, sigma, 1, a)
            if chk.bound.applicable:
                seen += 1
                assert chk.satisfied is True
        assert seen > 20


class TestToleranceOverride:
    def test_env_var_overrides(self, monkeypatch):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", "-1.0")
        assert check_tolerance() == -1.0
        chk = check_classical([0.5, 0.5], [0.5, 0.5], 1, 1.0)
        assert chk.satisfied is False  # lhs 0 cannot beat rhs - 1
        monkeypatch.delenv("ENTROPIC_SUMS_TOL")
        assert check_tolerance() == 1e-9

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", "-1.0")
        assert check_tolerance(1e-6) == 1e-6

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "", "1e-9x"])
    def test_non_finite_env_value_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", value)
        with pytest.raises(ValueError, match="ENTROPIC_SUMS_TOL"):
            check_tolerance()
        with pytest.raises(ValueError, match="ENTROPIC_SUMS_TOL"):
            check_classical([0.6, 0.4], [0.5, 0.5], 1, 1.0)

    def test_holds_gives_a_bool_per_float_and_an_array_per_array(self):
        # one-row commands put the verdict into a column of Python values, so a float pair gives a bool
        assert bounds.holds(1.0, 1.0 - 5e-10) is True
        assert bounds.holds(1.0, 1.0 - 2e-9) is False
        assert bounds.holds(0.0, 0.0, tol=-1.0) is False
        verdicts = bounds.holds(np.array([0.5, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        assert verdicts.dtype == bool and verdicts.tolist() == [True, True, False]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_override_is_rejected(self, value):
        with pytest.raises(ValueError, match="override"):
            check_tolerance(value)
        with pytest.raises(ValueError, match="override"):
            check_classical([0.6, 0.4], [0.5, 0.5], 1, 1.0, tol=value)


class TestStability:
    def test_frozen_value(self):
        assert stability_delta(0.1, 2, 2.0) == pytest.approx(0.55333333333333333, abs=1e-13)

    def test_threshold(self):
        assert stability_threshold(2, 3.0) == pytest.approx(min(3.0 ** -0.5, 0.75), abs=1e-14)
        assert stability_threshold(1, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_domain(self):
        eps0 = stability_threshold(2, 1.5)
        with pytest.raises(ValueError):
            stability_delta(0.0, 2, 1.5)
        with pytest.raises(ValueError):
            stability_delta(eps0 * 1.01, 2, 1.5)
        for k in (0, 1.5, float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                stability_threshold(k, 1.5)

    def test_vanishes_at_origin(self):
        for a in (1.5, 3.0):
            for k in (1, 2, 5):
                assert stability_delta(1e-9, k, a) < 1e-6

    def test_strictly_increasing(self):
        for a in (1.5, 3.0):
            for k in (2, 5):
                eps0 = stability_threshold(k, a)
                grid = np.linspace(eps0 / 100.0, eps0, 100)
                vals = [stability_delta(x, k, a) for x in grid]
                assert np.all(np.diff(vals) > 0)

    def test_k1_normalizer_is_exact_maximum(self):
        a, xi = 2.0, 0.1
        num = float(mp_gap_bound(xi, 2, a) + mp_entropy_term(xi, a))
        peak = entropy_term(entropy_term_argmax(a), a)
        assert stability_delta(xi, 1, a) == pytest.approx(num / peak, rel=1e-12)

    def test_oracle_agreement_k2(self):
        a, k = 3.0, 2
        for xi in (0.05, 0.2, 0.5):
            expected = float((mp_gap_bound(xi, k + 1, a) + mp_entropy_term(xi, a)) / mp_qlog(k, a))
            assert stability_delta(xi, k, a) == pytest.approx(expected, rel=1e-11)


class TestAdversarialSearch:
    def test_zero_epsilon(self):
        res = adversarial_search(2, 1.0, 0.0)
        assert res.achieved == 0.0
        assert res.tightness == 0.0

    def test_known_witness_is_beaten(self):
        # moving one coordinate from the peak point down by 0.1 is feasible,
        # so the search must achieve at least that gap
        res = adversarial_search(1, 1.0, 0.1)
        witness = 0.015023753516670099
        assert res.achieved >= witness - 1e-12
        assert res.achieved == pytest.approx(0.23025850929940457, abs=1e-6)

    def test_feasibility_of_returned_pair(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            a = rng.uniform(0.3, 4.0)
            eps = min(0.9, 0.8 * fannes_bound(0.0, k, a).threshold)
            rng.integers(1000)  # one spare draw per instance keeps the ten instances this test pins
            res = adversarial_search(k, a, eps)
            assert np.all(res.x >= 0.0) and np.all(res.y >= 0.0)
            assert res.x.sum() <= 1.0 + 1e-12
            assert res.y.sum() <= 1.0 + 1e-12
            assert np.abs(res.x - res.y).sum() <= eps + 1e-12
            assert res.tightness <= 1.0 + 1e-9

    def test_tightness_below_one_on_grid(self):
        for k in (1, 2):
            for a in (0.7, 1.0, 2.5):
                eps = 0.5 * fannes_bound(0.0, k, a).threshold
                res = adversarial_search(k, a, eps)
                assert res.tightness < 1.0

    def test_deterministic_given_seed(self):
        r1 = adversarial_search(2, 1.5, 0.1)
        r2 = adversarial_search(2, 1.5, 0.1)
        assert r1.achieved == r2.achieved
        assert np.array_equal(r1.x, r2.x) and np.array_equal(r1.y, r2.y)

    def test_infeasible_epsilon_rejected(self):
        with pytest.raises(ValueError):
            adversarial_search(1, 3.0, 0.9)

    def test_tiny_epsilon_is_not_a_violation(self):
        # the bound is tight to O(eps) here; the raised mass is what the rounded
        # lowered pair leaves of eps, so the witness stays within eps
        res = adversarial_search(2, 2.0, 5e-15)
        assert res.achieved == pytest.approx(res.bound_rhs, rel=0.05)
        assert np.abs(res.x - res.y).sum() <= 5e-15
        assert res.tightness <= 1.0 + 1e-9

    def test_violation_path_raises_with_witness(self):
        with pytest.raises(BoundViolationError) as exc_info:
            adversarial_search(1, 1.0, 0.1, tol=-1.0)
        assert str(exc_info.value).startswith("pair achieved 0.23025850929940456 above the bound")
        witness = exc_info.value.witness
        assert witness is not None
        assert witness.achieved > 0.0


def _sequential_search(k, alpha, eps, restarts, seed, max_steps=600):
    """Random-restart projected coordinate ascent, one move at a time. Each
    restart draws from its own ``[seed, restart]`` stream a start pair, then an
    (n, 3) block of uniforms per round of n <= 8k moves."""
    def project(x, y):
        x, y = np.clip(x, 0.0, None), np.clip(y, 0.0, None)
        if x.sum() > 1.0:
            x = x / x.sum()
        if y.sum() > 1.0:
            y = y / y.sum()
        gap = float(np.abs(x - y).sum())
        if gap > eps:
            y = x + (eps / gap) * (y - x)
        return x, y

    def gap_value(x, y):
        return abs(float(np.sum(entropy_term(x, alpha)) - np.sum(entropy_term(y, alpha))))

    best, best_pair, total = -1.0, None, 0
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        x, y = project(*rng.random((2, k)))
        value, step, steps = gap_value(x, y), 0.5, 0
        while step > 1e-7 and steps < max_steps:
            n = min(8 * k, max_steps - steps)
            improved = False
            for u0, u1, u2 in rng.random((n, 3)):
                cx, cy = x.copy(), y.copy()
                target = cx if u0 < 0.5 else cy
                target[min(int(u1 * k), k - 1)] += step * (2.0 * u2 - 1.0)
                cx, cy = project(cx, cy)
                candidate = gap_value(cx, cy)
                if candidate > value:
                    x, y, value, improved = cx, cy, candidate, True
            steps += n
            if not improved:
                step *= 0.5
        total += steps
        if value > best:
            best, best_pair = value, (x, y)
    return best_pair, best, total


def _two_group_grid_max(k, a, eps, n=129):
    """Best pair on an (n, n) grid of lowered mass t and raised mass r with
    t + r <= eps, the lowered coordinates' x value at its cap; the l1 budget
    is not assumed to bind."""
    t, r = np.meshgrid(np.linspace(0.0, eps, n), np.linspace(0.0, eps, n), indexing="ij")
    t, r = t[t + r <= eps], r[t + r <= eps]
    best = k * entropy_term(eps / k, a)
    for j in range(1, k + 1):
        raised = r if j < k else np.zeros_like(r)
        total = np.minimum(1.0, 1.0 + t - raised)
        gap = j * (entropy_term((total - t) / j, a) - entropy_term(total / j, a))
        if j < k:
            gap = gap + (k - j) * entropy_term(raised / (k - j), a)
        best = max(best, gap.max())
    return best


def _feasible_pairs(rng, k, eps, n):
    """n random pairs of nonnegative k-vectors with sums <= 1 and l1 gap <= eps."""
    x = rng.dirichlet(np.ones(k), n) * rng.uniform(0.0, 1.0, (n, 1))
    z = rng.dirichlet(np.ones(k), n) * rng.uniform(0.0, 1.0, (n, 1))
    gap = np.abs(z - x).sum(axis=1, keepdims=True)
    scale = np.minimum(1.0, eps / np.where(gap > 0.0, gap, 1.0))
    return x, x + scale * rng.uniform(0.0, 1.0, (n, 1)) * (z - x)


class TestExactSupremum:
    """The two-group supremum against an mpmath oracle, the random search, a
    free (t, r) grid and random feasible pairs."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_mpmath_oracle(self, k):
        for a in (0.5, 1.0, 2.5, 5.0):
            for eps in (0.05, 0.2):
                expected = float(mp_adversarial_sup(k, a, eps))
                assert adversarial_search(k, a, eps).achieved == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 5.0])
    def test_never_below_search(self, k, a):
        for eps in (0.05, 0.2):
            _, found, _ = _sequential_search(k, a, eps, restarts=2, seed=0)
            assert found <= adversarial_search(k, a, eps).achieved + 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 5.0])
    def test_search_converges_to_it(self, k, a):
        # one restart per seed until one lands within 1e-7; a restart can stop
        # on a local maximum, and these cells need up to 6 seeds
        exact = adversarial_search(k, a, 0.1).achieved
        for seed in range(40):
            _, found, _ = _sequential_search(k, a, 0.1, restarts=1, seed=seed)
            assert found <= exact + 1e-12
            if abs(found - exact) <= 1e-7:
                return
        pytest.fail(f"no restart of the search came within 1e-7 of {exact}")

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_free_grid_never_beats_it(self, k):
        for a in (0.3, 1.0, 2.5, 8.0):
            threshold = fannes_bound(0.0, k, a).threshold
            for eps in (0.1 * threshold, 0.5 * threshold, threshold):
                assert _two_group_grid_max(k, a, eps) <= adversarial_search(k, a, eps).achieved + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 8), a=st.floats(0.3, 8.0), frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_witness_properties(self, k, a, frac, seed):
        eps = frac * fannes_bound(0.0, k, a).threshold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adversarial_search(k, a, eps)
        assert bounds._pair_residual(res.x, res.y, eps) <= bounds.FEASIBILITY_TOL
        assert res.achieved == abs(entropy_sum_diff(res.x, res.y, a))
        assert res.tightness <= 1.0 + 1e-9
        rng = np.random.default_rng(seed)
        x, y = _feasible_pairs(rng, k, eps, 200)
        # mixtures with the witness stay feasible, as the domain is convex
        mix = rng.uniform(0.0, 0.05, (200, 1))
        x = np.vstack([x, (1.0 - mix) * res.x + mix * x])
        y = np.vstack([y, (1.0 - mix) * res.y + mix * y])
        gaps = np.abs(entropy_term(x, a).sum(axis=1) - entropy_term(y, a).sum(axis=1))
        assert gaps.max() <= res.achieved + 1e-12

    def test_tight_at_large_k(self):
        assert adversarial_search(32, 1.0, 0.05).tightness >= 0.99


class TestKernelCores:
    """The unchecked kernels ``_term`` and ``_qlog`` are only ever handed
    arrays in their range by the callers that skip the public checks."""

    @pytest.fixture
    def spied(self, monkeypatch):
        seen = {"_term": 0, "_qlog": 0}

        def spy(name, core, ok):
            def checked(arr, a):
                assert type(arr) is np.ndarray and arr.dtype == float, type(arr)
                assert np.all(ok(arr)), arr
                seen[name] += 1
                return core(arr, a)
            return checked

        in_range = {"_term": lambda v: (v >= 0.0) & (v <= 1.0), "_qlog": lambda v: (v > 0.0) & (v < np.inf)}
        for module in (bounds, classical):
            for name, ok in in_range.items():
                monkeypatch.setattr(module, name, spy(name, getattr(module, name), ok))
        return seen

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.0 + 1e-7, 2.5, 5.0, 10.0])
    def test_arguments_in_range(self, spied, a):
        for k in (1, 2, 3, 4, 8, 32):
            threshold = fannes_bound(0.0, k, a).threshold
            grid = np.linspace(0.0, threshold, 9)
            fannes_bounds(grid, k, a)
            fannes_bounds(grid[:, None], np.arange(1, k + 1), a)
            for eps in grid:
                res = adversarial_search(k, a, float(eps))
                assert res.achieved == entropy_sum_diff(res.y, res.x, a)
            max_partial_bounds(k, a)
            for m in (k, k + 1, 2 * k + 1):
                max_partial_sum(m, k, a)
        assert spied["_term"] > 0 and spied["_qlog"] > 0


class TestFullEntropyCouplingBound:
    def test_holds_at_full_order(self):
        # coupling-style bound on total entropies for orders above 1
        rng = np.random.default_rng(73)
        for _ in range(2000):
            m = int(rng.integers(2, 9))
            p, q = sample_simplex(m, rng), sample_simplex(m, rng)
            a = rng.uniform(1.0 + 1e-6, 10.0)
            delta = kolmogorov_distance(p, q)
            lhs = abs(partial_sum(p, m, a) - partial_sum(q, m, a))
            rhs = (delta ** a * q_log(m - 1, a) if m > 2 else 0.0) + binary_entropy(delta, a)
            assert lhs <= rhs + 1e-10
