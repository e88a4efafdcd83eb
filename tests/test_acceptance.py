"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass line per
criterion. The randomized suites fix their seeds, so runs are reproducible.
"""

import time

import numpy as np
import pytest

from entropic_sums import (
    JointDistribution,
    binary_entropy,
    check_classical,
    check_quantum,
    cli_main,
    entropy_term,
    entropy_term_argmax,
    eigenvalues_descending,
    instability_example,
    marginal,
    max_partial_sum,
    partial_trace,
    povm_joint_probs,
    product_monotonicity_preconditions,
    psd_sqrt,
    q_log,
    quantum_partial_sum,
    sample_density,
    sample_ensemble,
    sample_near,
    sample_povm,
    sample_simplex,
    basis_povm,
    schmidt_pure_state,
    singular_values_descending,
    stability_delta,
    stability_threshold,
)
from entropic_sums.quantum import PureEnsemble
from entropic_sums.classical import ProbVector


def spectral_ensemble(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = np.clip(vals, 0.0, 1.0)
    return PureEnsemble(ProbVector(vals / vals.sum()), vecs.T.copy())


def bound_margins(p_vals, q_vals, eps_cum, alpha):
    """Vectorized bound margins over every k, on the applicable cells.

    Returns (margins, n_applicable); margins are rhs - lhs where the distance
    is within the regime threshold.
    """
    dim = p_vals.size
    lhs = np.abs(np.cumsum(np.sort(entropy_term(p_vals, alpha))[::-1])
                 - np.cumsum(np.sort(entropy_term(q_vals, alpha))[::-1]))
    ks = np.arange(1, dim + 1, dtype=float)
    x0 = entropy_term_argmax(alpha)
    threshold = np.full(dim, x0) if alpha <= 2.0 else np.minimum(x0, (ks + 1.0) / (ks + 2.0))
    mask = eps_cum <= threshold
    if not mask.any():
        return np.empty(0), 0
    eps = eps_cum[mask]
    rhs = eps ** alpha * q_log(ks[mask] + 1.0, alpha) + entropy_term(eps, alpha)
    if alpha > 2.0:
        rhs = rhs + binary_entropy(eps, alpha)
    return rhs - lhs[mask], int(mask.sum())


def run_theorem_suite(alphas, dims, n_pairs, seed, quantum, tol):
    """Near-pair/independent-pair protocol shared by criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    checked = 0
    worst = np.inf
    for i in range(n_pairs):
        dim = dims[i % len(dims)]
        if quantum:
            rho = sample_density(dim, rng)
            if i % 2 == 0:
                sigma = sample_near(rho, 10.0 ** rng.uniform(-3.0, -0.15), rng)
            else:
                sigma = sample_density(dim, rng)
            p_vals = eigenvalues_descending(rho).values
            q_vals = eigenvalues_descending(sigma).values
            eps_cum = np.cumsum(singular_values_descending(rho.matrix - sigma.matrix))
        else:
            p = sample_simplex(dim, rng)
            if i % 2 == 0:
                q = sample_near(p, 10.0 ** rng.uniform(-3.0, -0.15), rng)
            else:
                q = sample_simplex(dim, rng)
            p_vals, q_vals = p.values, q.values
            eps_cum = np.cumsum(np.sort(np.abs(p.values - q.values))[::-1])
        for alpha in alphas:
            margins, n_applicable = bound_margins(p_vals, q_vals, eps_cum, alpha)
            if n_applicable:
                checked += n_applicable
                worst = min(worst, float(margins.min()))
                assert margins.min() >= -tol
        if i % 1000 == 0:
            # spot-check: the vectorized path must agree with the check API
            alpha = float(rng.choice(alphas))
            k = int(rng.integers(1, dim + 1))
            chk = (check_quantum(rho, sigma, k, alpha) if quantum
                   else check_classical(p, q, k, alpha))
            assert chk.epsilon == pytest.approx(eps_cum[k - 1], abs=1e-12)
            if chk.bound.applicable:
                assert chk.satisfied is True
    return checked, worst


class TestAcceptance:
    def test_c01_theorem_suite_low_orders(self):
        alphas = (0.3, 0.7, 1.0, 1.5, 2.0)
        start = time.time()
        checked_c, worst_c = run_theorem_suite(alphas, (2, 4, 8, 16), 10_000, 101,
                                               quantum=False, tol=1e-9)
        checked_q, worst_q = run_theorem_suite(alphas, (2, 4, 8), 10_000, 102,
                                               quantum=True, tol=1e-9)
        elapsed = time.time() - start
        assert checked_c > 10_000 and checked_q > 10_000
        assert elapsed < 120.0
        print(f"\n[acceptance] criterion 01 PASS: low-order bound suite, "
              f"{checked_c + checked_q} applicable cells, worst margin "
              f"{min(worst_c, worst_q):.3e}, {elapsed:.1f}s")

    def test_c02_theorem_suite_high_orders(self):
        alphas = (2.5, 3.0, 5.0, 10.0)
        checked_c, worst_c = run_theorem_suite(alphas, (2, 4, 8, 16), 10_000, 201,
                                               quantum=False, tol=1e-9)
        checked_q, worst_q = run_theorem_suite(alphas, (2, 4, 8), 10_000, 202,
                                               quantum=True, tol=1e-9)
        assert checked_c > 10_000 and checked_q > 10_000
        print(f"\n[acceptance] criterion 02 PASS: high-order bound suite, "
              f"{checked_c + checked_q} applicable cells, worst margin "
              f"{min(worst_c, worst_q):.3e}")

    def test_c03_second_partial_sum_maximum(self):
        found = max_partial_sum(6, 2, 1.0)
        two_over_e = 2.0 * np.exp(-1.0)
        assert two_over_e - 1e-4 <= found <= np.log(3.0) + 1e-9
        # two terms parked at the peak beat the binary-entropy maximum
        assert two_over_e > np.log(2.0)
        print(f"\n[acceptance] criterion 03 PASS: max of 2nd partial sum "
              f"{found:.10f} in [2/e - 1e-4, ln 3]; 2/e = {two_over_e:.4f} > ln 2 = {np.log(2.0):.4f}")

    def test_c04_instability_ratio(self):
        limit = 1.0 - np.log(2.0)
        for eps, rel_tol in ((1e-4, 0.05), (1e-2, 0.15)):
            _, _, ratio = instability_example(eps)
            assert abs(ratio * eps - limit) / limit < rel_tol
        print(f"\n[acceptance] criterion 04 PASS: instability ratio*eps -> {limit:.4f} "
              f"within 5% at 1e-4 and 15% at 1e-2")

    def test_c05_marginal_refinement_suite(self):
        rng = np.random.default_rng(505)
        alphas = (0.3, 0.7, 1.0, 1.5, 2.5, 5.0)
        worst = np.inf
        for _ in range(10_000):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            grid = rng.exponential(size=(m, n))
            r = JointDistribution(grid / grid.sum())
            p = marginal(r, "rows").values
            flat = r.flattened().values
            alpha = float(rng.choice(alphas))
            lhs = np.cumsum(np.sort(entropy_term(p, alpha))[::-1])
            rhs = np.cumsum(np.sort(entropy_term(flat, alpha))[::-1])
            ks = np.arange(1, m + 1)
            margins = rhs[np.minimum(ks * n, m * n) - 1] - lhs
            worst = min(worst, float(margins.min()))
            assert margins.min() >= -1e-12
        print(f"\n[acceptance] criterion 05 PASS: marginal refinement over 10^4 joints, "
              f"worst margin {worst:.3e}")

    def test_c06_spectral_vs_operator_distance(self):
        rng = np.random.default_rng(606)
        worst = np.inf
        for _ in range(10_000):
            d = int(rng.integers(2, 9))
            rho, sigma = sample_density(d, rng), sample_density(d, rng)
            lam_diff = eigenvalues_descending(rho).values - eigenvalues_descending(sigma).values
            spectral = np.cumsum(np.sort(np.abs(lam_diff))[::-1])
            operator = np.cumsum(singular_values_descending(rho.matrix - sigma.matrix))
            worst = min(worst, float((operator - spectral).min()))
            assert np.all(spectral <= operator + 1e-10)
        print(f"\n[acceptance] criterion 06 PASS: sorted-spectra gauge below operator "
              f"distance on 10^4 pairs, worst margin {worst:.3e}")

    def test_c07_partial_fidelity_bound(self):
        rng = np.random.default_rng(707)
        worst = np.inf
        for _ in range(10_000):
            d = int(rng.integers(2, 9))
            rho, sigma = sample_density(d, rng), sample_density(d, rng)
            s = singular_values_descending(psd_sqrt(rho) @ psd_sqrt(sigma))
            tails = np.concatenate([[s.sum()], s.sum() - np.cumsum(s)])  # F_k for k = 0..d
            dists = np.concatenate([[0.0], np.cumsum(singular_values_descending(rho.matrix - sigma.matrix))])
            margins = 2.0 * (1.0 - tails) - dists
            worst = min(worst, float(margins.min()))
            assert margins.min() >= -1e-9
        print(f"\n[acceptance] criterion 07 PASS: Ky Fan distance below 2(1 - F_k) "
              f"for all k on 10^4 pairs, worst margin {worst:.3e}")

    def test_c08_povm_refinement_bound(self):
        rng = np.random.default_rng(808)
        alphas = (0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)
        worst_spectral = np.inf
        worst_marginal = np.inf
        for _ in range(1_000):
            d = int(rng.integers(2, 5))
            n_states = int(rng.integers(1, 7))
            ens = sample_ensemble(d, n_states, rng)
            rho_mix = None
            for povm in (sample_povm(d, int(rng.integers(d, 2 * d + 1)), rng), basis_povm(d)):
                n_out = povm.n_outcomes
                alpha = float(rng.choice(alphas))
                # operator statement, on the spectral ensemble of a random state
                rho = sample_density(d, rng) if rho_mix is None else rho_mix
                rho_mix = rho
                spec_ens = spectral_ensemble(rho)
                joint = povm_joint_probs(spec_ens, povm).flattened().values
                lam = eigenvalues_descending(rho).values
                lhs = np.cumsum(np.sort(entropy_term(lam, alpha))[::-1])
                rhs_all = np.cumsum(np.sort(entropy_term(joint, alpha))[::-1])
                ks = np.arange(1, d + 1)
                margins = rhs_all[np.minimum(ks * n_out, joint.size) - 1] - lhs
                worst_spectral = min(worst_spectral, float(margins.min()))
                assert margins.min() >= -1e-10
                # weight-marginal statement, on an arbitrary random ensemble
                joint_any = povm_joint_probs(ens, povm).flattened().values
                w = ens.weights.values
                lhs_w = np.cumsum(np.sort(entropy_term(w, alpha))[::-1])
                rhs_any = np.cumsum(np.sort(entropy_term(joint_any, alpha))[::-1])
                ks_w = np.arange(1, n_states + 1)
                margins_w = rhs_any[np.minimum(ks_w * n_out, joint_any.size) - 1] - lhs_w
                worst_marginal = min(worst_marginal, float(margins_w.min()))
                assert margins_w.min() >= -1e-10
        print(f"\n[acceptance] criterion 08 PASS: POVM refinement bound on 10^3 ensembles "
              f"(spectral worst {worst_spectral:.3e}, weight-marginal worst {worst_marginal:.3e})")

    def test_c09_bell_demo(self):
        # pi/6: noncommuting, reduced sums positive while the joint's vanish
        joint6 = schmidt_pure_state(np.pi / 6.0)
        commuting6, _ = product_monotonicity_preconditions(joint6, (2, 2))
        assert not commuting6
        rho_a = partial_trace(joint6, (2, 2), keep="A")
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for k in (1, 2):
                assert quantum_partial_sum(rho_a, k, alpha) > 1e-3
                assert quantum_partial_sum(joint6, k, alpha) < 1e-12
        # pi/4: commuting but degenerate products, and the domination fails
        joint4 = schmidt_pure_state(np.pi / 4.0)
        commuting4, distinct4 = product_monotonicity_preconditions(joint4, (2, 2))
        assert commuting4 and not distinct4
        rho_a4 = partial_trace(joint4, (2, 2), keep="A")
        failures = 0
        for alpha in (0.5, 1.0, 2.0, 5.0):
            for k in (1, 2):
                if quantum_partial_sum(rho_a4, k, alpha) > quantum_partial_sum(joint4, 2 * k, alpha):
                    failures += 1
        assert failures == 8
        print("\n[acceptance] criterion 09 PASS: pi/6 noncommuting with positive reduced "
              "sums and vanishing joint sums; pi/4 commuting, degenerate products, "
              "domination fails in all 8 cells")

    def test_c10_dual_route_oracle(self):
        rng = np.random.default_rng(1010)
        alphas = (0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)
        worst = 0.0
        for _ in range(1_000):
            d = int(rng.integers(2, 9))
            rho = sample_density(d, rng)
            alpha = float(rng.choice(alphas))
            vals, vecs = np.linalg.eigh(rho.matrix)
            vals = np.clip(vals, 0.0, 1.0)
            op = (vecs * entropy_term(vals, alpha)) @ vecs.conj().T
            matrix_route = np.cumsum(singular_values_descending(op))
            eig_route = np.array([quantum_partial_sum(rho, k, alpha) for k in range(1, d + 1)])
            gap = float(np.max(np.abs(matrix_route - eig_route)))
            worst = max(worst, gap)
            assert gap < 1e-10
        print(f"\n[acceptance] criterion 10 PASS: eigenvalue route equals matrix-function "
              f"route on 10^3 states, worst gap {worst:.3e}")

    def test_c11_stability_monotone_and_invertible(self):
        combos = [(1.5, 1), (1.5, 2), (1.5, 5), (3.0, 1), (3.0, 2), (3.0, 5), (5.0, 3)]
        for alpha, k in combos:
            eps0 = stability_threshold(k, alpha)
            grid = np.linspace(eps0 / 100.0, eps0, 100)
            vals = np.array([stability_delta(x, k, alpha) for x in grid])
            assert np.all(np.diff(vals) > 0)
            # bisection inverse over the achieved range
            for target in np.linspace(vals[0], vals[-1], 21)[1:-1]:
                lo, hi = grid[0], eps0
                while hi - lo > 1e-10:
                    mid = 0.5 * (lo + hi)
                    if stability_delta(mid, k, alpha) < target:
                        lo = mid
                    else:
                        hi = mid
                xi = 0.5 * (lo + hi)
                assert stability_delta(xi, k, alpha) == pytest.approx(target, abs=1e-7)
        print("\n[acceptance] criterion 11 PASS: stability curve strictly increasing and "
              f"bisection-invertible to 1e-10 on {len(combos)} (alpha, k) combos")

    def test_c12_sweep_determinism(self, tmp_path):
        args = ["sweep", "--alpha", "0.5,1,3", "--dims", "2,4", "--trials", "50", "--seed", "777"]
        out1, out2, out3 = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        seeded = ["sweep", "--alpha", "0.5,1,3", "--dims", "2,4", "--trials", "50", "--seed", "778"]
        assert cli_main(seeded + ["--out", str(out3)]) == 0
        assert out1.read_bytes() != out3.read_bytes()
        print("\n[acceptance] criterion 12 PASS: identical seeds give byte-identical sweep "
              "output; different seeds differ")
