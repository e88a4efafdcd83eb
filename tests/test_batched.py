"""Property tests for the batched all-k, all-order numeric core, and call-count
guards that keep the sweep's work independent of the number of cells."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropic_sums
from entropic_sums import (
    DensityOperator,
    DensityStack,
    RunConfig,
    adversarial_search,
    binary_entropy,
    check_classical,
    check_quantum,
    classical_checks,
    cli_main,
    density_checks,
    entropy_term,
    entropy_term_argmax,
    fannes_bound,
    fannes_bounds,
    fidelity_checks,
    kolmogorov_distance,
    ky_fan_distance,
    ky_fan_distances,
    max_partial_bounds,
    pair_checks,
    partial_distance,
    partial_distances,
    partial_fidelities,
    partial_fidelity,
    partial_sum,
    partial_sums,
    psd_sqrt,
    q_log,
    quantum_checks,
    run_sweep,
    sample_density,
    sample_near,
    sample_simplex,
    spectra,
    stability_delta,
    stability_threshold,
)
from entropic_sums.cli import SWEEP_CHUNK
from entropic_sums.sampling import density_operators, near_operators, near_points, simplex_points

from _oracles import mp_fannes_rhs, mp_partial_sum

#: Orders away from the near-1 band, where the ratio kernels lose accuracy.
ORDERS = st.one_of(st.sampled_from((0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)),
                   st.floats(0.05, 0.9), st.floats(1.1, 9.0))


@st.composite
def prob_stacks(draw):
    """An (n, m) stack of probability vectors, some with exact zeros."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m)))
    raw = raw.reshape(n, m)
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def density_pairs(seed, n, d):
    rng = np.random.default_rng(seed)
    rhos = [sample_density(d, rng) for _ in range(n)]
    sigmas = [sample_near(r, 10.0 ** rng.uniform(-3.0, 0.0), rng) for r in rhos]
    return rhos, sigmas


def as_stack(states):
    """The matrices of a list of density operators as one stack."""
    return DensityStack(np.stack([rho.matrix for rho in states]))


class TestPartialSums:
    @settings(max_examples=150, deadline=None)
    @given(prob_stacks(), st.lists(ORDERS, min_size=1, max_size=3))
    def test_matches_per_k_loop(self, probs, alphas):
        sums = partial_sums(probs, alphas)
        n, m = probs.shape
        assert sums.shape == (n, len(alphas), m)
        for i in range(n):
            for j, a in enumerate(alphas):
                terms = np.sort(entropy_term(probs[i], a))
                for k in range(1, m + 1):
                    assert sums[i, j, k - 1] == pytest.approx(terms[m - k:].sum(), rel=0, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(prob_stacks(), ORDERS)
    def test_matches_high_precision_oracle(self, probs, alpha):
        sums = partial_sums(probs, [alpha])
        for i, p in enumerate(probs):
            for k in range(1, p.size + 1):
                expected = float(mp_partial_sum([float(v) for v in p], k, alpha))
                assert sums[i, 0, k - 1] == pytest.approx(expected, rel=0, abs=1e-13)


class TestKyFanDistances:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 7))
    def test_matches_per_k_svd(self, seed, n, d):
        rhos, sigmas = density_pairs(seed, n, d)
        dists = ky_fan_distances(as_stack(rhos), as_stack(sigmas))
        assert dists.shape == (n, d)
        for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
            s = np.linalg.svd(rho.matrix - sigma.matrix, compute_uv=False)
            for k in range(1, d + 1):
                assert dists[i, k - 1] == pytest.approx(s[:k].sum(), rel=0, abs=1e-13)
            assert np.array_equal(ky_fan_distances(rho, sigma), dists[i])


class TestPartialFidelities:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 7))
    def test_tails_nonincreasing_and_exact_ends(self, seed, n, d):
        rhos, sigmas = density_pairs(seed, n, d)
        fids = partial_fidelities(as_stack(rhos), as_stack(sigmas))
        assert fids.shape == (n, d + 1)
        assert np.all(np.diff(fids, axis=-1) <= 0.0)
        assert np.all(fids[:, d] == 0.0)
        for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
            s = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)
            assert fids[i, 0] == pytest.approx(s.sum(), rel=0, abs=1e-13)

    def test_pure_orthogonal_states(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        sigma = DensityOperator(np.diag([0.0, 1.0]))
        assert partial_fidelities(rho, sigma).tolist() == [0.0, 0.0, 0.0]


class TestFannesBounds:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6), st.integers(1, 8), ORDERS)
    def test_matches_oracle_per_cell(self, eps_list, top, alpha):
        eps = np.array(eps_list)[:, None]
        ks = np.arange(1, top + 1)
        rhs, threshold, applicable = fannes_bounds(eps, ks, alpha)
        assert rhs.shape == threshold.shape == applicable.shape == (eps.size, top)
        x0 = entropy_term_argmax(alpha)
        for i, e in enumerate(eps_list):
            for k in ks:
                cell = (i, k - 1)
                expected_threshold = x0 if alpha <= 2.0 else min(x0, (k + 1) / (k + 2))
                assert threshold[cell] == expected_threshold
                assert applicable[cell] == (e <= expected_threshold)
                if e > 1.0:
                    assert np.isnan(rhs[cell])
                else:
                    expected = float(mp_fannes_rhs(e, int(k), alpha))
                    assert rhs[cell] == pytest.approx(expected, rel=1e-11, abs=1e-12)

    def test_high_order_threshold_is_k_dependent(self):
        _, threshold, _ = fannes_bounds(0.1, [1, 2, 3], 10.0)
        x0 = entropy_term_argmax(10.0)
        assert threshold.tolist() == [2 / 3, min(x0, 3 / 4), min(x0, 4 / 5)]
        assert threshold[0] < x0

    def test_validates_distance_once_for_the_array(self):
        with pytest.raises(ValueError):
            fannes_bounds([0.1, -0.2], 1, 1.0)
        with pytest.raises(ValueError):
            fannes_bounds([0.1, np.nan], 1, 1.0)
        with pytest.raises(ValueError):
            fannes_bounds(0.1, [1, 0], 1.0)

    def test_pair_checks_bounds_equal_fannes_bounds_bit_for_bit(self):
        alphas = [0.3, 1.0, 2.0, 2.5, 7.0]
        m = 5
        ks = np.arange(1, m + 1)
        # distances at 0, at every order's threshold, past 1, and in between
        rows = [np.zeros(m), np.full(m, 1.3), np.linspace(0.01, 0.99, m)]
        rows += [fannes_bounds(0.0, ks, alpha)[1] for alpha in alphas]
        distances = np.array(rows)
        rng = np.random.default_rng(8)
        values = simplex_points(rng.exponential(size=(2, len(rows), m)))
        table = pair_checks(*values, distances, alphas)
        for i, alpha in enumerate(alphas):
            expected = fannes_bounds(distances, ks, alpha)
            for name, column in zip(("rhs", "threshold", "applicable"), expected):
                assert getattr(table, name)[:, i].tobytes() == np.ascontiguousarray(column).tobytes()
        assert table.applicable[3 + np.arange(len(alphas)), np.arange(len(alphas))].all()
        assert np.isnan(table.rhs[1]).all()

    @pytest.mark.parametrize("bad", [-1e-3, np.nan])
    def test_pair_checks_rejects_a_negative_or_nan_distance(self, bad):
        p = np.array([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="epsilon must be a finite nonnegative real"):
            pair_checks(p, p, [0.0, bad, 0.0], [0.5, 2.5])


#: Orders on both sides of 1 and of 2, where the kernels and the bound change form.
CELL_ORDERS = (0.3, 0.7, 0.9, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0)


class TestScalarCells:
    """Every scalar API gives, bit for bit, one cell of its stacked form.
    Values are compared by repr, so that a NaN equals a NaN."""

    def test_fannes_bound_is_a_cell_of_fannes_bounds(self):
        rng = np.random.default_rng(29)
        eps = np.concatenate([np.geomspace(1e-6, 1.0, 16), 10.0 ** rng.uniform(-6.0, 0.0, 16), [1.3]])
        ks = np.arange(1, 51)
        for alpha in CELL_ORDERS:
            rhs, threshold, applicable = fannes_bounds(eps[:, None], ks, alpha)
            for i, e in enumerate(eps.tolist()):
                for k in ks.tolist():
                    bound = fannes_bound(e, k, alpha)
                    cell = (i, k - 1)
                    assert repr((bound.rhs, bound.threshold, bound.applicable)) == repr(
                        (float(rhs[cell]), float(threshold[cell]), bool(applicable[cell]))), (e, k, alpha)

    def test_adversarial_search_bound_is_the_commands_rhs(self, capsys):
        alphas, ks, grid = CELL_ORDERS, [1, 2, 3, 8, 50], [1e-6, 1e-4, 0.003, 0.01, 0.05, 0.1, 0.3]
        argv = ["adversarial", "--alpha", ",".join(map(repr, alphas)), "--k", ",".join(map(str, ks)),
                "--eps", ",".join(map(repr, grid)), "--format", "json"]
        assert cli_main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        applicable = [row for row in rows if row["applicable"]]
        assert len(rows) == len(alphas) * len(ks) * len(grid) and len(applicable) > len(rows) // 2
        for row in applicable:
            result = adversarial_search(row["k"], row["alpha"], row["epsilon"])
            assert repr((result.achieved, result.bound_rhs)) == repr((row["lhs"], row["rhs"])), row

    def test_stability_threshold_and_delta_are_cells_of_the_bound(self):
        for alpha in CELL_ORDERS:
            for k in range(1, 51):
                threshold = min(entropy_term_argmax(alpha), (k + 1) / (k + 2))
                assert repr(stability_threshold(k, alpha)) == repr(threshold)
                if alpha > 2.0:
                    xi = np.geomspace(1e-6, threshold, 12)
                    stacked = fannes_bounds(xi, k, alpha)[0] / max_partial_bounds(k, alpha)[0]
                    for x, delta in zip(xi.tolist(), stacked.tolist()):
                        assert repr(stability_delta(x, k, alpha)) == repr(delta), (x, k, alpha)

    def test_kolmogorov_distance_is_half_the_last_partial_distance(self):
        rng = np.random.default_rng(11)
        for m in range(1, 41):
            p, q = simplex_points(rng.exponential(size=(2, 8, m)))
            stacked = partial_distances(p, q)[:, -1].tolist()
            for i in range(8):
                assert repr(2 * kolmogorov_distance(p[i], q[i])) == repr(stacked[i]), (m, i)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_sums_distances_fidelities_and_checks_are_cells_of_their_stacks(self, d):
        n = 4
        rng = np.random.default_rng(d)
        base, fresh = simplex_points(rng.exponential(size=(2, n, d)))
        p, q = base, near_points(base, fresh, 10.0 ** rng.uniform(-3.0, 0.3, n))
        rho, fresh_rho = (density_operators(*rng.standard_normal((2, n, d, d))) for _ in range(2))
        sigma = near_operators(rho, fresh_rho, 10.0 ** rng.uniform(-3.0, 0.3, n))
        sums, distances = partial_sums(p, CELL_ORDERS), partial_distances(p, q)
        ky_fan, fidelities = ky_fan_distances(rho, sigma), partial_fidelities(rho, sigma)
        classical, quantum = classical_checks(p, q, CELL_ORDERS), quantum_checks(rho, sigma, CELL_ORDERS)
        for i in range(n):
            r, s = DensityOperator(rho.matrices[i]), DensityOperator(sigma.matrices[i])
            assert repr(partial_fidelity(r, s, 0)) == repr(float(fidelities[i, 0]))
            for k in range(1, d + 1):
                assert repr(partial_distance(p[i], q[i], k)) == repr(float(distances[i, k - 1]))
                assert repr(ky_fan_distance(r, s, k)) == repr(float(ky_fan[i, k - 1]))
                assert repr(partial_fidelity(r, s, k)) == repr(float(fidelities[i, k]))
                for a, alpha in enumerate(CELL_ORDERS):
                    cell = (i, a, k - 1)
                    assert repr(partial_sum(p[i], k, alpha)) == repr(float(sums[cell]))
                    assert repr(check_classical(p[i], q[i], k, alpha)) == repr(classical.cell(cell))
                    assert repr(check_quantum(r, s, k, alpha)) == repr(quantum.cell(cell))


def spectrum(rho):
    vals = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, 1.0)
    vals[vals < 1e-13] = 0.0
    return vals / vals.sum()


def per_cell_sweep(config):
    """Rows of ``run_sweep`` rebuilt one cell at a time from the same draws,
    with each quantity computed directly from the kernels and numpy."""
    rng = np.random.default_rng(config.seed)
    tol = 1e-9
    rows = []

    def emit(experiment, dim, values_p, values_q, distances):
        for alpha in config.alpha_grid:
            for k in config.k_policy:
                if k > dim:
                    continue
                top = lambda v: np.sort(entropy_term(v, alpha))[dim - k:].sum()
                lhs = abs(top(values_p) - top(values_q))
                eps = distances[:k].sum()
                threshold = entropy_term_argmax(alpha)
                if eps > 1.0:
                    rhs = float("nan")
                else:
                    rhs = eps ** alpha * q_log(k + 1.0, alpha) + entropy_term(eps, alpha)
                if alpha > 2.0:
                    rhs += binary_entropy(min(eps, 1.0), alpha)
                    threshold = min(threshold, (k + 1) / (k + 2))
                applicable = bool(eps <= threshold)
                satisfied = bool(lhs <= rhs + tol) if applicable else None
                rows.append((experiment, alpha, k, dim, eps, lhs, rhs, applicable, satisfied))

    for _ in range(config.trials):
        for m in config.dims:
            p = sample_simplex(m, rng)
            q = sample_near(p, 10.0 ** rng.uniform(-3.0, 0.0), rng)
            emit("sweep_classical", m, p.values, q.values,
                 np.sort(np.abs(p.values - q.values))[::-1])
        for d in config.dims:
            rho = sample_density(d, rng)
            sigma = sample_near(rho, 10.0 ** rng.uniform(-3.0, 0.0), rng)
            emit("sweep_quantum", d, spectrum(rho), spectrum(sigma),
                 np.linalg.svd(rho.matrix - sigma.matrix, compute_uv=False))
    return rows


class TestRunSweepBatched:
    def test_duplicate_unsorted_dims_match_per_cell_loop(self):
        config = RunConfig(seed=11, trials=3, alpha_grid=[0.5, 3.0], k_policy=[1, 3], dims=[8, 2, 8])
        rows = run_sweep(config)
        expected = per_cell_sweep(config)
        assert len(rows) == len(expected) == 3 * 2 * 2 * (2 + 1 + 2)
        for row, (experiment, alpha, k, dim, eps, lhs, rhs, applicable, satisfied) in zip(rows, expected):
            assert (row.experiment, row.alpha, row.k, row.dim) == (experiment, alpha, k, dim)
            assert row.epsilon == pytest.approx(eps, rel=0, abs=1e-13)
            assert row.lhs == pytest.approx(lhs, rel=0, abs=1e-13)
            assert row.rhs == pytest.approx(rhs, rel=0, abs=1e-13, nan_ok=True)
            assert row.margin == pytest.approx(rhs - lhs, rel=0, abs=1e-13, nan_ok=True)
            assert (row.applicable, row.satisfied) == (applicable, satisfied)
            assert type(row.applicable) is bool

    def test_k_fitting_no_dimension_is_an_error(self):
        with pytest.raises(ValueError, match="k=5"):
            run_sweep(RunConfig(seed=0, trials=1, alpha_grid=[1.0], k_policy=[1, 5], dims=[2, 4]))


def _sweep_stack(g, h, eps, re, im, fre, fim, alphas):
    """The stacked build and check table of one dims entry, as the sweep makes
    it: base and fresh draws built as one stack, then split."""
    n = len(g)
    p, fresh = np.split(simplex_points(np.concatenate([g, h])), [n])
    q = near_points(p, fresh, eps)
    rho, fresh_rho = density_operators(np.concatenate([re, fre]), np.concatenate([im, fim])).split(n)
    sigma = near_operators(rho, fresh_rho, eps)
    table = pair_checks(np.concatenate([p, spectra(rho)]), np.concatenate([q, spectra(sigma)]),
                        np.concatenate([partial_distances(p, q), ky_fan_distances(rho, sigma)]),
                        alphas)
    return p, q, rho, sigma, table


class TestStackedBuilds:
    """A row of a stacked build equals the same build on a stack of one, bit
    for bit: stacked matmul, trace, eigvalsh and svd give the per-matrix
    results, so sweep output does not depend on how many trials share a stack."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_rows_match_stacks_of_one(self, d):
        rng = np.random.default_rng(100 + d)
        n, alphas = 6, [0.3, 1.0, 2.5, 7.0]
        draws = [rng.exponential(size=(n, d)), rng.exponential(size=(n, d)),
                 np.concatenate([[0.0, np.inf], 10.0 ** rng.uniform(-3.0, 0.0, size=n - 2)]),
                 *(rng.standard_normal((n, d, d)) for _ in range(4))]
        p, q, rho, sigma, table = _sweep_stack(*draws, alphas)
        for i in range(n):
            p1, q1, rho1, sigma1, table1 = _sweep_stack(*(x[i:i + 1] for x in draws), alphas)
            assert p[i].tobytes() == p1[0].tobytes() and q[i].tobytes() == q1[0].tobytes()
            for stacked, single in ((rho, rho1), (sigma, sigma1)):
                assert stacked.matrices[i].tobytes() == single.matrices[0].tobytes()
                assert spectra(stacked)[i].tobytes() == spectra(single)[0].tobytes()
            for name in ("lhs", "epsilon", "rhs", "applicable", "satisfied", "margin"):
                assert getattr(table, name)[[i, n + i]].tobytes() == getattr(table1, name).tobytes()

    def test_stacks_are_read_only_and_valid(self):
        rng = np.random.default_rng(5)
        p, q, rho, sigma, _ = _sweep_stack(
            rng.exponential(size=(4, 3)), rng.exponential(size=(4, 3)), [0.1, 0.2, 0.3, 0.4],
            *(rng.standard_normal((4, 3, 3)) for _ in range(4)), [1.0])
        assert not p.flags.writeable and not q.flags.writeable
        assert np.allclose(q.sum(axis=-1), 1.0) and np.all(np.abs(q - p).sum(axis=-1) <= 0.4 + 1e-12)
        for stack in (rho, sigma):
            assert not stack.matrices.flags.writeable and not stack.eigenvalues.flags.writeable
            assert np.allclose(stack.matrices, np.swapaxes(stack.matrices.conj(), -1, -2))

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_density_checks_stack_the_ky_fan_and_fidelity_tables(self, d):
        # one pair and a stack of pairs; each half equals its own table bit for bit
        rng = np.random.default_rng(200 + d)
        rho = density_operators(*(rng.standard_normal((3, d, d)) for _ in range(2)))
        sigma = near_operators(rho, density_operators(*(rng.standard_normal((3, d, d)) for _ in range(2))),
                               [1e-3, 0.05, 0.4])
        alphas = [0.3, 1.0, 2.5, 7.0]
        for a, b in ((DensityOperator(rho.matrices[0]), DensityOperator(sigma.matrices[0])), (rho, sigma)):
            table = density_checks(a, b, alphas)
            for half, expected in enumerate((quantum_checks(a, b, alphas), fidelity_checks(a, b, alphas))):
                for name in ("lhs", "epsilon", "rhs", "threshold", "applicable", "satisfied", "margin"):
                    assert getattr(table, name)[half].tobytes() == getattr(expected, name).tobytes()

    def test_nan_epsilon_is_rejected_by_the_stacked_mix(self):
        rng = np.random.default_rng(6)
        p = simplex_points(rng.exponential(size=(2, 3)))
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            near_points(p, simplex_points(rng.exponential(size=(2, 3))), [0.1, np.nan])


KINDS = ("generic", "rank_deficient", "near_degenerate")


def gaussian_parts(rng, n, d, kind):
    """Real and imaginary parts of n square matrices G whose G G* are
    generic, of rank below d (trailing columns of G zero), or near the
    identity (G = I plus noise down to 1e-12, or exactly I), which makes
    the spectrum near-degenerate."""
    re, im = rng.standard_normal((n, d, d)), rng.standard_normal((n, d, d))
    if kind == "rank_deficient":
        rank = int(rng.integers(1, d)) if d > 1 else 1
        re[..., rank:], im[..., rank:] = 0.0, 0.0
    elif kind == "near_degenerate":
        scale = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-12.0, -4.0)
        re, im = np.eye(d) + scale * re, scale * im
    return re, im


class TestStackForm:
    """A density stack and the same matrices built one by one as
    :class:`DensityOperator` give the same bytes from every stacked function,
    and a merged build splits into the separate builds bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5), st.sampled_from(KINDS))
    def test_rows_equal_the_scalar_path(self, seed, d, n, kind):
        rng = np.random.default_rng(seed)
        rho, sigma = (density_operators(*gaussian_parts(rng, n, d, kind)) for _ in range(2))
        stacked = (spectra(rho), spectra(sigma), ky_fan_distances(rho, sigma), psd_sqrt(rho),
                   partial_fidelities(rho, sigma))
        for i in range(n):
            r, s = DensityOperator(rho.matrices[i]), DensityOperator(sigma.matrices[i])
            single = (spectra(r), spectra(s), ky_fan_distances(r, s), psd_sqrt(r), partial_fidelities(r, s))
            for many, one in zip(stacked, single):
                assert many[i].tobytes() == one.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 5), st.sampled_from(KINDS))
    def test_merged_build_equals_separate_builds(self, seed, d, n, kind):
        rng = np.random.default_rng(seed)
        (re, im), (fre, fim) = gaussian_parts(rng, n, d, kind), gaussian_parts(rng, n, d, kind)
        merged = density_operators(np.concatenate([re, fre]), np.concatenate([im, fim])).split(n)
        for part, alone in zip(merged, (density_operators(re, im), density_operators(fre, fim))):
            assert part.matrices.tobytes() == alone.matrices.tobytes()
            assert part.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert not part.matrices.flags.writeable and not part.eigenvalues.flags.writeable
        g, h = rng.exponential(size=(2, n, d))
        p, q = np.split(simplex_points(np.concatenate([g, h])), 2)
        assert p.tobytes() == simplex_points(g).tobytes() and q.tobytes() == simplex_points(h).tobytes()

    def test_stack_is_checked_and_copied_at_construction(self):
        with pytest.raises(ValueError, match="stack of matrices"):
            DensityStack(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityStack(np.stack([np.eye(2) / 2.0, np.diag([1.5, -0.5])]))
        with pytest.raises(ValueError, match="finite"):
            DensityStack(np.full((1, 2, 2), np.nan + 0.5j))
        source = np.stack([np.eye(2) / 2.0])
        stack = DensityStack(source)
        source[0, 0, 0] = 9.0
        assert stack.matrices[0, 0, 0] == 0.5 and not stack.matrices.flags.writeable

    def test_an_operator_has_no_axis_to_split(self):
        rho = sample_density(3, np.random.default_rng(0))
        assert isinstance(rho, DensityStack) and rho.matrices.shape == (3, 3)
        with pytest.raises(TypeError, match="no leading axis"):
            rho.split(1)

    def test_sequences_of_operators_are_rejected(self):
        rho = sample_density(2, np.random.default_rng(0))
        for fn in (spectra, psd_sqrt):
            with pytest.raises(TypeError, match="DensityStack"):
                fn([rho, rho])
        with pytest.raises(TypeError, match="DensityStack"):
            ky_fan_distances([rho], [rho])


class TestPaddedPairChecks:
    """Entries of several dimensions, zero-padded to the largest and checked in
    one table, equal their own tables bit for bit at every k <= m:
    entropy_term(0) is exactly 0, so the padding only appends zero terms
    after the largest-first running sums."""

    def test_padded_entries_match_separate_calls(self):
        rng = np.random.default_rng(31)
        alphas = [0.3, 1.0, 1.0 + 1e-7, 2.5, 7.0]
        dims, n = (1, 2, 3, 8, 16), 5
        top = max(dims)
        values = np.zeros((2, len(dims), n, top))
        distances = np.empty((len(dims), n, top))
        entries = []
        for j, m in enumerate(dims):
            g = rng.exponential(size=(n, m))
            g[0, : m // 2] = 0.0  # exact zeros among the real entries
            a = simplex_points(g)
            # near pairs, an independent pair and an identical pair
            b = near_points(a, simplex_points(rng.exponential(size=(n, m))),
                            [1e-3, 0.05, 0.3, np.inf, 0.0])
            dist = partial_distances(a, b)
            values[:, j, :, :m] = a, b
            distances[j] = dist[:, -1:]
            distances[j, :, :m] = dist
            entries.append((m, a, b, dist))
        table = pair_checks(*values, distances, alphas)
        for j, (m, a, b, dist) in enumerate(entries):
            expected = pair_checks(a, b, dist, alphas)
            for name in ("lhs", "epsilon", "rhs", "threshold", "applicable", "satisfied", "margin"):
                assert getattr(table, name)[j, ..., :m].tobytes() == getattr(expected, name).tobytes()


class TestCallCountGuards:
    """Deterministic counts, no timing: the sweep's numeric work must come from
    stacked calls, not from one call per (trial, alpha, k) cell."""

    def test_linalg_calls(self, monkeypatch):
        calls = []
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.linalg, name, counted)

        def count(trials):
            calls.clear()
            run_sweep(RunConfig(seed=1, trials=trials, alpha_grid=[0.5, 1.0, 3.0], dims=[2, 4, 8]))
            return Counter(calls)

        # each dims entry is sampled, validated and checked as one stack per
        # chunk: one eigvalsh for the base and fresh operators together, one
        # svd and one eigvalsh in the near mix, one svd for the Ky Fan distances
        per_chunk = Counter(eigvalsh=2 * 3, svd=2 * 3)
        assert count(2) == count(8) == per_chunk
        assert count(SWEEP_CHUNK + 1) == per_chunk + per_chunk

    def test_sweep_creates_no_density_operator(self, monkeypatch):
        made = []
        init = DensityOperator.__init__

        def counted_init(self, matrix):
            made.append(1)
            init(self, matrix)

        # the constructor is the only way to make one, so counting it counts them all
        monkeypatch.setattr(DensityOperator, "__init__", counted_init)
        run_sweep(RunConfig(seed=1, trials=3, alpha_grid=[0.5, 3.0], dims=[1, 4]))
        assert made == []
        # the sampler's operator and the one built from its matrix
        DensityOperator(sample_density(2, np.random.default_rng(0)).matrix)
        assert len(made) == 2

    def test_entropy_term_calls_do_not_grow_with_trials(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return entropy_term(*args, **kwargs)

        modules = [getattr(entropic_sums, name) for name in
                   ("entropy", "classical", "quantum", "bounds", "sampling", "cli")]
        for mod in modules:
            if getattr(mod, "entropy_term", None) is entropy_term:
                monkeypatch.setattr(mod, "entropy_term", counted)

        def count(trials):
            calls.clear()
            run_sweep(RunConfig(seed=1, trials=trials, alpha_grid=[0.5, 1.0, 3.0], dims=[2, 4, 8]))
            return len(calls)

        assert count(2) == count(8) > 0

    def test_density_check_makes_one_partial_sums_call(self, tmp_path, monkeypatch):
        # the Ky Fan and the fidelity rows of a density pair share one lhs
        rng = np.random.default_rng(12)
        files = []
        for name, matrix in zip(("rho.json", "sigma.json"),
                                density_operators(*(rng.standard_normal((2, 4, 4)) for _ in range(2))).matrices):
            path = tmp_path / name
            path.write_text(json.dumps({"kind": "density", "dim": 4, "re": matrix.real.tolist(),
                                        "im": matrix.imag.tolist()}))
            files.append(str(path))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return partial_sums(*args, **kwargs)

        for mod in (entropic_sums.classical, entropic_sums.bounds, entropic_sums.cli):
            if getattr(mod, "partial_sums", None) is partial_sums:
                monkeypatch.setattr(mod, "partial_sums", counted)
        assert cli_main(["check", *files, "--alpha", "0.5,2", "--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 1

    def test_json_check_makes_as_many_dumps_calls_at_every_size(self, tmp_path, monkeypatch):
        # JSON text comes from one json.dumps per column, not one per row
        rng = np.random.default_rng(4)
        dumps, calls = json.dumps, []

        def counted(*args, **kwargs):
            calls.append(1)
            return dumps(*args, **kwargs)

        def count(m):
            files = []
            for name in ("p", "q"):
                path = tmp_path / f"{name}{m}.json"
                values = simplex_points(rng.exponential(size=m)).tolist()
                path.write_text(json.dumps({"kind": "prob_vector", "values": values}))
                files.append(str(path))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(json, "dumps", counted)
                assert cli_main(["check", *files, "--alpha", "0.5,1,3", "--format", "json",
                                 "--out", str(tmp_path / "out.json")]) == 0
            assert len((tmp_path / "out.json").read_text().splitlines()) == 3 * m
            return len(calls)

        assert count(4) == count(64) > 0
