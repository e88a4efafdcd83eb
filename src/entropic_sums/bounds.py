"""Continuity bounds for partial entropic sums, inequality checks, Lesche-style
stability, and the exact largest entropy-sum gap that the bounds cap."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import classical, quantum
from .entropy import Alpha, AlphaLike, _count, _qlog, _term, as_alpha, entropy_term, entropy_term_argmax

#: Tolerance for inequality verdicts.
DEFAULT_CHECK_TOL = 1e-9
#: Environment override for the verdict tolerance (test-only hook).
TOL_ENV_VAR = "ENTROPIC_SUMS_TOL"

#: Feasibility residual allowed on pairs returned by :func:`adversarial_search`.
FEASIBILITY_TOL = 1e-12


def check_tolerance(override: float | None = None) -> float:
    """Resolve the verdict tolerance: explicit override, else env var, else default.

    Raises ValueError, naming the source, when the value is not a finite
    number. Negative values are accepted: they force every check to fail.
    """
    if override is not None:
        source, raw = "tolerance override", override
    elif TOL_ENV_VAR in os.environ:
        source, raw = TOL_ENV_VAR, os.environ[TOL_ENV_VAR]
    else:
        return DEFAULT_CHECK_TOL
    try:
        tol = float(raw)
    except (TypeError, ValueError):
        tol = math.nan
    if not math.isfinite(tol):
        raise ValueError(f"{source} must be a finite number, got {raw!r}")
    return tol


def holds(lhs, rhs, tol: float | None = None):
    """The verdict ``lhs <= rhs + tol``, elementwise on arrays, ``tol`` resolved by
    :func:`check_tolerance`: every verdict the package reports comes from here."""
    return lhs <= rhs + check_tolerance(tol)


class BoundViolationError(RuntimeError):
    """A checked bound came out violated; ``witness`` carries the offending data."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class BoundValue:
    """One evaluated continuity bound.

    ``regime`` is "low_alpha" for orders in (0, 2] and "high_alpha" above 2.
    ``threshold`` is the largest distance at which the bound applies;
    ``applicable`` records whether the queried distance was within it.
    """

    rhs: float
    regime: str
    applicable: bool
    threshold: float


@dataclass(frozen=True)
class InequalityCheck:
    """Record of one bound verification. ``satisfied`` is None when the bound
    does not apply at the measured distance (the theorems assert nothing there)."""

    lhs: float
    epsilon: float
    bound: BoundValue
    satisfied: bool | None
    margin: float


@dataclass(frozen=True)
class AdversarialResult:
    """Pair of largest entropy-sum gap found by :func:`adversarial_search`."""

    x: np.ndarray
    y: np.ndarray
    achieved: float
    bound_rhs: float
    tightness: float
    iterations: int


@dataclass(frozen=True)
class CheckTable:
    """Bound verifications for every (alpha, k) cell of one pair or of a stack of pairs.

    The arrays have shape ``(..., n_alpha, m)``: entry ``[..., i, k-1]`` is
    the check at order ``alphas[i]`` and index k. ``satisfied`` holds the
    :func:`holds` verdict of lhs against rhs, a verdict only where ``applicable``.
    """

    alphas: tuple[Alpha, ...]
    lhs: np.ndarray
    epsilon: np.ndarray
    rhs: np.ndarray
    threshold: np.ndarray
    applicable: np.ndarray
    satisfied: np.ndarray
    margin: np.ndarray

    def cell(self, index: tuple[int, ...]) -> InequalityCheck:
        """The check at one index into the arrays, as a scalar record."""
        applicable = bool(self.applicable[index])
        bound = BoundValue(rhs=float(self.rhs[index]), regime=_regime(self.alphas[index[-2]]),
                           applicable=applicable, threshold=float(self.threshold[index]))
        return InequalityCheck(lhs=float(self.lhs[index]), epsilon=float(self.epsilon[index]),
                               bound=bound, satisfied=bool(self.satisfied[index]) if applicable else None,
                               margin=float(self.margin[index]))


def _regime(a: Alpha) -> str:
    return "low_alpha" if a.value <= 2.0 else "high_alpha"


def _check_distances(eps) -> None:
    if not np.all(np.isfinite(eps)) or np.any(eps < 0.0):
        raise ValueError("epsilon must be a finite nonnegative real")


def _checked(epsilon, ks) -> tuple[np.ndarray, np.ndarray]:
    """``epsilon`` and ``ks`` as float arrays, once each k passes the count rule up to
    2**64 - 1, the most an integer array holds, and each distance is finite and nonnegative."""
    entries = np.asarray(ks, dtype=object)  # a bool stays one, and an int keeps its value
    ks = np.array([_count(_count(k, "k"), "k", high=2 ** 64 - 1) for k in entries.flat],
                  dtype=float).reshape(entries.shape)
    eps = np.asarray(epsilon, dtype=float)
    _check_distances(eps)
    return eps, ks


def _fannes(eps: np.ndarray, ks: np.ndarray, a: Alpha, high: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fannes_bounds` of distances and k (floats) already checked; ``high`` takes
    the form for orders above 2 at any order."""
    x0 = entropy_term_argmax(a)
    high = high or a.value > 2.0  # the rhs adds binary_entropy(inside); both its terms come from one call
    threshold = np.minimum(x0, (ks + 1.0) / (ks + 2.0)) if high else np.full(ks.shape, x0)
    inside = np.asarray(np.minimum(eps, 1.0))  # an array at 0-d too, so ** below is numpy's loop
    term, *other = _term(np.stack([inside, 1.0 - inside]), a) if high else [_term(inside, a)]
    rhs = inside ** a.value * _qlog(np.asarray(ks + 1.0), a) + term
    if high:
        rhs = rhs + (term + other[0])
    rhs = np.where(eps > 1.0, np.nan, rhs)
    threshold = np.broadcast_to(threshold, rhs.shape)
    return rhs, threshold, eps <= threshold


def fannes_bounds(epsilon, ks, alpha: AlphaLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Continuity bounds for k-th partial sums, for arrays of distances and k.

    ``epsilon`` and ``ks`` broadcast together; returns ``(rhs, threshold,
    applicable)`` arrays of the broadcast shape. Orders in (0, 2] use
    ``eps**alpha * q_log(k+1) + entropy_term(eps)`` with threshold
    ``alpha**(1/(1-alpha))``; orders above 2 add the binary entropy of eps and
    tighten the threshold by ``(k+1)/(k+2)``. The rhs is evaluated even where
    epsilon exceeds the threshold (``applicable`` False); past eps = 1 the
    entropy terms leave their domain and the rhs is NaN.
    """
    return _fannes(*_checked(epsilon, ks), as_alpha(alpha))


def fannes_bound(epsilon: float, k: int, alpha: AlphaLike) -> BoundValue:
    """Continuity bound for the k-th partial sum at distance epsilon (see
    :func:`fannes_bounds`). ``regime`` is "low_alpha" for orders in (0, 2]
    and "high_alpha" above 2."""
    a = as_alpha(alpha)
    rhs, threshold, applicable = _fannes(*_checked(epsilon, k), a)
    return BoundValue(rhs=float(rhs), regime=_regime(a), applicable=bool(applicable),
                      threshold=float(threshold))


def entropy_sum_diff(x, y, alpha: AlphaLike) -> float:
    """Difference of summed entropy terms between two equal-length vectors in [0, 1].

    Antisymmetric under swapping the arguments.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError("expected two 1-d vectors of equal length")
    return float(np.sum(entropy_term(xv, alpha)) - np.sum(entropy_term(yv, alpha)))


def _orders(alphas) -> tuple[Alpha, ...]:
    return tuple(as_alpha(a) for a in ([alphas] if np.ndim(alphas) == 0 else alphas))


def pair_checks(values_a, values_b, distances, alphas, tol: float | None = None) -> CheckTable:
    """Partial-sum differences of paired distributions against the continuity
    bound, for every order in ``alphas`` and every k.

    ``values_a`` and ``values_b`` hold the paired distributions (probability
    vectors or spectra) along their last axis, shape ``(..., m)``;
    ``distances[..., k-1]`` is the pair's distance for the k-th bound. The
    leading axes of the distances and of the distributions broadcast, so
    several distances can be checked against the same pairs. Both sides'
    partial sums come from one :func:`classical.partial_sums` call.
    """
    alphas = _orders(alphas)
    sums = classical.partial_sums(np.stack([values_a, values_b]), alphas)
    eps = np.asarray(distances)[..., None, :]
    shape = np.broadcast_shapes(eps.shape, sums.shape[1:])
    lhs = np.broadcast_to(np.abs(sums[0] - sums[1]), shape)
    eps = np.broadcast_to(eps, shape)
    _check_distances(eps)
    ks = np.arange(1.0, lhs.shape[-1] + 1.0)
    per_order = [_fannes(eps[..., i, :], ks, a) for i, a in enumerate(alphas)]
    rhs, threshold, applicable = (np.stack(col, axis=-2) for col in zip(*per_order))
    return CheckTable(alphas=alphas, lhs=lhs, epsilon=eps, rhs=rhs, threshold=threshold,
                      applicable=applicable, satisfied=holds(lhs, rhs, tol), margin=rhs - lhs)


def classical_checks(p, q, alphas, tol: float | None = None) -> CheckTable:
    """:func:`pair_checks` of two distributions, or of two stacks of them of
    shape ``(..., m)``, with the distance measured by the k-term gauge of the
    coordinate differences. An array is checked row by row as a ``ProbVector`` is."""
    p, q = (x.values if isinstance(x, classical.ProbVector) else classical._onto_simplex(np.asarray(x, float))
            for x in (p, q))
    return pair_checks(p, q, classical.partial_distances(p, q), alphas, tol)


def quantum_checks(rho, sigma, alphas, tol: float | None = None) -> CheckTable:
    """:func:`pair_checks` of the spectra of two density operators, or of two
    equal-length :class:`~entropic_sums.quantum.DensityStack` stacks, with the
    distance measured by the Ky Fan k-norm of the operator difference."""
    return pair_checks(quantum.spectra(rho), quantum.spectra(sigma),
                       quantum.ky_fan_distances(rho, sigma), alphas, tol)


def _fidelity_distances(rho, sigma) -> np.ndarray:
    return np.maximum(0.0, 2.0 * (1.0 - quantum.partial_fidelities(rho, sigma)[..., 1:]))


def fidelity_checks(rho, sigma, alphas, tol: float | None = None) -> CheckTable:
    """Same checks as :func:`quantum_checks` but with the distance replaced by
    ``2 * (1 - partial_fidelity)``, which dominates the Ky Fan distance.
    Applicability is assessed against the substituted distance."""
    return pair_checks(quantum.spectra(rho), quantum.spectra(sigma),
                       _fidelity_distances(rho, sigma), alphas, tol)


def density_checks(rho, sigma, alphas, tol: float | None = None) -> CheckTable:
    """:func:`quantum_checks` and :func:`fidelity_checks` of the same pairs as
    one table with a new leading axis of length 2: index 0 holds the Ky Fan
    checks and index 1 the fidelity checks. The spectra and their partial
    sums are computed once for both."""
    distances = np.stack([quantum.ky_fan_distances(rho, sigma), _fidelity_distances(rho, sigma)])
    return pair_checks(quantum.spectra(rho), quantum.spectra(sigma), distances, alphas, tol)


def check_classical(p, q, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`classical_checks`."""
    p, q = classical._as_prob(p), classical._as_prob(q)
    k = _count(k, "k", high=p.dim)
    return classical_checks(p, q, alpha, tol).cell((0, k - 1))


def check_quantum(rho, sigma, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`quantum_checks`."""
    k = _count(k, "k", high=rho.dim)
    return quantum_checks(rho, sigma, alpha, tol).cell((0, k - 1))


def check_fidelity_variant(rho, sigma, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`fidelity_checks`."""
    k = _count(k, "k", high=rho.dim)
    return fidelity_checks(rho, sigma, alpha, tol).cell((0, k - 1))


def stability_threshold(k: int, alpha: AlphaLike) -> float:
    """Upper end of the stability interval, min(term argmax, (k+1)/(k+2)): the bound's threshold above order 2."""
    return float(_fannes(*_checked(0.0, k), as_alpha(alpha), high=True)[1])


def stability_delta(xi: float, k: int, alpha: AlphaLike) -> float:
    """Normalized stability bound for the k-th partial sum at distance xi.

    Divides the continuity bound at xi in its form for orders above 2
    (``entropy_gap_bound(xi, k+1) + entropy_term(xi)``) by a lower bound on
    the maximal partial sum, the lower end of
    :func:`~entropic_sums.classical.max_partial_bounds`: ``q_log(k)`` for
    k >= 2, and the exact one-term maximum for k = 1 (where ``q_log(1)`` is 0
    and would not normalize).
    Vanishes as xi -> 0 and increases strictly on the stability interval for
    orders above 1.
    """
    a = as_alpha(alpha)
    eps0 = stability_threshold(k, a)
    xi = float(xi)
    if not 0.0 < xi <= eps0:
        raise ValueError(f"xi must lie in (0, {eps0}], got {xi}")
    return float(_fannes(*_checked(xi, k), a, high=True)[0]) / classical.max_partial_bounds(k, a)[0]


def _pair_residual(x: np.ndarray, y: np.ndarray, epsilon: float) -> float:
    return max(
        float(-min(x.min(), y.min(), 0.0)),
        float(x.sum() - 1.0),
        float(y.sum() - 1.0),
        float(np.abs(x - y).sum() - epsilon),
    )


#: Largest k that :func:`adversarial_search` and the ``adversarial`` command take,
#: checked before anything is allocated: the search's ``(3, k, _GRID)`` stack
#: then stays under 2**24 floats, and every documented line, test and benchmark
#: op uses k <= 256.
MAX_ADVERSARIAL_K = 2 ** 15
#: Points per row of the lowered-mass grid in :func:`adversarial_search`, and
#: the rounds of that grid (the first over [0, epsilon], then zooms).
_GRID = 129
_ROUNDS = 5
#: Offsets of a zoomed row's grid points from its centre, in steps of the last grid.
_ZOOM = np.linspace(-1.0, 1.0, _GRID)


def adversarial_search(k: int, alpha: AlphaLike, epsilon: float,
                       tol: float | None = None) -> AdversarialResult:
    """Largest entropy-sum gap within distance epsilon, and a pair attaining it.

    Maximizes ``|sum f(x) - sum f(y)|``, f = :func:`entropy_term`, over
    nonnegative k-vectors with ``sum x <= 1``, ``sum y <= 1`` and
    ``||x - y||_1 <= epsilon``: the gap that the source paper's Fannes-type
    bound for the k-th partial sum caps, so ``tightness`` says how sharp the
    bound is. The optimal pair has the one-point-versus-spread shape of the
    pair attaining Audenaert's sharp Fannes bound (J. Phys. A 40, 8127, 2007).

    Reduction. f is strictly concave, f(0) = 0, and f increases on
    [0, epsilon], as the bound's threshold never exceeds argmax f. Each step
    turns a maximizer into one of the stated shape, or holds for all.
    1. The domain is symmetric in x and y: maximize sum f(y) - sum f(x).
    2. A coordinate with x_i = y_i adds nothing: set both to 0.
    3. On a raised coordinate, f(x_i + d) - f(x_i) <= f(d), so x_i = 0; and
       as f(s)/s falls, the raised mass r is best spread evenly over all
       k - j coordinates that are not lowered.
    4. A lowered coordinate with y_i = 0 adds -f(x_i) <= 0: set x_i = 0. On
       the other j, with the rest fixed, the objective is smooth and the
       constraints linear, so KKT holds and f'(x_i), f'(y_i) are shared; f'
       is strictly decreasing, so x_i = u and y_i = u - t/j, t the lowered mass.
    5. f(u - e) - f(u) does not fall as u grows, so j u = min(1, 1 + t - r).
    6. For k >= 2 the l1 budget binds. Were it slack, x and y could move
       alone: y would maximize the strictly concave sum f on
       {y >= 0, sum y <= 1}, so y = (c, ..., c) with c = min(argmax f, 1/k),
       and x would locally minimize it there, so x is a vertex, 0 or e_i.
       But ||y||_1 = kc >= argmax f >= epsilon and ||y - e_i||_1 =
       1 + (k - 2)c >= 1 > epsilon. So r = epsilon - t when j < k. (For
       k = 1, x = 1 and y = argmax f may leave budget unused.)

    What is left is the j = 0 value ``k f(epsilon/k)`` and, for j = 1..k,
    the maximum over t in [0, epsilon] of
    ``g_j(t) = j [f(u - t/j) - f(u)] + (k - j) f((epsilon - t)/(k - j))``
    with ``j u = min(1, 1 + 2t - epsilon)``; for j = k, ``j u = 1`` and
    nothing is raised. All rows share one ``(k, _GRID)`` grid of t; a round
    fills one ``(3, k, _GRID)`` stack with every point's lowered y, lowered x
    and raised y values and takes f of it in one call. Each row zooms to one
    step either side of its best point, ``_ROUNDS`` rounds in all. g_j is
    smooth but at t = epsilon/2, the middle of the first grid, and zoomed
    grids keep their centre, so a maximum on that kink is hit exactly. A row peak narrower than the first step could be missed, but
    ``achieved``, the :func:`entropy_sum_diff` gap of a feasible pair, never
    exceeds the supremum.

    ``iterations`` counts the pairs evaluated. Raises ValueError when k is
    past :data:`MAX_ADVERSARIAL_K` or epsilon past the bound's threshold, and
    :class:`BoundViolationError` (witness attached) if the gap exceeds the
    bound by more than the absolute tolerance.
    """
    k = _count(k, "k", high=MAX_ADVERSARIAL_K)
    a = as_alpha(alpha)
    bound = fannes_bound(epsilon, k, a)
    if not bound.applicable:
        raise ValueError(
            f"epsilon {epsilon} exceeds the applicable threshold {bound.threshold} for k={k}, alpha={a.value}")
    eps = float(epsilon)
    result = _adversarial(k, a, eps, bound.rhs)
    if not holds(result.achieved, bound.rhs, tol):
        raise BoundViolationError(
            f"pair achieved {result.achieved} above the bound {bound.rhs} "
            f"(k={k}, alpha={a.value}, eps={eps}); x={result.x.tolist()}, y={result.y.tolist()}",
            witness=result)
    return result


def _adversarial(k: int, a: Alpha, eps: float, rhs: float) -> AdversarialResult:
    """:func:`adversarial_search` with no verdict, once ``rhs``, the bound at ``eps``, is known to apply."""
    j = np.arange(1.0, k + 1.0)[:, None]  # row j - 1 of every (k, _GRID) array has j lowered
    rows, inner, rest, spread = np.arange(k), j < k, k - j, np.maximum(k - j, 1.0)
    t = np.tile(np.linspace(0.0, eps, _GRID), (k, 1))
    half = eps / (_GRID - 1)
    stack = np.empty((3, k, _GRID))
    low, u, up = stack  # lowered y, lowered x and raised y values, refilled in place each round
    for zoom in range(_ROUNDS):
        if zoom:
            t = t[rows, gap.argmax(axis=1)][:, None] + half * _ZOOM
            np.minimum(np.maximum(t, 0.0, out=t), eps, out=t)
            half *= 2.0 / (_GRID - 1)
        r = np.where(inner, eps - t, 0.0)
        top = np.minimum(1.0, 1.0 + t - r)
        np.divide(top - t, j, out=low)
        np.divide(top, j, out=u)
        np.divide(r, spread, out=up)
        f_low, f_u, f_up = _term(stack, a)
        gap = j * (f_low - f_u) + rest * f_up
    row, i = divmod(int(np.argmax(gap)), _GRID)
    x, y = np.zeros(k), np.zeros(k)
    x[:row + 1], y[:row + 1] = u[row, i], low[row, i]
    # raise by the budget the rounded pair leaves, not by eps - t, so the pair stays within eps
    y[row + 1:] = max(0.0, eps - np.abs(x - y).sum()) / max(k - row - 1, 1)
    if k * _term(np.asarray(eps / k), a) >= gap[row, i]:
        x, y = np.zeros(k), np.full(k, eps / k)
    f_y, f_x = _term(np.stack([y, x]), a).sum(axis=1)
    achieved = float(f_y - f_x)
    if _pair_residual(x, y, eps) > FEASIBILITY_TOL:
        raise RuntimeError("the two-group pair is infeasible")
    tightness = achieved / rhs if rhs > 0.0 else 0.0
    return AdversarialResult(x=x, y=y, achieved=achieved, bound_rhs=rhs,
                             tightness=tightness, iterations=_ROUNDS * k * _GRID + 1)
