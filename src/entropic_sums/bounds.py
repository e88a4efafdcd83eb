"""Continuity bounds for partial entropic sums, inequality checks, Lesche-style
stability, and an adversarial tightness search over the constrained domain."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import classical, quantum
from .entropy import (
    Alpha,
    AlphaLike,
    as_alpha,
    binary_entropy,
    entropy_gap_bound,
    entropy_term,
    entropy_term_argmax,
    q_log,
)

#: Tolerance for inequality verdicts.
DEFAULT_CHECK_TOL = 1e-9
#: Environment override for the verdict tolerance (test-only hook).
TOL_ENV_VAR = "ENTROPIC_SUMS_TOL"

#: Feasibility residual allowed on pairs returned by the adversarial search.
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
    """Best feasible pair found by :func:`adversarial_search`."""

    x: np.ndarray
    y: np.ndarray
    achieved: float
    bound_rhs: float
    tightness: float
    iterations: int
    seed: int


@dataclass(frozen=True)
class CheckTable:
    """Bound verifications for every (alpha, k) cell of one pair or of a stack of pairs.

    The arrays have shape ``(..., n_alpha, m)``: entry ``[..., i, k-1]`` is
    the check at order ``alphas[i]`` and index k. ``satisfied`` holds
    ``lhs <= rhs + tol`` and carries a verdict only where ``applicable``.
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


def _fannes(epsilon, ks, a: Alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ks = np.asarray(ks)
    if np.any(ks != np.floor(ks)) or np.any(ks < 1):
        raise ValueError("k must be a positive integer")
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(np.isfinite(eps)) or np.any(eps < 0.0):
        raise ValueError("epsilon must be a finite nonnegative real")
    kf = ks.astype(float)
    x0 = entropy_term_argmax(a)
    threshold = np.full(kf.shape, x0) if a.value <= 2.0 else np.minimum(x0, (kf + 1.0) / (kf + 2.0))
    inside = np.minimum(eps, 1.0)
    rhs = inside ** a.value * q_log(kf + 1.0, a) + entropy_term(inside, a)
    if a.value > 2.0:
        rhs = rhs + binary_entropy(inside, a)
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
    return _fannes(epsilon, ks, as_alpha(alpha))


def fannes_bound(epsilon: float, k: int, alpha: AlphaLike) -> BoundValue:
    """Continuity bound for the k-th partial sum at distance epsilon (see
    :func:`fannes_bounds`). ``regime`` is "low_alpha" for orders in (0, 2]
    and "high_alpha" above 2."""
    a = as_alpha(alpha)
    rhs, threshold, applicable = _fannes(epsilon, k, a)
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


def _check_table(sums_a, sums_b, eps, alphas: tuple[Alpha, ...], tol: float | None) -> CheckTable:
    tol = check_tolerance(tol)
    lhs = np.abs(sums_a - sums_b)
    eps = np.broadcast_to(eps[..., None, :], lhs.shape)
    ks = np.arange(1, lhs.shape[-1] + 1)
    per_order = [_fannes(eps[..., i, :], ks, a) for i, a in enumerate(alphas)]
    rhs, threshold, applicable = (np.stack(col, axis=-2) for col in zip(*per_order))
    return CheckTable(alphas=alphas, lhs=lhs, epsilon=eps, rhs=rhs, threshold=threshold,
                      applicable=applicable, satisfied=lhs <= rhs + tol, margin=rhs - lhs)


def _orders(alphas) -> tuple[Alpha, ...]:
    return tuple(as_alpha(a) for a in ([alphas] if np.ndim(alphas) == 0 else alphas))


def classical_checks(p, q, alphas, tol: float | None = None) -> CheckTable:
    """Partial-sum differences of two distributions against the continuity
    bound, for every order in ``alphas`` and every k, with the distance
    measured by the k-term gauge of the coordinate differences. ``p`` and
    ``q`` are :class:`ProbVector` objects or stacks of distributions of shape
    ``(..., m)``."""
    alphas = _orders(alphas)
    eps = classical.partial_distances(p, q)
    return _check_table(classical.partial_sums(p, alphas), classical.partial_sums(q, alphas),
                        eps, alphas, tol)


def _quantum_sums(rho, sigma, alphas):
    return (classical.partial_sums(quantum.spectra(rho), alphas),
            classical.partial_sums(quantum.spectra(sigma), alphas))


def quantum_checks(rho, sigma, alphas, tol: float | None = None) -> CheckTable:
    """Quantum partial-sum differences against the continuity bound, for every
    order and every k, with the distance measured by the Ky Fan k-norm of the
    operator difference. ``rho`` and ``sigma`` are density operators or
    equal-length sequences of them."""
    alphas = _orders(alphas)
    eps = quantum.ky_fan_distances(rho, sigma)
    return _check_table(*_quantum_sums(rho, sigma, alphas), eps, alphas, tol)


def fidelity_checks(rho, sigma, alphas, tol: float | None = None) -> CheckTable:
    """Same checks as :func:`quantum_checks` but with the distance replaced by
    ``2 * (1 - partial_fidelity)``, which dominates the Ky Fan distance.
    Applicability is assessed against the substituted distance."""
    alphas = _orders(alphas)
    eps = np.maximum(0.0, 2.0 * (1.0 - quantum.partial_fidelities(rho, sigma)[..., 1:]))
    return _check_table(*_quantum_sums(rho, sigma, alphas), eps, alphas, tol)


def check_classical(p, q, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`classical_checks`."""
    p, q = classical._as_prob(p), classical._as_prob(q)
    k = classical._check_k(k, p.dim)
    return classical_checks(p, q, alpha, tol).cell((0, k - 1))


def check_quantum(rho, sigma, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`quantum_checks`."""
    k = classical._check_k(k, rho.dim)
    return quantum_checks(rho, sigma, alpha, tol).cell((0, k - 1))


def check_fidelity_variant(rho, sigma, k: int, alpha: AlphaLike, tol: float | None = None) -> InequalityCheck:
    """One cell of :func:`fidelity_checks`."""
    k = classical._check_k(k, rho.dim)
    return fidelity_checks(rho, sigma, alpha, tol).cell((0, k - 1))


def stability_threshold(k: int, alpha: AlphaLike) -> float:
    """Upper end of the stability interval: min of the term argmax and (k+1)/(k+2)."""
    a = as_alpha(alpha)
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    return min(entropy_term_argmax(a), (k + 1) / (k + 2))


def stability_delta(xi: float, k: int, alpha: AlphaLike) -> float:
    """Normalized stability bound for the k-th partial sum at distance xi.

    Divides ``entropy_gap_bound(xi, k+1) + entropy_term(xi)`` by a lower bound
    on the maximal partial sum: ``q_log(k)`` for k >= 2, and the exact one-term
    maximum for k = 1 (where ``q_log(1)`` is 0 and would not normalize).
    Vanishes as xi -> 0 and increases strictly on the stability interval for
    orders above 1.
    """
    a = as_alpha(alpha)
    eps0 = stability_threshold(k, a)
    xi = float(xi)
    if not 0.0 < xi <= eps0:
        raise ValueError(f"xi must lie in (0, {eps0}], got {xi}")
    numerator = entropy_gap_bound(xi, k + 1, a) + entropy_term(xi, a)
    if k == 1:
        normalizer = entropy_term(entropy_term_argmax(a), a)
    else:
        normalizer = q_log(float(k), a)
    return numerator / normalizer


def _project_pair(x: np.ndarray, y: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Cheap feasibility restoration for the constrained search domain.

    Clamp negatives, rescale each vector into the unit l1 ball, then shrink y
    toward x until the difference fits. The shrink is a convex combination, so
    it cannot break the first two constraints.
    """
    x = np.clip(x, 0.0, None)
    y = np.clip(y, 0.0, None)
    sx = x.sum()
    if sx > 1.0:
        x = x / sx
    sy = y.sum()
    if sy > 1.0:
        y = y / sy
    gap = float(np.abs(x - y).sum())
    if gap > epsilon:
        y = x + (epsilon / gap) * (y - x)
    return x, y


def _pair_residual(x: np.ndarray, y: np.ndarray, epsilon: float) -> float:
    return max(
        float(-min(x.min(), y.min(), 0.0)),
        float(x.sum() - 1.0),
        float(y.sum() - 1.0),
        float(np.abs(x - y).sum() - epsilon),
    )


def adversarial_search(k: int, alpha: AlphaLike, epsilon: float, restarts: int = 100,
                       seed: int = 0, max_steps: int = 600,
                       tol: float | None = None) -> AdversarialResult:
    """Probe the tightness of the continuity bound by maximizing the entropy-sum gap.

    Random restarts followed by projected coordinate ascent over pairs of
    nonnegative k-vectors with unit l1 caps and difference capped by epsilon.
    Each restart runs on an independent substream of the seed, so results are
    reproducible and restarts are order-independent.

    Raises ValueError when epsilon is outside the bound's applicable range and
    :class:`BoundViolationError` if the best pair beats the bound beyond
    tolerance (the witness rides on the exception).
    """
    a = as_alpha(alpha)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    bound = fannes_bound(epsilon, k, a)
    if not bound.applicable:
        raise ValueError(
            f"epsilon {epsilon} exceeds the applicable threshold {bound.threshold} for k={k}, alpha={a.value}")
    eps = float(epsilon)
    best_value = -1.0
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    total_steps = 0
    for restart in range(restarts):
        rng = np.random.default_rng([int(seed), restart])
        x, y = _project_pair(rng.random(k), rng.random(k), eps)
        value = abs(entropy_sum_diff(x, y, a))
        step = 0.5
        steps = 0
        while step > 1e-7 and steps < max_steps:
            improved = False
            for _ in range(8 * k):
                steps += 1
                cx, cy = x.copy(), y.copy()
                target = cx if rng.random() < 0.5 else cy
                target[rng.integers(k)] += step * (2.0 * rng.random() - 1.0)
                cx, cy = _project_pair(cx, cy, eps)
                candidate = abs(entropy_sum_diff(cx, cy, a))
                if candidate > value:
                    x, y, value = cx, cy, candidate
                    improved = True
                if steps >= max_steps:
                    break
            if not improved:
                step *= 0.5
        total_steps += steps
        if value > best_value:
            best_value = value
            best_pair = (x, y)
    x, y = best_pair
    if _pair_residual(x, y, eps) > FEASIBILITY_TOL:
        raise RuntimeError("projection failed to restore feasibility")
    tightness = best_value / bound.rhs if bound.rhs > 0.0 else 0.0
    result = AdversarialResult(x=x, y=y, achieved=best_value, bound_rhs=bound.rhs,
                               tightness=tightness, iterations=total_steps, seed=int(seed))
    if tightness > 1.0 + check_tolerance(tol):
        raise BoundViolationError(
            f"search achieved {best_value} above the bound {bound.rhs} "
            f"(k={k}, alpha={a.value}, eps={eps}); x={x.tolist()}, y={y.tolist()}",
            witness=result)
    return result
