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


def _project(pairs: np.ndarray, epsilon: float) -> np.ndarray:
    """Cheap feasibility restoration for a stack of pairs of shape ``(..., 2, k)``.

    Clamp negatives, rescale each vector into the unit l1 ball, then shrink y
    toward x until the difference fits. The shrink is a convex combination, so
    it cannot break the first two constraints. A vector that needs no rescale
    or shrink comes back bitwise unchanged.
    """
    pairs = np.clip(pairs, 0.0, None)
    pairs /= np.maximum(pairs.sum(axis=-1, keepdims=True), 1.0)
    x, y = pairs[..., 0, :], pairs[..., 1, :]
    gap = np.abs(x - y).sum(axis=-1, keepdims=True)
    shrink = gap > epsilon
    pairs[..., 1, :] = np.where(shrink, x + (epsilon / np.where(shrink, gap, 1.0)) * (y - x), y)
    return pairs


def _gaps(pairs: np.ndarray, a: Alpha) -> np.ndarray:
    """``|sum entropy_term(x) - sum entropy_term(y)|`` for every pair of a stack."""
    sums = entropy_term(pairs, a).sum(axis=-1)
    return np.abs(sums[..., 0] - sums[..., 1])


def _pair_residual(x: np.ndarray, y: np.ndarray, epsilon: float) -> float:
    return max(
        float(-min(x.min(), y.min(), 0.0)),
        float(x.sum() - 1.0),
        float(y.sum() - 1.0),
        float(np.abs(x - y).sum() - epsilon),
    )


#: Restarts that :func:`adversarial_search` advances together, whatever the
#: restart count.
_RESTART_BLOCK = 64
#: Floats in one batch of proposed pairs; a round whose moves would need more
#: is scored in column chunks, so memory does not grow with k squared.
_BATCH_FLOATS = 2 ** 17


def _search_block(gens: list, k: int, a: Alpha, eps: float,
                  max_steps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate ascent for one block of restarts in lockstep, one generator each.

    Returns the final pairs ``(R, 2, k)``, their gaps ``(R,)`` and the moves
    made by all restarts together.
    """
    state = _project(np.stack([g.random((2, k)) for g in gens]), eps)
    value = _gaps(state, a)
    step = np.full(len(gens), 0.5)
    live = np.arange(len(gens))
    moves = done = 0
    while live.size and done < max_steps:
        n = min(8 * k, max_steps - done)
        u = np.stack([gens[r].random((n, 3)) for r in live])
        side = (u[..., 0] >= 0.5).astype(np.intp)
        coord = np.minimum((u[..., 1] * k).astype(np.intp), k - 1)
        delta = step[live, None] * (2.0 * u[..., 2] - 1.0)
        # Speculative first improvement: score every move still ahead of each
        # restart's cursor against its current state, accept the first that
        # beats it, and score the rest again from the new state. Rejected
        # moves leave the state alone, so this equals taking them one by one.
        # A restart leaves the round once its cursor is past the last move.
        cursor = np.zeros(live.size, dtype=np.intp)
        improved = np.zeros(live.size, dtype=bool)
        rows = np.arange(live.size)
        while rows.size:
            lo = int(cursor[rows].min())
            hi = min(n, lo + max(1, _BATCH_FLOATS // (rows.size * 2 * k)))
            cols = np.arange(lo, hi)
            props = np.repeat(state[live[rows], None], hi - lo, axis=1)
            props[np.arange(rows.size)[:, None], cols - lo, side[rows, lo:hi],
                  coord[rows, lo:hi]] += delta[rows, lo:hi]
            props = _project(props, eps)
            scores = _gaps(props, a)
            better = (scores > value[live[rows], None]) & (cols >= cursor[rows, None])
            hit = better.any(axis=1)
            first = better.argmax(axis=1)
            (i,) = np.nonzero(hit)
            state[live[rows[i]]] = props[i, first[i]]
            value[live[rows[i]]] = scores[i, first[i]]
            improved[rows[i]] = True
            cursor[rows] = np.where(hit, lo + first + 1, hi)
            rows = rows[cursor[rows] < n]
        done += n
        moves += n * live.size
        step[live[~improved]] *= 0.5
        live = live[step[live] > 1e-7]
    return state, value, moves


def adversarial_search(k: int, alpha: AlphaLike, epsilon: float, restarts: int = 100,
                       seed: int = 0, max_steps: int = 600,
                       tol: float | None = None) -> AdversarialResult:
    """Probe the tightness of the continuity bound by maximizing the entropy-sum gap.

    Random restarts followed by projected coordinate ascent over pairs of
    nonnegative k-vectors with unit l1 caps and difference capped by epsilon.
    Restart r draws from its own substream ``[seed, r]``: a start pair, then
    for each round of ``n = min(8k, max_steps - moves so far)`` moves an
    ``(n, 3)`` block of uniforms that picks x or y, the coordinate and the
    signed step. A move is kept when it raises the gap; a round without one
    halves the step, and a restart stops once the step is at most 1e-7 or
    after ``max_steps`` moves. Results are reproducible and restarts are
    order-independent.

    Restarts run in lockstep, in blocks of ``_RESTART_BLOCK``, and each round
    is scored in batches: every remaining move of the round (up to
    ``_BATCH_FLOATS`` per batch) is applied to the current state and scored
    in one call, the first improving move is taken, and the moves after it
    are scored again from the new state. This gives the same pairs as taking
    the moves one at a time.

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
    best_pair: np.ndarray | None = None
    total_steps = 0
    for first in range(0, restarts, _RESTART_BLOCK):
        gens = [np.random.default_rng([int(seed), r])
                for r in range(first, min(first + _RESTART_BLOCK, restarts))]
        pairs, values, moves = _search_block(gens, k, a, eps, max_steps)
        total_steps += moves
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_pair = float(values[i]), pairs[i].copy()
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
