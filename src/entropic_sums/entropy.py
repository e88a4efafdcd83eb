"""Scalar building blocks for entropies of order alpha.

Everything else in the package reduces to the two deformed functions defined
here: the q-logarithm ``(x**(1-alpha) - 1)/(1 - alpha)`` and the per-probability
entropy term ``(x**alpha - x)/(1 - alpha)``. Both are ratios of vanishing
quantities as alpha approaches 1, so each is evaluated as
``expm1(c log x)/c`` (see :func:`_ratio`), one formula for every order that
keeps its relative accuracy next to the Shannon limit ``log x``, ``-x log x``.

Each public function checks its range and returns a float for a 0-d argument;
its private core, :func:`_qlog` or :func:`_term`, holds the formula unchecked.
Cores are called only on arguments in range by construction (``bounds._fannes``,
``bounds._adversarial``, ``classical.max_partial_bounds``, ``max_partial_sum``;
README, "Batched core", says why each is), and a single value goes to a core as
a 0-d array, never a numpy scalar: below order 1 ``np.float64 ** a`` calls
libm's ``pow``, an array numpy's vectorized loop, and the last bits can differ.

Every count (k, m, n, d, a number of states or outcomes, a dimension) passes
:func:`_count`: an int, a numpy integer or a whole real, in range; anything else,
a bool included, raises a ValueError whose message starts with the parameter's name.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

AlphaLike = Union["Alpha", float, int]


@dataclass(frozen=True)
class Alpha:
    """Entropic order parameter, restricted to the open half-line (0, inf).

    Construction rejects nonpositive values; order 1 is the Shannon case.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"entropic order must be a positive real, got {self.value!r}")
        object.__setattr__(self, "value", v)


def as_alpha(alpha: AlphaLike) -> Alpha:
    """Coerce a number to :class:`Alpha`, validating positivity."""
    return alpha if isinstance(alpha, Alpha) else Alpha(float(alpha))


def _count(value, name: str, low: int = 1, high: float = np.inf) -> int:
    """``value`` as an int, once it is an int, numpy integer or whole real (no bool) in [low, high]."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or not low <= value <= high:
        span = "a positive integer" if (low, high) == (1, np.inf) else f"an integer in [{low}, {high}]"
        raise ValueError(f"{name} must be {span}, got {value!r}")
    return int(value)


def _ratio(log, c: float):
    """``expm1(c log)/c``, and its limit ``log`` at c = 0: accurate however small c is."""
    return log if c == 0.0 else np.expm1(c * log) / c


def q_log(x, alpha: AlphaLike):
    """Deformed logarithm ``(x**(1-alpha) - 1)/(1 - alpha)`` of order alpha, x > 0.

    The natural logarithm at order 1; monotone increasing in x and 0 at x = 1.
    Evaluated as ``expm1(c log x)/c``, c = 1 - alpha, where x**c <= 1 and as
    ``x**c (1 - x**-c)/c`` where x**c > 1: expm1's error grows with a positive
    argument, so it never gets one. Accepts scalars or arrays.
    """
    a = as_alpha(alpha)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise ValueError("q_log requires strictly positive finite arguments")
    out = _qlog(arr, a)
    return float(out) if out.ndim == 0 else out


def _qlog(arr: np.ndarray, a: Alpha):
    """:func:`q_log` of a float array whose entries are positive and finite, unchecked."""
    log, c = np.log(arr), 1.0 - a.value
    flip = c * log > 0.0
    return np.where(flip, -arr ** c, 1.0) * _ratio(np.where(flip, -log, log), c) + 0.0


def entropy_term(x, alpha: AlphaLike):
    """Per-probability entropy contribution ``(x**alpha - x)/(1 - alpha)`` on [0, 1].

    Vanishes exactly at both endpoints (0**alpha is taken as 0 for every
    positive order, the continuous extension) and is concave on [0, 1]; at
    order 1 it is ``-x log x``. Evaluated as ``-w expm1(c log x)/c``, c =
    |alpha - 1|, with w = x above order 1 and w = x**alpha below it (the term
    is ``-x**alpha q_log(x)``), so expm1 never gets a positive argument.
    Accepts scalars or arrays.
    """
    a = as_alpha(alpha)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("entropy_term requires arguments in [0, 1]")
    out = _term(arr, a)
    return float(out) if out.ndim == 0 else out


def _term(arr: np.ndarray, a: Alpha):
    """:func:`entropy_term` of a float array whose entries lie in [0, 1], unchecked."""
    w = arr if a.value >= 1.0 else arr ** a.value
    log = np.log(np.where(arr > 0.0, arr, 1.0))
    return -w * _ratio(log, abs(a.value - 1.0)) + 0.0  # + 0.0 turns -0.0 into +0.0


def entropy_term_argmax(alpha: AlphaLike) -> float:
    """Location of the maximum of :func:`entropy_term` on [0, 1].

    Equals ``alpha**(1/(1-alpha)) = exp(log(alpha)/(1-alpha))``, which is 1/e
    at order 1 and increases monotonically with the order.
    """
    a = as_alpha(alpha).value
    return float(np.exp(-1.0 if a == 1.0 else np.log(a) / (1.0 - a)))


def binary_entropy(d, alpha: AlphaLike):
    """Two-point entropy ``entropy_term(d) + entropy_term(1 - d)``.

    Symmetric under d -> 1 - d and zero at the endpoints.
    """
    arr = np.asarray(d, dtype=float)
    out = entropy_term(arr, alpha) + entropy_term(1.0 - arr, alpha)
    return float(out) if np.ndim(out) == 0 else out


def entropy_gap_bound(delta, n: int, alpha: AlphaLike):
    """Bound curve ``delta**alpha * q_log(n) + binary_entropy(delta)``.

    Dominates ``entropy_term(delta)`` pointwise. For orders above 1 it is
    strictly increasing in delta on (0, n/(n+1)); evaluation itself is allowed
    for any valid order.
    """
    a = as_alpha(alpha)
    n = _count(n, "n")
    arr = np.asarray(delta, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("delta must lie in [0, 1]")
    out = arr ** a.value * q_log(float(n), a) + binary_entropy(arr, a)
    return float(out) if np.ndim(out) == 0 else out
