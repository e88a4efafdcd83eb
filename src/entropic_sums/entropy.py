"""Scalar building blocks for entropies of order alpha.

Everything else in the package reduces to the two deformed functions defined
here: the q-logarithm ``(x**(1-alpha) - 1)/(1 - alpha)`` and the per-probability
entropy term ``(x**alpha - x)/(1 - alpha)``. Both degenerate into ratios of
vanishing quantities as alpha approaches 1, so evaluation switches to the
Shannon-limit closed forms (``log x`` and ``-x log x``) inside a narrow window
around 1 where the ratio forms lose precision to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

#: Half-width of the window around alpha = 1 inside which the Shannon-limit
#: closed forms replace the ratio formulas.
SHANNON_LIMIT_WINDOW = 1e-8

AlphaLike = Union["Alpha", float, int]


@dataclass(frozen=True)
class Alpha:
    """Entropic order parameter, restricted to the open half-line (0, inf).

    Construction rejects nonpositive values. Orders within
    ``SHANNON_LIMIT_WINDOW`` of 1 are flagged as the Shannon limit and
    evaluated with the limiting closed forms.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"entropic order must be a positive real, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_shannon_limit(self) -> bool:
        return abs(self.value - 1.0) < SHANNON_LIMIT_WINDOW


def as_alpha(alpha: AlphaLike) -> Alpha:
    """Coerce a number to :class:`Alpha`, validating positivity."""
    return alpha if isinstance(alpha, Alpha) else Alpha(float(alpha))


def q_log(x, alpha: AlphaLike):
    """Deformed logarithm of order alpha.

    Computes ``(x**(1-alpha) - 1)/(1 - alpha)`` for x > 0, and the natural
    logarithm at the Shannon limit. Monotone increasing in x and equal to 0
    at x = 1 for every order. Accepts scalars or arrays.
    """
    a = as_alpha(alpha)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("q_log requires strictly positive finite arguments")
    if a.is_shannon_limit:
        out = np.log(arr)
    else:
        out = (arr ** (1.0 - a.value) - 1.0) / (1.0 - a.value)
    out = out + 0.0  # turns the -0.0 at x = 1 into +0.0 and changes nothing else
    return float(out) if out.ndim == 0 else out


def entropy_term(x, alpha: AlphaLike):
    """Per-probability entropy contribution ``(x**alpha - x)/(1 - alpha)`` on [0, 1].

    Vanishes exactly at both endpoints (0**alpha is taken as 0 for every
    positive order, the continuous extension) and is concave on [0, 1]. At the
    Shannon limit this is ``-x log x``. Accepts scalars or arrays.
    """
    a = as_alpha(alpha)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("entropy_term requires arguments in [0, 1]")
    if a.is_shannon_limit:
        safe = np.where(arr > 0.0, arr, 1.0)
        out = -arr * np.log(safe)
    else:
        out = (arr ** a.value - arr) / (1.0 - a.value)
    out = out + 0.0  # turns the -0.0 at x = 1 into +0.0 and changes nothing else
    return float(out) if out.ndim == 0 else out


def entropy_term_argmax(alpha: AlphaLike) -> float:
    """Location of the maximum of :func:`entropy_term` on [0, 1].

    Equals ``alpha**(1/(1-alpha))``, which tends to 1/e at the Shannon limit
    and increases monotonically with the order.
    """
    a = as_alpha(alpha)
    if a.is_shannon_limit:
        return float(np.exp(-1.0))
    return float(a.value ** (1.0 / (1.0 - a.value)))


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
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    arr = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("delta must lie in [0, 1]")
    out = arr ** a.value * q_log(float(n), a) + binary_entropy(arr, a)
    return float(out) if np.ndim(out) == 0 else out
