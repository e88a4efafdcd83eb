"""Arbitrary-precision reference values for the benchmark's output checks.

Every formula is re-derived here with mpmath so that rows printed by the
package are compared against a separate evaluation path. This module imports
nothing from ``entropic_sums`` or from the repository's ``tests/``.

All functions take plain floats and return plain floats (the reference value
rounded once, at the end, to double precision).
"""

from __future__ import annotations

import mpmath as mp

#: Working precision. Orders as close to 1 as 1 + 1e-7 cancel about seven
#: digits in the ratio forms, which leaves more than thirty.
DPS = 40


def _term(x, a):
    """Entropy term (x**a - x)/(1 - a) on [0, 1]; -x log x at a = 1."""
    if x == 0:
        return mp.mpf(0)
    if a == 1:
        return -x * mp.log(x)
    return (x ** a - x) / (1 - a)


def _qlog(x, a):
    """Deformed logarithm (x**(1-a) - 1)/(1 - a); log x at a = 1."""
    if a == 1:
        return mp.log(x)
    return (x ** (1 - a) - 1) / (1 - a)


def _argmax(a):
    """Location a**(1/(1-a)) of the entropy term's maximum; 1/e at a = 1."""
    if a == 1:
        return mp.exp(-1)
    return a ** (1 / (1 - a))


def entropy_term(x: float, alpha: float) -> float:
    with mp.workdps(DPS):
        return float(_term(mp.mpf(x), mp.mpf(alpha)))


def q_log(x: float, alpha: float) -> float:
    with mp.workdps(DPS):
        return float(_qlog(mp.mpf(x), mp.mpf(alpha)))


def partial_sums(values, alpha: float) -> list[float]:
    """Every k-th partial sum (k = 1..m) of a probability vector: the sum of
    its k largest entropy terms."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        terms = sorted((_term(mp.mpf(v), a) for v in values), reverse=True)
        out, acc = [], mp.mpf(0)
        for t in terms:
            acc += t
            out.append(float(acc))
        return out


def fannes_threshold(k: int, alpha: float) -> float:
    """Largest distance at which the continuity bound applies: the term's
    argmax for orders in (0, 2], tightened by (k+1)/(k+2) above 2."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        x0 = _argmax(a)
        if a > 2:
            x0 = min(x0, mp.mpf(k + 1) / (k + 2))
        return float(x0)


def fannes_rhs(eps: float, k: int, alpha: float) -> float:
    """Continuity bound eps**a q_log(k+1) + f(eps), plus the binary entropy
    of eps for orders above 2."""
    with mp.workdps(DPS):
        e, a = mp.mpf(eps), mp.mpf(alpha)
        rhs = e ** a * _qlog(mp.mpf(k + 1), a) + _term(e, a)
        if a > 2:
            rhs += _term(e, a) + _term(1 - e, a)
        return float(rhs)


def max_bracket(k: int, alpha: float) -> tuple[float, float]:
    """Bracket for the maximal k-th partial sum over any simplex: both ends are
    the one-term maximum f(x*) at k = 1, else (q_log(k), q_log(k+1))."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        if k == 1:
            exact = float(_term(_argmax(a), a))
            return exact, exact
        return float(_qlog(mp.mpf(k), a)), float(_qlog(mp.mpf(k + 1), a))


def max_partial_sum(m: int, k: int, alpha: float) -> float:
    """Closed-form maximum of the k-th partial sum over the m-point simplex.

    The entropy term is strictly concave, so the k counted terms share the
    mass equally: k f(min(x*, 1/k)) when m > k (mass beyond k x* is parked on
    the uncounted points), and q_log(k) when m = k (all mass must be counted).
    """
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        if m == k:
            return float(_qlog(mp.mpf(k), a))
        x = min(_argmax(a), mp.mpf(1) / k)
        return float(k * _term(x, a))
