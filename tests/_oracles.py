"""Independent arbitrary-precision reference implementations (mpmath).

These deliberately re-derive every formula from scratch so the double-precision
package code is checked against a separate evaluation path. Keep them free of
any imports from the package under test.
"""

import mpmath as mp

mp.mp.dps = 40


def mp_qlog(x, a):
    x, a = mp.mpf(x), mp.mpf(a)
    if a == 1:
        return mp.log(x)
    return (x ** (1 - a) - 1) / (1 - a)


def mp_entropy_term(x, a):
    x, a = mp.mpf(x), mp.mpf(a)
    if x == 0:
        return mp.mpf(0)
    if a == 1:
        return -x * mp.log(x)
    return (x ** a - x) / (1 - a)


def mp_binary_entropy(d, a):
    return mp_entropy_term(d, a) + mp_entropy_term(1 - mp.mpf(d), a)


def mp_gap_bound(d, n, a):
    return mp.mpf(d) ** mp.mpf(a) * mp_qlog(n, a) + mp_binary_entropy(d, a)


def mp_fannes_rhs(eps, k, a):
    """Bound value in the regime selected by the order (low alpha <= 2)."""
    eps = mp.mpf(eps)
    rhs = eps ** mp.mpf(a) * mp_qlog(k + 1, a) + mp_entropy_term(eps, a)
    if mp.mpf(a) > 2:
        rhs += mp_binary_entropy(eps, a)
    return rhs


def mp_partial_sum(probs, k, a):
    terms = sorted((mp_entropy_term(p, a) for p in probs), reverse=True)
    return mp.fsum(terms[:k])


def mp_max_partial_sum(m, k, a):
    """Largest k-th partial sum over the m-point simplex: the entropy term is
    concave, so k counted points share the mass equally, each at the term's
    peak a**(1/(1-a)) (1/e at a = 1) unless 1/k comes first; with m = k all
    the mass is counted."""
    a = mp.mpf(a)
    if m == k:
        return mp_qlog(k, a)
    peak = mp.exp(-1) if a == 1 else a ** (1 / (1 - a))
    return k * mp_entropy_term(min(peak, mp.mpf(1) / k), a)


def mp_instability(eps):
    eps = mp.mpf(eps)
    d1 = (-(1 - eps) * mp.log(1 - eps) - eps * mp.log(2)) / 2
    d2 = ((1 + eps) * mp.log(1 + eps) + (1 - eps) * mp.log(1 - eps)) / 2
    return d1, d2, d1 / d2


def _golden_max(fn, lo, hi, steps=60):
    """Largest value golden-section search finds for fn on [lo, hi]."""
    ratio = (mp.sqrt(5) - 1) / 2
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = fn(d)
    return max(fc, fd)


def mp_adversarial_sup(k, a, eps):
    """Largest |sum f(x) - sum f(y)| over nonnegative k-vectors with unit l1
    caps and ||x - y||_1 <= eps, f the entropy term, from the two-group
    reduction: the value k f(eps/k) of x = 0 against the even spread, and for
    j = 1..k the best pair that takes mass t off j coordinates holding u each
    (j u = min(1, 1 + 2t - eps), or 1 when j = k) and spreads eps - t over the
    other k - j. Each j is maximized over t on [0, eps/2] and [eps/2, eps]
    separately, where it is smooth, by a 33-point grid and a golden-section
    search around the best grid point."""
    a, eps = mp.mpf(a), mp.mpf(eps)

    def gap(j, t):
        raised = eps - t if j < k else mp.mpf(0)
        total = min(mp.mpf(1), 1 + t - raised)
        value = j * (mp_entropy_term((total - t) / j, a) - mp_entropy_term(total / j, a))
        if j < k:
            value += (k - j) * mp_entropy_term(raised / (k - j), a)
        return value

    best = k * mp_entropy_term(eps / k, a)
    for j in range(1, k + 1):
        for lo, hi in ((mp.mpf(0), eps / 2), (eps / 2, eps)):
            grid = [lo + (hi - lo) * i / 32 for i in range(33)]
            values = [gap(j, t) for t in grid]
            i = max(range(33), key=values.__getitem__)
            refined = _golden_max(lambda t: gap(j, t), grid[max(i - 1, 0)], grid[min(i + 1, 32)])
            best = max(best, values[i], refined)
    return best
