"""Probability vectors, top-k gauge sums, and classical partial entropic sums."""

from __future__ import annotations

import numpy as np

from .entropy import AlphaLike, _count, _qlog, _term, as_alpha, entropy_term, entropy_term_argmax

#: Construction tolerance for simplex membership. Entries no lower than
#: -SIMPLEX_TOL are clamped to zero and the vector is renormalized, so
#: file-sourced distributions with rounding noise remain constructible.
SIMPLEX_TOL = 1e-9


def _onto_simplex(arr: np.ndarray) -> np.ndarray:
    """Validate a float array as a stack of distributions along its last axis.

    Rejects non-finite entries, entries below ``-SIMPLEX_TOL`` and rows whose
    total is more than ``SIMPLEX_TOL`` from 1; clamps the rest to be
    nonnegative, rescales each row's total to 1 and returns the result
    read-only.
    """
    if not np.isfinite(arr).all():
        raise ValueError("probabilities must be finite")
    if (arr < -SIMPLEX_TOL).any():
        raise ValueError("negative probability beyond tolerance")
    arr = np.maximum(arr, 0.0)
    total = arr.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0)
    if (off > SIMPLEX_TOL).any():
        raise ValueError(f"probabilities sum to {total[off > SIMPLEX_TOL][0]}, not 1")
    # dividing a row whose total is already 1 to machine precision would only
    # inject rounding noise and break exact permutation symmetry
    arr = np.where(off > 1e-14, arr / total, np.minimum(arr, 1.0))
    arr.flags.writeable = False
    return arr


class ProbVector:
    """Finite probability distribution on m points.

    Entries are clamped to be nonnegative and the vector is renormalized;
    inputs outside ``SIMPLEX_TOL`` of the simplex are rejected.
    """

    def __init__(self, values):
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a probability vector must be a nonempty 1-d sequence")
        self._values = _onto_simplex(arr)

    @classmethod
    def _validated(cls, values: np.ndarray) -> ProbVector:
        """Wrap a row that :func:`_onto_simplex` has already returned."""
        p = cls.__new__(cls)
        p._values = values
        return p

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"ProbVector({self._values.tolist()!r})"


class JointDistribution:
    """Joint probability grid with the same simplex conditions on the flat grid."""

    def __init__(self, values):
        arr = np.array(values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("a joint distribution must be a nonempty 2-d grid")
        self._values = _onto_simplex(arr.ravel()).reshape(arr.shape)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def rows(self) -> int:
        return self._values.shape[0]

    @property
    def cols(self) -> int:
        return self._values.shape[1]

    def flattened(self) -> ProbVector:
        """The grid read as a single distribution on rows * cols points."""
        return ProbVector._validated(self._values.ravel())


def _as_prob(p) -> ProbVector:
    return p if isinstance(p, ProbVector) else ProbVector(p)


def _values(p) -> np.ndarray:
    return p.values if isinstance(p, ProbVector) else np.asarray(p, dtype=float)


def _top_sums(x) -> np.ndarray:
    """Running sums of the entries along the last axis, largest entry first.

    Entry k-1 is the sum of the k largest entries, so one sort gives every k.
    """
    return np.cumsum(np.flip(np.sort(x, axis=-1), axis=-1), axis=-1)


def sum_largest_abs(x, k: int) -> float:
    """Sum of the k largest absolute values of a vector (the Ky Fan vector gauge).

    With k equal to the length this is the l1 norm; k = 1 gives the max norm.
    """
    arr = np.asarray(x, dtype=float).ravel()
    k = _count(k, "k", high=arr.size)
    return float(_top_sums(np.abs(arr))[k - 1])


def partial_sums(values, alphas) -> np.ndarray:
    """Every partial entropic sum of every order, for stacks of distributions.

    ``values`` holds probabilities along its last axis (a :class:`ProbVector`
    or an array of shape ``(..., m)`` with entries in [0, 1]); ``alphas`` is an
    order or a sequence of orders. Returns shape ``(..., n_alpha, m)``, where
    entry ``[..., i, k-1]`` is the sum of the k largest entropy terms of order
    ``alphas[i]``. The terms are sorted once per order and summed largest
    first.
    """
    vals = _values(values)
    alphas = [alphas] if np.ndim(alphas) == 0 else list(alphas)
    terms = np.stack([entropy_term(vals, a) for a in alphas], axis=-2)
    return _top_sums(terms)


def partial_sum(p, k: int, alpha: AlphaLike) -> float:
    """Sum of the k largest per-entry entropy terms of a probability vector.

    At k = m this is the full entropy of order alpha. The k largest entropy
    terms are selected, not the terms of the k largest probabilities: the term
    function peaks strictly inside (0, 1), so the two orderings differ.
    """
    p = _as_prob(p)
    k = _count(k, "k", high=p.dim)
    return float(partial_sums(p, alpha)[0, k - 1])


def kolmogorov_distance(p, q) -> float:
    """Half the l1 distance of two equal-length probability vectors: half the last :func:`partial_distances` entry."""
    return 0.5 * float(partial_distances(_as_prob(p), _as_prob(q))[-1])


def partial_distances(p, q) -> np.ndarray:
    """Every partial distance of two distributions, or of two stacks of them.

    Entry k-1 along the last axis is the sum of the k largest absolute
    coordinate differences. ``p`` and ``q`` are :class:`ProbVector` objects or
    arrays of shape ``(..., m)`` with the same m.
    """
    pv, qv = _values(p), _values(q)
    if pv.shape[-1:] != qv.shape[-1:]:
        raise ValueError(f"dimension mismatch: {pv.shape[-1]} vs {qv.shape[-1]}")
    return _top_sums(np.abs(pv - qv))


def partial_distance(p, q, k: int) -> float:
    """Sum of the k largest absolute coordinate differences of two distributions.

    Nondecreasing in k; at k = m it equals twice the Kolmogorov distance.
    """
    p, q = _as_prob(p), _as_prob(q)
    k = _count(k, "k", high=p.dim)
    return float(partial_distances(p, q)[k - 1])


def marginal(r: JointDistribution, which: str) -> ProbVector:
    """Marginal distribution of the row index ("rows") or the column index ("columns")."""
    if which == "rows":
        return ProbVector(r.values.sum(axis=1))
    if which == "columns":
        return ProbVector(r.values.sum(axis=0))
    raise ValueError(f"axis selector must be 'rows' or 'columns', got {which!r}")


def max_partial_bounds(k: int, alpha: AlphaLike) -> tuple[float, float, float]:
    """Bracket for the maximum k-th partial sum over any simplex.

    Returns ``(lower, upper, relative_error_cap)``. For k = 1 both bracket
    ends carry the exact one-term maximum and the cap is 0; for k >= 2 the
    bracket is ``(q_log(k), q_log(k+1))`` with relative error capped by
    ``1/(k**alpha * q_log(k+1))``.
    """
    a = as_alpha(alpha)
    k = _count(k, "k")
    if k == 1:
        exact = float(_term(np.asarray(entropy_term_argmax(a)), a))
        return exact, exact, 0.0
    lower, upper = _qlog(np.array([k, k + 1.0]), a).tolist()
    try:
        return lower, upper, 1.0 / (k ** a.value * upper)
    except OverflowError:  # k**alpha is past the float range, where the cap's exact limit is 0
        return lower, upper, 0.0


def max_partial_sum(m: int, k: int, alpha: AlphaLike) -> float:
    """Maximum of the k-th partial sum over the m-point simplex, in closed form.

    The entropy term is strictly concave with its peak at x* (see
    :func:`entropy_term_argmax`), so the k counted terms share their mass
    equally. With m = k all mass is counted and the maximum is ``q_log(k)``;
    with m > k each counted point takes min(x*, 1/k), the rest of the mass goes
    to the uncounted points, and the maximum is ``k * entropy_term(min(x*, 1/k))``.
    """
    a = as_alpha(alpha)
    m = _count(m, "m")
    k = _count(k, "k", high=m)
    if m == k:
        return float(_qlog(np.asarray(float(k)), a))
    return k * float(_term(np.asarray(min(entropy_term_argmax(a), 1.0 / k)), a))


def instability_example(eps: float) -> tuple[float, float, float]:
    """Top-term and total-entropy deviations near the two-point uniform distribution.

    For the pair ((1-eps)/2, (1+eps)/2) against (1/2, 1/2) at order 1, returns
    ``(delta1, delta2, delta1/delta2)`` where delta1 is the change of the
    largest entropy term and delta2 the change of the total entropy. The ratio
    grows like (1 - log 2)/eps, so the top term is unstable relative to the
    total.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    log1m = np.log1p(-eps)
    log1p_ = np.log1p(eps)
    delta1 = (-(1.0 - eps) * log1m - eps * np.log(2.0)) / 2.0
    delta2 = ((1.0 + eps) * log1p_ + (1.0 - eps) * log1m) / 2.0
    return float(delta1), float(delta2), float(delta1 / delta2)
