"""Random instance generators: simplex points, density operators, ensembles,
POVMs and near-pairs.

The ``sample_*`` generators take a ``numpy.random.Generator`` (the package
standardizes on NumPy's seedable PCG64 streams) so sweeps are reproducible bit
for bit. The stacked samplers turn raw draws of any leading shape into
instances checked once per stack: read-only arrays (``simplex_points``,
``near_points``) or a :class:`~entropic_sums.quantum.DensityStack`, with no
leading axis a ``DensityOperator`` (``density_operators``, ``near_operators``).
The scalar generators call them on one draw, so each formula is written once.
"""

from __future__ import annotations

import numpy as np

from .classical import ProbVector, _onto_simplex
from .entropy import _count
from .quantum import DensityOperator, DensityStack, PureEnsemble, RankOnePOVM, ky_fan_distances


def simplex_points(draws) -> np.ndarray:
    """Validated simplex points from a stack of exponential draws of shape
    ``(..., m)``: each row divided by its total, read-only."""
    g = np.asarray(draws, dtype=float)
    return _onto_simplex(g / g.sum(axis=-1, keepdims=True))


def density_operators(real, imag) -> DensityStack:
    """Validated density operators ``G G*/tr G G*`` from the real and imaginary
    parts of square Gaussian matrices G, shape ``(..., d, d)``."""
    m = np.asarray(real) + 1j * np.asarray(imag)
    m = m @ m.conj().swapaxes(-1, -2)
    m /= m.trace(axis1=-2, axis2=-1)[..., None, None]
    return DensityStack(m) if m.ndim > 2 else DensityOperator(m)


def _mix(base: np.ndarray, diff: np.ndarray, epsilon, dist: np.ndarray) -> np.ndarray:
    """``base + t * diff`` per row, with t = 1 where ``dist <= epsilon`` and
    ``epsilon / dist`` elsewhere, so every row lands within epsilon of its base."""
    eps = np.asarray(epsilon, dtype=float)
    if not (eps >= 0.0).all():
        raise ValueError("epsilon must be nonnegative")
    t = np.divide(eps, dist, out=np.ones_like(dist), where=dist > eps)
    return base + t.reshape(t.shape + (1,) * (base.ndim - t.ndim)) * diff


def near_points(base: np.ndarray, fresh: np.ndarray, epsilon) -> np.ndarray:
    """Validated mixtures of each simplex point in ``base`` with the matching
    row of ``fresh``, within l1 distance ``epsilon[i]`` of row i."""
    diff = fresh - base
    return _onto_simplex(_mix(base, diff, epsilon, np.abs(diff).sum(axis=-1)))


def near_operators(base: DensityStack, fresh: DensityStack, epsilon) -> DensityStack:
    """Validated mixtures of each density operator of the stack ``base`` with
    the matching one of ``fresh``, within trace distance ``epsilon[i]`` of the i-th."""
    diff = fresh.matrices - base.matrices
    # the mixtures have the leading shape of base, so an operator's mix is an operator
    return type(base)(_mix(base.matrices, diff, epsilon, ky_fan_distances(fresh, base)[..., -1]))


def sample_simplex(m: int, rng: np.random.Generator) -> ProbVector:
    """Uniform draw from the m-point simplex via normalized exponentials."""
    return ProbVector._validated(simplex_points(rng.exponential(size=_count(m, "m"))))


def sample_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Random density operator from a square complex Gaussian matrix G: G G*/tr."""
    d = _count(d, "d")
    return density_operators(rng.standard_normal((d, d)), rng.standard_normal((d, d)))


def sample_state_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random normalized ket of dimension d."""
    d = _count(d, "d")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_ensemble(d: int, n_states: int, rng: np.random.Generator) -> PureEnsemble:
    """Random weights on random normalized pure states."""
    d, n_states = _count(d, "d"), _count(n_states, "n_states")
    weights = sample_simplex(n_states, rng)
    states = np.array([sample_state_vector(d, rng) for _ in range(n_states)])
    return PureEnsemble(weights, states)


def sample_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> RankOnePOVM:
    """Rank-one POVM from random vectors, normalized by their frame operator.

    Draws n_outcomes >= d Gaussian vectors v_j and returns S**(-1/2) v_j where
    S is the sum of their outer products, which makes the elements complete by
    construction.
    """
    d = _count(d, "d")
    n_outcomes = _count(n_outcomes, "n_outcomes", low=d)  # completeness needs at least d outcomes
    v = rng.standard_normal((n_outcomes, d)) + 1j * rng.standard_normal((n_outcomes, d))
    frame = np.einsum("ja,jb->ab", v, v.conj())
    vals, vecs = np.linalg.eigh(frame)
    inv_half = (vecs * vals ** -0.5) @ vecs.conj().T
    return RankOnePOVM(v @ inv_half.T)


def basis_povm(d: int) -> RankOnePOVM:
    """Projective measurement onto the computational basis."""
    return RankOnePOVM(np.eye(_count(d, "d")))


def sample_near(obj, epsilon: float, rng: np.random.Generator):
    """Mix the input with an independent fresh sample so the full distance
    (l1 for distributions, trace norm for density operators) stays within epsilon.

    Mixing keeps the result inside the simplex or the PSD cone by construction;
    epsilon = 0 returns the input and a large epsilon recovers the fresh sample.
    """
    if isinstance(obj, ProbVector):
        fresh = sample_simplex(obj.dim, rng)
        return ProbVector._validated(near_points(obj.values, fresh.values, epsilon))
    if isinstance(obj, DensityOperator):
        return near_operators(obj, sample_density(obj.dim, rng), epsilon)
    raise TypeError("expected a ProbVector or a DensityOperator")
