"""Random instance generators: simplex points, density operators, ensembles,
POVMs and near-pairs.

All generators take a ``numpy.random.Generator`` (the package standardizes on
NumPy's seedable PCG64 streams) so sweeps are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .classical import ProbVector
from .quantum import DensityOperator, PureEnsemble, RankOnePOVM, ky_fan_norm


def sample_simplex(m: int, rng: np.random.Generator) -> ProbVector:
    """Uniform draw from the m-point simplex via normalized exponentials."""
    if int(m) != m or m < 1:
        raise ValueError("m must be a positive integer")
    g = rng.exponential(size=int(m))
    return ProbVector(g / g.sum())


def sample_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Random density operator from a square complex Gaussian matrix G: G G*/tr."""
    if int(d) != d or d < 1:
        raise ValueError("d must be a positive integer")
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def sample_state_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random normalized ket of dimension d."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_ensemble(d: int, n_states: int, rng: np.random.Generator) -> PureEnsemble:
    """Random weights on random normalized pure states."""
    weights = sample_simplex(n_states, rng)
    states = np.array([sample_state_vector(d, rng) for _ in range(n_states)])
    return PureEnsemble(weights, states)


def sample_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> RankOnePOVM:
    """Rank-one POVM from random vectors, normalized by their frame operator.

    Draws n_outcomes >= d Gaussian vectors v_j and returns S**(-1/2) v_j where
    S is the sum of their outer products, which makes the elements complete by
    construction.
    """
    if n_outcomes < d:
        raise ValueError("completeness needs at least d outcomes")
    v = rng.standard_normal((n_outcomes, d)) + 1j * rng.standard_normal((n_outcomes, d))
    frame = np.einsum("ja,jb->ab", v, v.conj())
    vals, vecs = np.linalg.eigh(frame)
    inv_half = (vecs * vals ** -0.5) @ vecs.conj().T
    return RankOnePOVM(v @ inv_half.T)


def basis_povm(d: int) -> RankOnePOVM:
    """Projective measurement onto the computational basis."""
    return RankOnePOVM(np.eye(d))


def sample_near(obj, epsilon: float, rng: np.random.Generator):
    """Mix the input with an independent fresh sample so the full distance
    (l1 for distributions, trace norm for density operators) stays within epsilon.

    Mixing keeps the result inside the simplex or the PSD cone by construction;
    epsilon = 0 returns the input and a large epsilon recovers the fresh sample.
    """
    eps = float(epsilon)
    if eps < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if isinstance(obj, ProbVector):
        fresh = sample_simplex(obj.dim, rng)
        dist = float(np.abs(fresh.values - obj.values).sum())
        t = 1.0 if dist <= eps else eps / dist
        return ProbVector(obj.values + t * (fresh.values - obj.values))
    if isinstance(obj, DensityOperator):
        fresh = sample_density(obj.dim, rng)
        diff = fresh.matrix - obj.matrix
        dist = ky_fan_norm(diff, obj.dim)
        t = 1.0 if dist <= eps else eps / dist
        return DensityOperator(obj.matrix + t * diff)
    raise TypeError("expected a ProbVector or a DensityOperator")
