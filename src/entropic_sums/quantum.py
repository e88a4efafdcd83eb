"""Density operators, Ky Fan norms, quantum partial entropic sums, and partial fidelities.

A :class:`DensityStack` holds density operators as one array, checked once;
the scalar :class:`DensityOperator` is one with no leading axis. The stacked
functions take either, and for a stack their results gain its leading axes.

All matrix functions go through Hermitian eigendecomposition; nothing here uses
series expansions. Decomposition failures surface as ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import JointDistribution, ProbVector, partial_sum
from .entropy import AlphaLike, _count

#: Hermiticity / unit-trace construction tolerance for density operators.
HERMITIAN_TOL = 1e-9
#: How far below zero an eigenvalue may sit before a matrix stops being PSD.
PSD_TOL = 1e-9
#: Largest commutator entry still counted as "commuting".
COMMUTATOR_TOL = 1e-9
#: Minimal separation for spectra products to count as nondegenerate.
SPECTRUM_GAP_TOL = 1e-8
#: Tolerance on the completeness (sum to identity) of POVM elements.
POVM_TOL = 1e-8
#: Eigenvalues below this are eigensolver noise on a unit-trace matrix and are
#: zeroed: entropy terms of order below 1 amplify a spurious 1e-16 residue to
#: residue**alpha, which would make exact projectors come out visibly nonzero.
EIGENVALUE_NOISE_FLOOR = 1e-13


def _as_matrix(x) -> np.ndarray:
    m = np.array(x, dtype=complex, copy=True)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _check_densities(m: np.ndarray) -> np.ndarray:
    """Check matrices of shape ``(..., d, d)`` as density operators and return
    their eigenvalues, ascending, from one stacked decomposition."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density operator must be square, got shape {m.shape[-2:]}")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    trace = m.trace(axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > HERMITIAN_TOL
    if off.any():
        raise ValueError(f"trace must be 1, got {trace[off][0]}")
    eigenvalues = np.linalg.eigvalsh(m)
    if (eigenvalues[..., 0] < -PSD_TOL).any():
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")
    eigenvalues.flags.writeable = False
    return eigenvalues


@dataclass(frozen=True, eq=False)
class DensityStack:
    """Density operators checked as one stack: a read-only copy of the
    ``matrices``, shape ``(n, ..., d, d)``, and their ascending ``eigenvalues``,
    shape ``(n, ..., d)``, from the check's one stacked decomposition. The copy
    is made after the check, so the check's temporaries are freed by then."""

    matrices: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=complex)
        if m.ndim < 3 or m.size == 0:
            raise ValueError("expected a nonempty stack of matrices of shape (n, ..., d, d)")
        eigenvalues = _check_densities(m)
        self._hold(m.copy(), eigenvalues)

    def _hold(self, matrices: np.ndarray, eigenvalues: np.ndarray) -> DensityStack:
        matrices.flags.writeable = False
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        return self

    def split(self, n: int) -> tuple[DensityStack, DensityStack]:
        """The first ``n`` operators and the rest, as stacks checked with this one."""
        return tuple(object.__new__(DensityStack)._hold(self.matrices[rows], self.eigenvalues[rows])
                     for rows in (slice(n), slice(n, None)))


class DensityOperator(DensityStack):
    """d x d complex Hermitian, positive semidefinite, unit-trace matrix.

    A :class:`DensityStack` with no leading axis: ``matrices`` is the matrix and
    ``eigenvalues`` the ascending spectrum kept from the PSD check.
    """

    def __post_init__(self):
        m = _as_matrix(self.matrices)
        self._hold(m, _check_densities(m))

    def split(self, n: int):
        raise TypeError("a DensityOperator has no leading axis to split")

    @property
    def matrix(self) -> np.ndarray:
        return self.matrices

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class PureEnsemble:
    """Weighted collection of normalized pure states, stored as rows of kets."""

    def __init__(self, weights, states):
        self.weights = weights if isinstance(weights, ProbVector) else ProbVector(weights)
        st = np.array(states, dtype=complex, copy=True)
        if st.ndim != 2:
            raise ValueError("states must be a (n_states, dim) array of kets")
        if st.shape[0] != self.weights.dim:
            raise ValueError("need exactly one state per weight")
        norms = np.linalg.norm(st, axis=1)
        if np.max(np.abs(norms - 1.0)) > HERMITIAN_TOL:
            raise ValueError("every state must have unit norm")
        st.flags.writeable = False
        self.states = st

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


class RankOnePOVM:
    """Rank-one measurement elements built from (not necessarily normalized) vectors.

    The outer products of the vectors must sum to the identity within
    ``POVM_TOL``.
    """

    def __init__(self, vectors):
        v = np.array(vectors, dtype=complex, copy=True)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("POVM vectors must form a (n_outcomes, dim) array")
        frame = np.einsum("ja,jb->ab", v, v.conj())
        if np.max(np.abs(frame - np.eye(v.shape[1]))) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity within tolerance")
        v.flags.writeable = False
        self.vectors = v

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _parts(states) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and ascending eigenvalues of a density operator, or those of every operator of a stack."""
    if not isinstance(states, DensityStack):
        raise TypeError(f"expected a DensityOperator or a DensityStack, got {type(states).__name__}")
    return states.matrices, states.eigenvalues


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    a, b = _parts(rho)[0], _parts(sigma)[0]
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return a, b


def spectra(states) -> np.ndarray:
    """Spectra of a density operator or of a stack of them, largest first.

    Returns shape ``(d,)`` or ``(n, ..., d)``. Eigenvalues are clamped to [0, 1],
    zeroed below the solver-noise floor, and renormalized, so numerical
    residue never leaks into downstream entropy terms. Reads the eigenvalues
    kept at construction; no decomposition is repeated.
    """
    vals = np.clip(_parts(states)[1][..., ::-1], 0.0, 1.0)
    vals[vals < EIGENVALUE_NOISE_FLOOR] = 0.0
    return vals / vals.sum(axis=-1, keepdims=True)


def eigenvalues_descending(rho: DensityOperator) -> ProbVector:
    """Spectrum of a density operator as a probability vector, largest first
    (see :func:`spectra`)."""
    return ProbVector(spectra(rho))


def singular_values_descending(x) -> np.ndarray:
    """Singular values of an arbitrary matrix in decreasing order."""
    return np.linalg.svd(_as_matrix(x), compute_uv=False)


def ky_fan_norm(x, k: int) -> float:
    """Sum of the k largest singular values of a matrix.

    A norm for every fixed k: k = 1 is the operator norm, k = min(dim) the
    trace norm. For normal matrices the singular values are the absolute
    eigenvalues.
    """
    s = singular_values_descending(x)
    k = _count(k, "k", high=s.size)
    return float(np.cumsum(s)[k - 1])


def quantum_partial_sum(rho: DensityOperator, k: int, alpha: AlphaLike) -> float:
    """Sum of the k largest eigenvalue entropy terms of a density operator.

    Zero exactly when the state is a projector. Equals the classical partial
    sum applied to the spectrum, which is how it is computed.
    """
    return partial_sum(eigenvalues_descending(rho), k, alpha)


def ky_fan_distances(rho, sigma) -> np.ndarray:
    """Every Ky Fan distance of two density operators, or of two stacks of them.

    Entry k-1 along the last axis is the Ky Fan k-norm of the difference; all
    k come from one stacked singular-value decomposition.
    """
    a, b = _pair(rho, sigma)
    return np.cumsum(np.linalg.svd(a - b, compute_uv=False), axis=-1)


def ky_fan_distance(rho: DensityOperator, sigma: DensityOperator, k: int) -> float:
    """Ky Fan k-norm of the difference of two density operators."""
    k = _count(k, "k", high=rho.dim)
    return float(ky_fan_distances(rho, sigma)[k - 1])


def tensor_product(rho: DensityOperator, omega: DensityOperator) -> DensityOperator:
    """Kronecker product state; its spectrum is the set of pairwise spectral products."""
    return DensityOperator(np.kron(rho.matrix, omega.matrix))


def partial_trace(rho_joint: DensityOperator, dims: tuple[int, int], keep: str = "A") -> DensityOperator:
    """Reduce a bipartite state to one factor.

    ``dims = (d_a, d_b)`` must factor the joint dimension; indexing is
    row-major with subsystem A as the slow index. ``keep`` selects the
    surviving factor, "A" or "B".
    """
    if len(dims) != 2:
        raise ValueError(f"dims must be a pair (d_a, d_b), got {dims!r}")
    d_a, d_b = (_count(d, "dims") for d in dims)
    if rho_joint.dim != d_a * d_b:
        raise ValueError(f"dims {dims} do not factor dimension {rho_joint.dim}")
    r = rho_joint.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        reduced = np.einsum("imjm->ij", r)
    elif keep == "B":
        reduced = np.einsum("imin->mn", r)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityOperator(reduced)


def product_monotonicity_preconditions(rho_joint: DensityOperator, dims: tuple[int, int]) -> tuple[bool, bool]:
    """Hypotheses under which reduced-state partial sums are dominated by the joint state's.

    Returns ``(commuting, products_distinct)``: whether the joint state
    commutes with the product of its marginals, and whether the pairwise
    products of the marginal spectra are separated by more than
    ``SPECTRUM_GAP_TOL``. Exact degeneracy is meaningless in floating point,
    hence the gap criterion.
    """
    rho_a = partial_trace(rho_joint, dims, keep="A")
    rho_b = partial_trace(rho_joint, dims, keep="B")
    prod = np.kron(rho_a.matrix, rho_b.matrix)
    m = rho_joint.matrix
    commuting = bool(np.max(np.abs(m @ prod - prod @ m)) <= COMMUTATOR_TOL)
    a_vals = eigenvalues_descending(rho_a).values
    b_vals = eigenvalues_descending(rho_b).values
    products = np.sort(np.multiply.outer(a_vals, b_vals).ravel())
    if products.size > 1:
        products_distinct = bool(np.min(np.diff(products)) > SPECTRUM_GAP_TOL)
    else:
        products_distinct = True
    return commuting, products_distinct


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def psd_sqrt(rho) -> np.ndarray:
    """Unique positive square root of a density operator, or of each of a
    stack, via Hermitian eigendecomposition."""
    return _psd_sqrt(_parts(rho)[0])


def partial_fidelities(rho, sigma) -> np.ndarray:
    """Every partial fidelity of two density operators, or of two stacks of them.

    Entry k along the last axis, for k = 0..d, is the tail sum of the
    decreasing singular values of sqrt(rho) sqrt(sigma) from index k+1
    through d: k = 0 gives the full sum (the square root of the Uhlmann
    fidelity) and k = d gives exactly 0. Both square roots come from one
    stacked decomposition. The tails are summed smallest first, so they are
    nonincreasing in k in floating point too.
    """
    root_rho, root_sigma = _psd_sqrt(np.stack(np.broadcast_arrays(*_pair(rho, sigma))))
    s = np.linalg.svd(root_rho @ root_sigma, compute_uv=False)
    tails = np.flip(np.cumsum(np.flip(s, axis=-1), axis=-1), axis=-1)
    return np.concatenate([tails, np.zeros_like(tails[..., :1])], axis=-1)


def partial_fidelity(rho: DensityOperator, sigma: DensityOperator, k: int) -> float:
    """Tail sum of the decreasing singular values of sqrt(rho) sqrt(sigma)
    from index k+1 through d (see :func:`partial_fidelities`). Nonincreasing
    in k."""
    return float(partial_fidelities(rho, sigma)[_count(k, "k", low=0, high=rho.dim)])


def density_from_ensemble(ensemble: PureEnsemble) -> DensityOperator:
    """Mix the ensemble's pure states with its weights."""
    w = ensemble.weights.values
    st = ensemble.states
    return DensityOperator(np.einsum("i,ia,ib->ab", w, st, st.conj()))


def povm_joint_probs(ensemble: PureEnsemble, povm: RankOnePOVM) -> JointDistribution:
    """Joint input/outcome probabilities ``weight_i * |<w_j|psi_i>|**2``.

    Completeness of the POVM makes the grid normalized, and the row marginals
    recover the ensemble weights.
    """
    if ensemble.dim != povm.dim:
        raise ValueError(f"dimension mismatch: states in dim {ensemble.dim}, POVM in dim {povm.dim}")
    amps = ensemble.states @ povm.vectors.conj().T
    probs = ensemble.weights.values[:, None] * np.abs(amps) ** 2
    return JointDistribution(probs / probs.sum())


def schmidt_pure_state(theta: float) -> DensityOperator:
    """Two-qubit pure state cos(theta)|00> + sin(theta)|11> as a density operator."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.cos(theta)
    vec[3] = np.sin(theta)
    return DensityOperator(np.outer(vec, vec.conj()))
