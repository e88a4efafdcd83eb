"""Partial entropic sums of Tsallis type: classical and quantum partial sums,
Ky Fan norms and distances, Uhlmann partial fidelities, continuity (Fannes-type)
bound checks, Lesche-style stability, and randomized verification harnesses."""

from types import ModuleType as _ModuleType

from .bounds import (
    DEFAULT_CHECK_TOL,
    AdversarialResult,
    BoundValue,
    BoundViolationError,
    CheckTable,
    InequalityCheck,
    adversarial_search,
    check_classical,
    check_fidelity_variant,
    check_quantum,
    check_tolerance,
    classical_checks,
    density_checks,
    entropy_sum_diff,
    fannes_bound,
    fannes_bounds,
    fidelity_checks,
    pair_checks,
    quantum_checks,
    stability_delta,
    stability_threshold,
)
from .classical import (
    SIMPLEX_TOL,
    JointDistribution,
    ProbVector,
    instability_example,
    kolmogorov_distance,
    marginal,
    max_partial_bounds,
    max_partial_sum,
    partial_distance,
    partial_distances,
    partial_sum,
    partial_sums,
    sum_largest_abs,
)
from .cli import ReportRow, RunConfig, cli_main, run_sweep
from .entropy import (
    Alpha,
    as_alpha,
    binary_entropy,
    entropy_gap_bound,
    entropy_term,
    entropy_term_argmax,
    q_log,
)
from .quantum import (
    COMMUTATOR_TOL,
    HERMITIAN_TOL,
    POVM_TOL,
    PSD_TOL,
    SPECTRUM_GAP_TOL,
    DensityOperator,
    DensityStack,
    PureEnsemble,
    RankOnePOVM,
    density_from_ensemble,
    eigenvalues_descending,
    ky_fan_distance,
    ky_fan_distances,
    ky_fan_norm,
    partial_fidelities,
    partial_fidelity,
    partial_trace,
    povm_joint_probs,
    product_monotonicity_preconditions,
    psd_sqrt,
    quantum_partial_sum,
    schmidt_pure_state,
    singular_values_descending,
    spectra,
    tensor_product,
)
from .sampling import (
    basis_povm,
    sample_density,
    sample_ensemble,
    sample_near,
    sample_povm,
    sample_simplex,
    sample_state_vector,
)

__version__ = "0.1.0"

#: Every public name imported above; the submodules themselves are left out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
