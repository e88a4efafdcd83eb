"""The one count rule: every integer argument of the public API is checked by
``entropy._count`` (or its array form in ``bounds._checked``) and a bad count
raises a ValueError whose message starts with the parameter's name."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropic_sums
from entropic_sums import (
    ProbVector,
    RunConfig,
    adversarial_search,
    basis_povm,
    check_classical,
    check_fidelity_variant,
    check_quantum,
    entropy_gap_bound,
    fannes_bound,
    fannes_bounds,
    ky_fan_distance,
    ky_fan_norm,
    max_partial_bounds,
    max_partial_sum,
    partial_distance,
    partial_fidelity,
    partial_sum,
    partial_trace,
    product_monotonicity_preconditions,
    quantum_partial_sum,
    sample_density,
    sample_ensemble,
    sample_povm,
    sample_simplex,
    sample_state_vector,
    stability_delta,
    stability_threshold,
    sum_largest_abs,
)
from entropic_sums.bounds import MAX_ADVERSARIAL_K
from entropic_sums.entropy import _count


def _is_count(value, low, high) -> bool:
    """The count rule written out case by case."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return low <= value <= high
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value) and value == math.floor(value) and low <= value <= high
    return False


_VALUES = st.one_of(
    st.integers(-(10 ** 30), 10 ** 30),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 12).map(float),
    st.sampled_from([0.5, 2.5, -1.5, 1e300, -0.0]),
    st.integers(-3, 12).map(np.int64),
    st.integers(0, 12).map(np.uint8),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-3, 12).map(np.float32),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.none(),
    st.text(max_size=3),
)


class TestCountRule:
    @settings(max_examples=400, deadline=None)
    @given(value=_VALUES, low=st.integers(0, 3), high=st.one_of(st.just(math.inf), st.integers(0, 12)))
    def test_matches_the_rule(self, value, low, high):
        if _is_count(value, low, high):
            out = _count(value, "n", low, high)
            assert type(out) is int and out == value
        else:
            with pytest.raises(ValueError) as exc_info:
                _count(value, "n", low, high)
            assert str(exc_info.value).startswith("n must be ")
            assert str(exc_info.value).endswith(f", got {value!r}")

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^k must be a positive integer, got 0$"):
            _count(0, "k")
        with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 3\], got 4$"):
            _count(4, "k", low=0, high=3)


_RNG = np.random.default_rng(2024)
_P3 = ProbVector([0.2, 0.3, 0.5])
_Q3 = ProbVector([0.25, 0.3, 0.45])
_RHO2, _SIGMA2 = sample_density(2, _RNG), sample_density(2, _RNG)
_RHO4 = sample_density(4, _RNG)


def _rng():
    return np.random.default_rng(5)


#: Every public count parameter: (function, parameter) -> (call with the
#: parameter set to a value, the name its messages start with, low, high).
COUNT_PARAMETERS = {
    ("sum_largest_abs", "k"): (lambda v: sum_largest_abs([0.1, -0.5, 0.3], v), "k", 1, 3),
    ("partial_sum", "k"): (lambda v: partial_sum(_P3, v, 1.0), "k", 1, 3),
    ("partial_distance", "k"): (lambda v: partial_distance(_P3, _Q3, v), "k", 1, 3),
    ("max_partial_bounds", "k"): (lambda v: max_partial_bounds(v, 1.0), "k", 1, math.inf),
    ("max_partial_sum", "m"): (lambda v: max_partial_sum(v, 1, 1.0), "m", 1, math.inf),
    ("max_partial_sum", "k"): (lambda v: max_partial_sum(3, v, 1.0), "k", 1, 3),
    ("entropy_gap_bound", "n"): (lambda v: entropy_gap_bound(0.1, v, 1.0), "n", 1, math.inf),
    ("fannes_bound", "k"): (lambda v: fannes_bound(0.1, v, 1.0), "k", 1, math.inf),
    ("fannes_bounds", "ks"): (lambda v: fannes_bounds([0.1, 0.2], v, 1.0), "k", 1, math.inf),
    ("adversarial_search", "k"): (lambda v: adversarial_search(v, 1.0, 0.1), "k", 1, MAX_ADVERSARIAL_K),
    ("check_classical", "k"): (lambda v: check_classical(_P3, _Q3, v, 1.0), "k", 1, 3),
    ("check_quantum", "k"): (lambda v: check_quantum(_RHO2, _SIGMA2, v, 1.0), "k", 1, 2),
    ("check_fidelity_variant", "k"): (lambda v: check_fidelity_variant(_RHO2, _SIGMA2, v, 1.0), "k", 1, 2),
    ("stability_threshold", "k"): (lambda v: stability_threshold(v, 1.0), "k", 1, math.inf),
    ("stability_delta", "k"): (lambda v: stability_delta(0.01, v, 1.0), "k", 1, math.inf),
    ("ky_fan_norm", "k"): (lambda v: ky_fan_norm(np.eye(2), v), "k", 1, 2),
    ("ky_fan_distance", "k"): (lambda v: ky_fan_distance(_RHO2, _SIGMA2, v), "k", 1, 2),
    ("quantum_partial_sum", "k"): (lambda v: quantum_partial_sum(_RHO2, v, 1.0), "k", 1, 2),
    ("partial_fidelity", "k"): (lambda v: partial_fidelity(_RHO2, _SIGMA2, v), "k", 0, 2),
    ("partial_trace", "dims"): (lambda v: partial_trace(_RHO4, (v, 2)), "dims", 1, math.inf),
    ("product_monotonicity_preconditions", "dims"):
        (lambda v: product_monotonicity_preconditions(_RHO4, (2, v)), "dims", 1, math.inf),
    ("sample_simplex", "m"): (lambda v: sample_simplex(v, _rng()), "m", 1, math.inf),
    ("sample_density", "d"): (lambda v: sample_density(v, _rng()), "d", 1, math.inf),
    ("sample_state_vector", "d"): (lambda v: sample_state_vector(v, _rng()), "d", 1, math.inf),
    ("sample_ensemble", "d"): (lambda v: sample_ensemble(v, 3, _rng()), "d", 1, math.inf),
    ("sample_ensemble", "n_states"): (lambda v: sample_ensemble(2, v, _rng()), "n_states", 1, math.inf),
    ("sample_povm", "d"): (lambda v: sample_povm(v, 4, _rng()), "d", 1, math.inf),
    ("sample_povm", "n_outcomes"): (lambda v: sample_povm(2, v, _rng()), "n_outcomes", 2, math.inf),
    ("basis_povm", "d"): (lambda v: basis_povm(v), "d", 1, math.inf),
    ("RunConfig", "dims"): (lambda v: RunConfig(seed=0, trials=1, alpha_grid=[1.0], dims=[v]),
                            "dimension", 1, math.inf),
    ("RunConfig", "k_policy"): (lambda v: RunConfig(seed=0, trials=1, alpha_grid=[1.0], k_policy=[v]),
                                "k", 1, math.inf),
}

#: Parameter names that hold a count wherever a public signature uses them.
COUNT_NAMES = {"k", "ks", "m", "n", "d", "n_states", "n_outcomes", "dims"}
#: ``binary_entropy``'s d is a probability; ``ReportRow`` fields are output data.
EXEMPT = {("binary_entropy", "d")}


def _bad_values(low, high):
    yield from (True, None, math.nan, math.inf, 2.5, "3", low - 1)
    if high != math.inf:
        yield high + 1


@pytest.mark.parametrize("key", list(COUNT_PARAMETERS), ids=".".join)
def test_every_count_parameter_refuses_a_bad_count(key):
    call, name, low, high = COUNT_PARAMETERS[key]
    for value in _bad_values(low, high):
        with pytest.raises(ValueError) as exc_info:
            call(value)
        assert str(exc_info.value).startswith(f"{name} must be "), (value, str(exc_info.value))
    for value in (2, 2.0, np.int64(2)):
        call(value)


def test_every_public_count_parameter_is_in_the_table():
    found = set()
    for name in entropic_sums.__all__:
        value = getattr(entropic_sums, name)
        if not callable(value) or value is entropic_sums.ReportRow:
            continue
        found |= {(name, p) for p in inspect.signature(value).parameters if p in COUNT_NAMES}
    assert found - EXEMPT <= set(COUNT_PARAMETERS)
    assert EXEMPT <= found


@pytest.mark.parametrize("ks", [[2, True], [[2], [True]], (np.True_, 2)], ids=str)
def test_a_bool_inside_a_list_of_k_is_refused(ks):
    # numpy reads [2, True] as the integer array [2, 1]; the rule sees the bool itself
    with pytest.raises(ValueError, match=r"^k must be a positive integer, got (True|np\.True_)$"):
        fannes_bounds([0.1, 0.2], ks, 1.0)


@pytest.mark.parametrize("ks", [[10 ** 20], 10 ** 20, [2, 10 ** 20]], ids=str)
def test_a_k_no_integer_array_holds_is_named(ks):
    # numpy reads [10**20] as an object array; the message names the entry, not the array
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 18446744073709551615\], got 10{20}$"):
        fannes_bounds(0.1, ks, 1.0)


def test_an_array_of_k_is_checked_entry_by_entry_whatever_its_dtype():
    expected = fannes_bounds([[0.1], [0.2]], [1, 2], 1.0)
    for ks in (np.array([1, 2], dtype=object), np.array([1.0, 2.0]), np.array([1, 2], dtype=np.uint8)):
        for got, want in zip(fannes_bounds([[0.1], [0.2]], ks, 1.0), expected):
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"^k must be a positive integer, got 2\.5$"):
        fannes_bounds(0.1, np.array([1, 2.5], dtype=object), 1.0)
    with pytest.raises(ValueError, match=r"^k must be a positive integer, got True$"):
        fannes_bounds(0.1, np.array([True, True]), 1.0)


@pytest.mark.parametrize("call", [partial_trace, product_monotonicity_preconditions])
@pytest.mark.parametrize("dims", [(2, 2, 1), (4,), ()], ids=str)
def test_dims_of_any_length_but_two_is_refused(call, dims):
    with pytest.raises(ValueError, match=r"^dims must be a pair \(d_a, d_b\), got "):
        call(_RHO4, dims)
