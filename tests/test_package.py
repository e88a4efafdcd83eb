"""Tests of the package's public namespace."""

import types

import entropic_sums


def test_every_exported_name_resolves():
    names = entropic_sums.__all__
    assert len(names) == len(set(names)) > 0
    for name in names:
        value = getattr(entropic_sums, name)
        assert not isinstance(value, types.ModuleType), name
    namespace = {}
    exec("from entropic_sums import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_exports_are_the_public_api():
    names = set(entropic_sums.__all__)
    assert {"cli_main", "run_sweep", "RunConfig", "ReportRow", "pair_checks", "partial_sums",
            "DensityOperator", "ProbVector", "entropy_term", "sample_density"} <= names
    assert not {"bounds", "cli", "classical", "quantum", "entropy", "sampling", "serialize"} & names
    assert not any(name.startswith("_") for name in names)
