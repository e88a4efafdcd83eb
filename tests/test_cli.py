"""Tests for the command-line front end: subcommands, formats, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropic_sums.cli as cli
from entropic_sums import (RunConfig, bounds, cli_main, max_partial_bounds, max_partial_sum, run_sweep,
                           sample_ensemble, sample_povm)
from entropic_sums.cli import CSV_HEADER, ReportRow
from entropic_sums.serialize import fmt_cell, json_column

#: Values of ENTROPIC_SUMS_TOL that every command must reject with exit 1.
NON_FINITE_TOLS = ["nan", "inf", "-inf", "abc"]

#: One command line per subcommand; "P" and "Q" name the files of ``prob_files``.
SUBCOMMAND_LINES = ["eval P", "check P Q", "sweep --trials 1", "adversarial --k 1",
                    "demo instability", "demo bell", "demo maxbounds"]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def prob_files(tmp_path):
    a = write_json(tmp_path / "p.json", {"kind": "prob_vector", "values": [0.6, 0.4]})
    b = write_json(tmp_path / "q.json", {"kind": "prob_vector", "values": [0.5, 0.5]})
    return a, b


@pytest.fixture
def density_files(tmp_path):
    rng = np.random.default_rng(99)
    files = []
    for name in ("rho.json", "sigma.json"):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        m /= m.trace()
        files.append(write_json(tmp_path / name, {
            "kind": "density", "dim": 3,
            "re": m.real.tolist(), "im": m.imag.tolist()}))
    return tuple(files)


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEvalCommand:
    def test_single_prob_vector(self, prob_files, capsys):
        code = cli_main(["eval", prob_files[0], "--alpha", "2"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert [r["experiment"] for r in rows] == ["eval_classical_partial_sum"] * 2
        # full sum of (0.6, 0.4) at order 2 is 0.48
        full = [r for r in rows if r["k"] == "2"][0]
        assert float(full["lhs"]) == pytest.approx(0.48, abs=1e-12)

    def test_pair_of_densities(self, density_files, capsys):
        code = cli_main(["eval", *density_files, "--alpha", "1"])
        out = capsys.readouterr().out
        assert code == 0
        experiments = {r["experiment"] for r in parse_csv(out)}
        assert "eval_kyfan_distance" in experiments
        assert "eval_partial_fidelity" in experiments

    def test_ensemble_with_povm(self, tmp_path, capsys):
        ens = write_json(tmp_path / "ens.json", {
            "kind": "ensemble", "weights": [0.5, 0.5],
            "states_re": [[1.0, 0.0], [0.0, 1.0]],
            "states_im": [[0.0, 0.0], [0.0, 0.0]]})
        povm = write_json(tmp_path / "povm.json", {
            "kind": "povm",
            "vectors_re": [[1.0, 0.0], [0.0, 1.0]],
            "vectors_im": [[0.0, 0.0], [0.0, 0.0]]})
        code = cli_main(["eval", ens, povm, "--alpha", "1"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert all(r["experiment"] == "eval_povm_refinement" for r in rows)
        assert all(float(r["margin"]) >= -1e-12 for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_terms_print_without_sign(self, tmp_path, capsys, fmt):
        # entropy_term(1) and q_log(1) are 0; at orders 1 and above 1 they came out as -0.0
        point = write_json(tmp_path / "point.json", {"kind": "prob_vector", "values": [1.0, 0.0]})
        assert cli_main(["eval", point, "--alpha", "1,2", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0" not in out
        lhs = ([json.loads(line)["lhs"] for line in out.splitlines()] if fmt == "json"
               else [float(r["lhs"]) for r in parse_csv(out)])
        assert lhs == [0.0] * 4

    def test_povm_refinement_carries_no_verdict(self, tmp_path, capsys):
        # the reduced sums stay below the joint ones for the state's spectral ensemble, not
        # for every ensemble: this one's k = 2 sum at order 5 is above its joint sum
        rng = np.random.default_rng(197)
        ens, povm = sample_ensemble(2, 3, rng), sample_povm(2, 4, rng)
        files = [write_json(tmp_path / "ens.json", {"kind": "ensemble", "weights": ens.weights.values.tolist(),
                                                    "states_re": ens.states.real.tolist(),
                                                    "states_im": ens.states.imag.tolist()}),
                 write_json(tmp_path / "povm.json", {"kind": "povm", "vectors_re": povm.vectors.real.tolist(),
                                                     "vectors_im": povm.vectors.imag.tolist()})]
        assert cli_main(["eval", *files, "--alpha", "5", "--k", "2"]) == 0
        [row] = parse_csv(capsys.readouterr().out)
        assert float(row["margin"]) == pytest.approx(-1.02e-3, abs=5e-6)
        assert (row["applicable"], row["satisfied"]) == ("", "")

    def test_povm_alone_is_an_error(self, tmp_path, capsys):
        povm = write_json(tmp_path / "povm.json", {
            "kind": "povm",
            "vectors_re": [[1.0, 0.0], [0.0, 1.0]],
            "vectors_im": [[0.0, 0.0], [0.0, 0.0]]})
        assert cli_main(["eval", povm]) == 1

    def test_joint_input(self, tmp_path, capsys):
        joint = write_json(tmp_path / "joint.json", {
            "kind": "joint", "rows": 2, "cols": 2,
            "values": [[0.1, 0.2], [0.3, 0.4]]})
        code = cli_main(["eval", joint, "--alpha", "1", "--k", "4"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["experiment"] == "eval_joint_partial_sum"
        expected = -sum(v * np.log(v) for v in (0.1, 0.2, 0.3, 0.4))
        assert float(rows[0]["lhs"]) == pytest.approx(expected, abs=1e-12)


class TestCheckCommand:
    def test_classical_pair_frozen(self, prob_files, capsys):
        code = cli_main(["check", *prob_files, "--alpha", "2", "--k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        row = parse_csv(out)[0]
        assert row["experiment"] == "check_classical"
        assert float(row["lhs"]) == pytest.approx(0.02, abs=1e-12)
        assert float(row["epsilon"]) == pytest.approx(0.2, abs=1e-12)
        assert row["satisfied"] == "true"

    def test_density_pair(self, density_files, capsys):
        code = cli_main(["check", *density_files, "--alpha", "1,3"])
        out = capsys.readouterr().out
        assert code == 0
        experiments = {r["experiment"] for r in parse_csv(out)}
        assert experiments == {"check_quantum", "check_fidelity"}

    def test_mismatched_kinds(self, prob_files, density_files):
        assert cli_main(["check", prob_files[0], density_files[0]]) == 1

    def test_k_out_of_range_is_an_error(self, prob_files, capsys):
        code = cli_main(["check", *prob_files, "--k", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "k=5" in captured.err and "dimension 2" in captured.err

    def test_density_rows_interleave_per_cell(self, density_files, capsys):
        assert cli_main(["check", *density_files, "--alpha", "1,3", "--k", "1,3"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [(r["experiment"], r["alpha"], r["k"]) for r in rows] == [
            (exp, alpha, k) for alpha in ("1", "3") for k in ("1", "3")
            for exp in ("check_quantum", "check_fidelity")]

    @pytest.mark.parametrize("value", NON_FINITE_TOLS)
    def test_non_finite_tolerance_is_an_error(self, prob_files, monkeypatch, capsys, value):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", value)
        code = cli_main(["check", *prob_files, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "ENTROPIC_SUMS_TOL" in captured.err


class TestSweepCommand:
    def test_exit_zero_and_rows(self, capsys):
        code = cli_main(["sweep", "--alpha", "0.5", "--dims", "4", "--trials", "20", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 20 * 2 * 4  # classical + quantum, all k
        assert all(r["satisfied"] in ("true", "") for r in rows)

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--alpha", "1,2.5", "--dims", "2,3", "--trials", "10", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_corrupted_tolerance_trips_violation_exit(self, monkeypatch, capsys):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", "-1.0")
        code = cli_main(["sweep", "--alpha", "1", "--dims", "2", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert any(r["satisfied"] == "false" for r in parse_csv(out))

    def test_k_filtered_per_dim_and_error_when_fitting_none(self, capsys):
        code = cli_main(["sweep", "--alpha", "1", "--dims", "2,4", "--k", "3", "--trials", "2"])
        rows = parse_csv(capsys.readouterr().out)
        assert code == 0
        assert [(r["k"], r["dim"]) for r in rows] == [("3", "4")] * 4
        code = cli_main(["sweep", "--alpha", "1", "--dims", "2", "--k", "1,3", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "k=3" in captured.err

    def test_run_sweep_library_api(self):
        rows = run_sweep(RunConfig(seed=3, trials=5, alpha_grid=[0.7, 2.0], dims=[3]))
        assert len(rows) == 5 * 2 * 2 * 3
        assert all(r.satisfied in (True, None) for r in rows)

    def test_runconfig_validation(self):
        with pytest.raises(ValueError):
            RunConfig(seed=0, trials=0, alpha_grid=[1.0])
        with pytest.raises(ValueError):
            RunConfig(seed=0, trials=1, alpha_grid=[-1.0])
        with pytest.raises(ValueError, match="^k_policy must name at least one k$"):
            RunConfig(seed=0, trials=3, alpha_grid=[1.0], k_policy=[])

    def test_runconfig_caps_the_matrix_entries_of_a_chunk(self):
        # a full chunk of d = 128, or one trial of d = 1024, is the largest sweep taken
        assert cli.SWEEP_MAX_ENTRIES == cli.SWEEP_CHUNK * 128 ** 2 == 1024 ** 2
        RunConfig(seed=0, trials=10 ** 6, alpha_grid=[1.0], dims=[128])
        RunConfig(seed=0, trials=1, alpha_grid=[1.0], dims=[1024])
        refusal = r"^dims ask for \d+ matrix entries per chunk, past the cap of 1048576$"
        for trials, dims in ((cli.SWEEP_CHUNK, [128, 1]), (1, [1024, 1]), (100, [10 ** 20])):
            with pytest.raises(ValueError, match=refusal):
                RunConfig(seed=0, trials=trials, alpha_grid=[1.0], dims=dims)

    @pytest.mark.parametrize("argv", [["--dims", "99999999999999999999"], ["--dims", "100000"],
                                      ["--dims", "129", "--trials", "64"], ["--dims", "2,1024", "--trials", "1"]])
    def test_dims_past_the_entry_cap_are_an_input_error(self, capsys, argv):
        assert cli_main(["sweep", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: dims ask for ")
        assert captured.err.endswith(f" past the cap of {cli.SWEEP_MAX_ENTRIES}\n")

    def test_k_outside_one_dimension_or_all_of_several_is_named(self, capsys):
        assert cli_main(["sweep", "--dims", "2", "--k", "3"]) == 1
        assert capsys.readouterr().err == "error: k=3 is outside [1, 2] for dimension 2\n"
        assert cli_main(["sweep", "--dims", "2,3", "--k", "1,4"]) == 1
        assert capsys.readouterr().err == "error: k=4 fits none of the dimensions [2, 3]\n"

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
    def test_runconfig_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            RunConfig(seed=0, trials=trials, alpha_grid=[1.0])

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1])
    def test_runconfig_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            RunConfig(seed=seed, trials=1, alpha_grid=[1.0])

    def test_runconfig_accepts_integer_seeds(self):
        for seed in (0, np.int64(7)):
            assert RunConfig(seed=seed, trials=1, alpha_grid=[1.0]).seed == seed

    def test_negative_seed_is_an_input_error(self, capsys):
        assert cli_main(["sweep", "--seed", "-1", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("order", ["nan", "inf"])
    def test_non_finite_order_is_an_input_error_before_any_output(self, capsys, order):
        assert cli_main(["sweep", "--alpha", order, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: entropic order must be a positive real, got {order}\n"
        with pytest.raises(ValueError, match="entropic order"):
            RunConfig(seed=0, trials=1, alpha_grid=[1.0, float(order)])

    def test_runconfig_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="dims"):
            RunConfig(seed=0, trials=1, alpha_grid=[1.0], dims=[])

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "460da4f8fbb7c259f6618f4ad0e91b008085d8e20ba09f5e4bcff6e2d310c577"),
        ("json", "e6b90ab2d367b445dee72ed9b00a9ece9a2d5e5e9c811f30d59e6d0f5f7da329"),
    ])
    def test_dimension_one_pairs_sit_at_distance_zero(self, capsys, fmt, digest):
        # every pair at dimension 1 is at distance 0, so no mixing weight is
        # a division; the digests are those of the per-draw sweep
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["sweep", "--dims", "1,2,1", "--trials", "3", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


#: SHA-256 of the stdout of ``sweep`` commands, recorded from the per-draw
#: implementation that the stacked sweep replaced.
PINNED_SWEEPS = [
    (["--alpha", "0.5,1,3", "--dims", "2,4,8", "--trials", "20", "--seed", "5"], "csv",
     "16b104f2484669983709a3064c511353a895b1ed366ed20fd455b6f5ebcfff8c"),
    (["--alpha", "0.5,1,3", "--dims", "2,4,8", "--trials", "20", "--seed", "5"], "json",
     "cfe9ee3534e041076bf2a9c3a704fcd840cd9f33e48a59e6ea2baca40464f2af"),
    (["--alpha", "0.7,2,5", "--dims", "16,3,1,3", "--k", "1,3", "--trials", "15", "--seed", "9"],
     "csv", "501214df2e6db8964c2cc8203c6cce5d874cfcfefdb09d1da14ffe819d2ca107"),
    (["--alpha", "0.7,2,5", "--dims", "16,3,1,3", "--k", "1,3", "--trials", "15", "--seed", "9"],
     "json", "d3c0b34fe9b29b7b82b57359409845bdf296eb5751be97e270a4bbd03905e246"),
]


class TestPinnedSweepBytes:
    """``sweep`` output for fixed seeds, pinned byte for byte.

    The digests belong to the LAPACK build they were recorded with: numpy 2.4
    on OpenBLAS 0.3.31 (scipy-openblas), x86-64. On that build a mismatch is
    a change of the numbers, and on another build it may be LAPACK drift;
    either way it is drift to report in CHANGES.md, with the size of the
    change, never a value to refresh silently.
    """

    @pytest.mark.parametrize("argv, fmt, digest", PINNED_SWEEPS)
    def test_stdout_digest(self, capsys, argv, fmt, digest):
        assert cli_main(["sweep", *argv, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: Commands other than ``sweep``: name -> (argv, exit code); "P", "RHO", ...
#: name the files of ``instance_files``.
PINNED_COMMANDS = {
    "check-vector-pair": (["check", "V", "W", "--alpha", "0.5,1,2.5"], 0),
    "eval-vector-pair": (["eval", "V", "W", "--alpha", "0.5,1,2.5"], 0),
    "eval-vector-pair-some-k": (["eval", "V", "W", "--alpha", "0.5,1,2.5", "--k", "2,4"], 0),
    "eval-vector": (["eval", "V", "--alpha", "0.5,1,2.5"], 0),
    "eval-density": (["eval", "RHO", "--alpha", "0.5,1,2.5"], 0),
    "eval-joint": (["eval", "JOINT", "--alpha", "0.5,1,2.5"], 0),
    "eval-ensemble": (["eval", "ENS", "--alpha", "0.5,1,2.5"], 0),
    "check-past-distance-one": (["check", "P", "FAR", "--alpha", "0.5,1,2.5"], 0),
    "check-density-pair": (["check", "RHO", "SIGMA", "--alpha", "0.5,1,2.5"], 0),
    "eval-density-pair": (["eval", "RHO", "SIGMA", "--alpha", "0.5,1,2.5"], 0),
    "eval-ensemble-povm": (["eval", "ENS", "POVM", "--alpha", "0.5,1,2.5"], 0),
    "check-ensemble-povm": (["check", "ENS", "POVM", "--alpha", "0.5,1,2.5"], 1),
    "adversarial": (["adversarial", "--alpha", "0.5,1,2.5", "--k", "1,2,3", "--eps", "0.05,0.1,0.9"], 0),
    "demo-maxbounds": (["demo", "maxbounds", "--dims", "1,4,6", "--alpha", "0.5,1,2.5"], 0),
    "demo-bell": (["demo", "bell", "--alpha", "0.5,1,2.5"], 0),
    "demo-instability": (["demo", "instability", "--eps", "1e-4,0.01,0.3"], 0),
}

#: SHA-256 of the stdout of each of ``PINNED_COMMANDS`` per format, recorded
#: from the writer that rendered JSON with one ``json.dumps`` per row.
PINNED_COMMAND_DIGESTS = {
    ("check-vector-pair", "csv"):
        "1f51beb6bc79a794aa4f41fa7bf11e605dc5a4a63506fa9727b2158e62233f7e",
    ("check-vector-pair", "json"):
        "f43af9d8d2af49b024fbe6dcc9f7075ba406c99cd517d7d2b44dbd76bd057f1b",
    ("eval-vector-pair", "csv"):
        "e586bd84e5f19f662c88a967030994f28451134b7dc8d936365513beaecd31f7",
    ("eval-vector-pair", "json"):
        "eba35b08413a0132f2640b0801b364304cb6c5d14259c5c2f748845fea504116",
    ("eval-vector-pair-some-k", "csv"):
        "a459336509cc19ea04a8682d81e63d0703dadd71fd2430166e8ffb0a2c3a0209",
    ("eval-vector-pair-some-k", "json"):
        "b9293e537f5406a7b29580037806ab8e6fefc884677dff79194aa23529235fab",
    ("eval-vector", "csv"):
        "9bf6437804d978af0a02c2ade450fb6eb068909360c06e11d0c1d70c9705be1e",
    ("eval-vector", "json"):
        "de35851443bea471d25d0558a7085298bf955fdfbc8fc6d039b47aeb156676ef",
    ("eval-density", "csv"):
        "35c778c92307222d7c88c97d73acbc27b503dbb2079fe7755fd7c63d34d8bdbc",
    ("eval-density", "json"):
        "64d20a837ab9da052808cfb042439e7e2dba2d969715be55fd9467045677604f",
    ("eval-joint", "csv"):
        "c70d5554af6e08fe620091c3d0ae15f3deb0604976759f902b0214f1b70a44d7",
    ("eval-joint", "json"):
        "e2702835c3d212c54cec6fd841f6842417bbb68f8d53177cbd0153b2a51a4d37",
    ("eval-ensemble", "csv"):
        "daa7d3786653546b64e3a802fc80fb464fa1646a90e3ae639900c85c64f38fa2",
    ("eval-ensemble", "json"):
        "be8f044fb5ad287488e72a7e48fd9ac3524532b853da43f03e7f1a824be444f4",
    ("check-past-distance-one", "csv"):
        "3602dc15730c107d24e017bdfca5a8bd56a541fde3458c3f3bbaeb8a4cadff53",
    ("check-past-distance-one", "json"):
        "d7b2bb65d95a647f5e384f7a9cac2d16b880d0fa1a2e6ee8ac411caa7d472a07",
    ("check-density-pair", "csv"):
        "b1a9d5f51300c0f6a6252177e581952a47dc470f1e993232dcfb14c3d7432585",
    ("check-density-pair", "json"):
        "76556a9bc36d58677cba5d75e0326bcbc3511c9134e757c50b5b0abb6879cbf3",
    ("eval-density-pair", "csv"):
        "e14904e16b6c99a8f8e611b9dc40a9b031919186e2f0df7f54e2858bee995d5e",
    ("eval-density-pair", "json"):
        "fa799e4fb09296fbfd5ec9708a32d7b6d94630456115b64a0adabbf5e9666f4d",
    ("eval-ensemble-povm", "csv"):
        "35665f724fb8f6eb6cf8d882faf62124eec0e604e2ad6ccc7ee703fcf1ca56b8",
    ("eval-ensemble-povm", "json"):
        "e73fa053db435f628cdee7b773a0835cee86abf6b52cb69ac9918dfd90104ddc",
    ("check-ensemble-povm", "csv"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("check-ensemble-povm", "json"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("adversarial", "csv"):
        "b8769c947eaeb35f9655923d42e26047dbbd4d7f7001ba8943fe69d3315fa756",
    ("adversarial", "json"):
        "72b3987a0458c38f87025292f1d4f7de41d7d5f4b191f38b291276917dabacf9",
    ("demo-maxbounds", "csv"):
        "167606fa230390e1600a327077722245f21e6790877691dd7019ba45af067f86",
    ("demo-maxbounds", "json"):
        "5948171f350ca025c52513c9dfda1aef9722ab8be5f79bbf657dfb7b872c870f",
    ("demo-bell", "csv"):
        "9d38350b6aba6cf73cdf8dce49b46907fbbb44e059fa13a427cdcb05fe18e1a8",
    ("demo-bell", "json"):
        "6e01b3905c50202a2a9c5d4c20efc158222c2790f5a1573ed6aad2827c20f45c",
    ("demo-instability", "csv"):
        "70b8e9e4daba2e3c4eda777c68a11d2ddb98913e7e54ad4024dd4d4502a466ba",
    ("demo-instability", "json"):
        "54f981675f0041e13c5b33b8317a03f6b87f775d2379740931facc89187c7e0e",
}


class TestPinnedCommandBytes:
    """Output of every other subcommand, pinned byte for byte, with the LAPACK
    caveat of :class:`TestPinnedSweepBytes` for the density and demo rows."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", PINNED_COMMANDS)
    def test_stdout_digest(self, instance_files, capsys, name, fmt):
        argv, code = PINNED_COMMANDS[name]
        assert cli_main([instance_files.get(tok, tok) for tok in argv] + ["--format", fmt]) == code
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == PINNED_COMMAND_DIGESTS.get((name, fmt)), digest


class TestAdversarialCommand:
    def test_grid_rows(self, capsys):
        code = cli_main(["adversarial", "--alpha", "1", "--k", "1", "--eps", "0.05,0.9",
                         "--restarts", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        ok = [r for r in rows if float(r["epsilon"]) == 0.05][0]
        assert ok["satisfied"] == "true"
        assert float(ok["lhs"]) <= float(ok["rhs"])
        infeasible = [r for r in rows if float(r["epsilon"]) == 0.9][0]
        assert infeasible["applicable"] == "false"

    def test_restarts_is_inert_and_hidden(self, capsys):
        argv = ["adversarial", "--alpha", "0.5,2.5", "--k", "1,3", "--eps", "0.05,0.2", "--seed", "4"]
        outputs = []
        for extra in ([], ["--restarts", "1"], ["--restarts", "2"], ["--restarts", "500"]):
            assert cli_main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1
        assert cli_main(["adversarial", "--help"]) == 0
        assert "--restarts" not in capsys.readouterr().out

    def test_corrupted_tolerance_fails_every_applicable_cell(self, monkeypatch, capsys):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", "-1")
        assert cli_main(["adversarial", "--alpha", "0.5,2.5", "--k", "1,3", "--eps", "0.05,0.9"]) == 2
        captured = capsys.readouterr()
        rows = parse_csv(captured.out)
        assert [r["satisfied"] for r in rows if r["applicable"] == "true"] == ["false"] * 4
        assert [r["satisfied"] for r in rows if r["applicable"] == "false"] == [""] * 4
        # a violated cell is reported by its row and the exit code alone, as in every other command
        assert captured.err == ""

    @pytest.mark.parametrize("ks", ["32769", "9223372036854775808,1", "99999999999999999999"])
    def test_k_past_the_cap_is_an_input_error(self, capsys, ks):
        # refused before anything is allocated: the search's stack grows with k
        assert cli_main(["adversarial", "--k", ks]) == 1
        entry = ks.split(",")[0]
        assert capsys.readouterr() == ("", f"error: k must be an integer in [1, 32768], got {entry}\n")

    def test_rows_carry_the_exact_supremum(self, capsys):
        assert cli_main(["adversarial", "--alpha", "1", "--k", "32", "--eps", "0.05"]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert float(row["lhs"]) == bounds.adversarial_search(32, 1.0, 0.05).achieved
        assert float(row["lhs"]) >= 0.99 * float(row["rhs"])

    @pytest.mark.parametrize("value", NON_FINITE_TOLS)
    def test_non_finite_tolerance_is_an_error(self, monkeypatch, capsys, value):
        # eps = 0.9 is past the bound's threshold, so nothing is evaluated at all
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", value)
        code = cli_main(["adversarial", "--alpha", "1", "--k", "1", "--eps", "0.9",
                         "--restarts", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "ENTROPIC_SUMS_TOL" in captured.err


class TestDemoCommands:
    def test_instability_values(self, capsys):
        code = cli_main(["demo", "instability", "--eps", "1e-4"])
        out = capsys.readouterr().out
        assert code == 0
        row = parse_csv(out)[0]
        limit = 1.0 - np.log(2.0)
        assert abs(float(row["margin"]) - limit) / limit < 0.05

    def test_bell_reports(self, capsys):
        theta_pi6 = repr(np.pi / 6.0)
        theta_pi4 = repr(np.pi / 4.0)
        code = cli_main(["demo", "bell", "--theta", f"{theta_pi6},{theta_pi4}", "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "commuting=False" in captured.err          # pi/6 case
        assert "commuting=True, products_distinct=False" in captured.err  # pi/4 case
        assert "reduced eigenvalues (0.75, 0.25)" in captured.err
        rows = parse_csv(captured.out)
        pi6_rows = [r for r in rows if "0.5235" in r["experiment"]]
        assert all(float(r["rhs"]) < 1e-12 for r in pi6_rows)   # joint sums vanish
        assert all(float(r["lhs"]) > 1e-3 for r in pi6_rows)    # reduced sums do not
        assert all(r["applicable"] == "false" for r in rows)

    def test_maxbounds(self, capsys):
        code = cli_main(["demo", "maxbounds", "--alpha", "1", "--k", "2", "--dims", "4",
                         "--restarts", "40", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        row = parse_csv(out)[0]
        assert row["satisfied"] == "true"
        assert float(row["epsilon"]) <= float(row["lhs"]) <= float(row["rhs"])

    def test_maxbounds_reports_closed_form_for_old_restarts_argv(self, capsys):
        code = cli_main(["demo", "maxbounds", "--dims", "8", "--k", "3", "--alpha", "2.5",
                         "--restarts", "10", "--seed", "11"])
        row = parse_csv(capsys.readouterr().out)[0]
        assert code == 0
        assert row["satisfied"] == "true"
        assert float(row["lhs"]) == max_partial_sum(8, 3, 2.5)
        assert cli_main(["demo", "maxbounds", "--help"]) == 0
        assert "--restarts" not in capsys.readouterr().out

    def test_maxbounds_single_point_is_not_applicable(self, capsys):
        code = cli_main(["demo", "maxbounds", "--dims", "1", "--k", "1"])
        row = parse_csv(capsys.readouterr().out)[0]
        assert code == 0
        assert (row["lhs"], row["applicable"], row["satisfied"]) == ("0", "false", "")

    def test_maxbounds_k_fitting_no_dim_is_an_error(self, capsys):
        code = cli_main(["demo", "maxbounds", "--dims", "2", "--k", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "k=3" in captured.err

    @pytest.mark.parametrize("argv", [["--dims", "99999999999999999999"], ["--dims", "65537", "--k", "1"],
                                      ["--dims", "4,65537", "--k", "all"]])
    def test_maxbounds_dimension_past_the_cap_is_an_input_error(self, capsys, argv):
        assert cli_main(["demo", "maxbounds", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: dimension must be an integer in [1, {cli.MAXBOUNDS_MAX_DIM}], "
                                f"got {argv[1].split(',')[-1]}\n")

    @pytest.mark.parametrize("dims", ["0", "-3", "4,0"])
    def test_dimension_below_one_is_an_error(self, capsys, dims):
        for command in (["demo", "maxbounds"], ["sweep", "--trials", "1"]):
            assert cli_main(command + ["--dims", dims]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "dimension" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_maxbounds_at_an_order_whose_power_of_k_overflows(self, capsys):
        # k ** alpha is past the float range: the relative error cap is its limit, 0
        assert cli_main(["demo", "maxbounds", "--alpha", "1e300", "--dims", "3"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [(r["k"], r["lhs"], r["rhs"], r["satisfied"]) for r in rows[1:]] == [
            ("2", "1e-300", "1e-300", "true"), ("3", "1e-300", "1e-300", "true")]
        assert max_partial_bounds(2, 1e300)[2] == 0.0

    def test_maxbounds_single_point_at_high_order_prints_plain_zero(self, capsys):
        assert cli_main(["demo", "maxbounds", "--dims", "1", "--k", "1", "--alpha", "2.5"]) == 0
        assert parse_csv(capsys.readouterr().out)[0]["lhs"] == "0"

    def test_bell_k_out_of_range_is_an_error(self, capsys):
        assert cli_main(["demo", "bell", "--k", "3"]) == 1
        assert "k=3" in capsys.readouterr().err


class TestFormatsAndErrors:
    def test_json_format(self, prob_files, capsys):
        code = cli_main(["check", *prob_files, "--alpha", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        objs = [json.loads(line) for line in out.strip().split("\n")]
        assert all(o["experiment"] == "check_classical" for o in objs)
        assert all(isinstance(o["satisfied"], (bool, type(None))) for o in objs)

    def test_eval_k_out_of_range_is_an_error(self, prob_files, capsys):
        assert cli_main(["eval", *prob_files, "--k", "0,1"]) == 1
        assert "k=0" in capsys.readouterr().err

    def test_missing_file(self):
        assert cli_main(["eval", "/nonexistent/file.json"]) == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["eval", str(bad)]) == 1

    def test_unknown_kind(self, tmp_path):
        bad = write_json(tmp_path / "odd.json", {"kind": "mystery"})
        assert cli_main(["eval", bad]) == 1

    def test_unknown_flag(self):
        assert cli_main(["sweep", "--bogus", "1"]) == 1

    def test_no_command(self):
        assert cli_main([]) == 1

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["check", "P", "Q", "--k", ","], ["eval", "P", "Q", "--k", ","], ["sweep", "--k", ","],
        ["adversarial", "--k", ","], ["demo", "maxbounds", "--k", ","], ["demo", "bell", "--k", ","],
        ["check", "P", "Q", "--alpha", ","], ["adversarial", "--eps", ","], ["sweep", "--dims", ","],
        ["demo", "maxbounds", "--dims", ""], ["demo", "instability", "--eps", ","],
        ["demo", "bell", "--theta", ","],
    ], ids=" ".join)
    def test_empty_list_is_a_usage_error(self, prob_files, capsys, argv):
        files = {"P": prob_files[0], "Q": prob_files[1]}
        assert cli_main([files.get(tok, tok) for tok in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err and "comma-separated list" in captured.err

    @pytest.mark.parametrize("text", [
        '{"kind": "density", "dim": null, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        '{"kind": "density", "dim": 1e400, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        '{"kind": "density", "dim": 2.5, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}',
        '{"kind": "joint", "rows": [2], "cols": 2, "values": [[0.1, 0.2], [0.3, 0.4]]}',
        '{"kind": "prob_vector", "values": {"a": 1}}',
        "[" * 100000,
    ], ids=["dim-null", "dim-overflow", "dim-fraction", "rows-list", "values-object", "deep-nesting"])
    def test_malformed_instance_is_an_input_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli_main(["eval", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_dimension_mismatch_files(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"kind": "prob_vector", "values": [1.0]})
        b = write_json(tmp_path / "b.json", {"kind": "prob_vector", "values": [0.5, 0.5]})
        assert cli_main(["check", a, b]) == 1
        assert capsys.readouterr().err == "error: dimension mismatch: 1 vs 2\n"
        rho, sigma = (write_json(tmp_path / f"d{d}.json", {"kind": "density", "dim": d, "re": (np.eye(d) / d).tolist(),
                                                            "im": np.zeros((d, d)).tolist()}) for d in (3, 2))
        assert cli_main(["check", rho, sigma]) == 1
        assert capsys.readouterr().err == "error: dimension mismatch: 3 vs 2\n"


class TestOutFile:
    """``--out`` is written beside its target and renamed over it when done."""

    def test_missing_directory_is_an_input_error(self, prob_files, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["check", *prob_files, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and str(out) in captured.err
        assert "Traceback" not in captured.err
        assert not out.parent.exists()

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert cli_main(["sweep", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write {tmp_path}: Is a directory\n")

    def test_failed_run_leaves_an_existing_file_untouched(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_text("earlier run\n")
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("second chunk failed")
            return bounds.pair_checks(*args, **kwargs)

        monkeypatch.setattr(cli, "SWEEP_CHUNK", 1)
        monkeypatch.setattr(cli.bounds, "pair_checks", failing)
        assert cli_main(["sweep", "--dims", "2", "--trials", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: second chunk failed\n"
        assert out.read_text() == "earlier run\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_success_replaces_the_file_and_leaves_no_temporary(self, prob_files, tmp_path, capsys):
        out = tmp_path / "results" / "out.csv"
        out.parent.mkdir()
        out.write_text("earlier run\n")
        assert cli_main(["check", *prob_files]) == 0
        expected = capsys.readouterr().out
        assert cli_main(["check", *prob_files, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == expected
        assert os.listdir(out.parent) == ["out.csv"]

    def test_symlink_is_written_through(self, prob_files, tmp_path, capsys):
        folder = tmp_path / "results"
        folder.mkdir()
        (folder / "real.csv").write_text("earlier run\n")
        (folder / "link.csv").symlink_to("real.csv")
        assert cli_main(["check", *prob_files, "--out", str(folder / "link.csv")]) == 0
        assert (folder / "link.csv").is_symlink()
        assert (folder / "real.csv").read_text().startswith(CSV_HEADER)
        assert sorted(os.listdir(folder)) == ["link.csv", "real.csv"]


class TestSweepChunks:
    """``sweep`` runs in chunks of ``SWEEP_CHUNK`` trials; the output and the
    exit code do not depend on the chunk size."""

    ARGV = ["sweep", "--alpha", "0.5,1,3", "--dims", "2,4,8,1", "--k", "1,2,8", "--trials", "7",
            "--seed", "5"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_output_is_that_of_one_chunk(self, monkeypatch, capsys, fmt, chunk):
        assert cli.SWEEP_CHUNK >= 7
        assert cli_main(self.ARGV + ["--format", fmt]) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
        assert cli_main(self.ARGV + ["--format", fmt]) == 0
        assert capsys.readouterr().out == whole

    def test_violation_in_a_middle_chunk_sets_the_exit_code(self, monkeypatch, capsys):
        # at seed 14267 only trial 1 has checks that apply; with ENTROPIC_SUMS_TOL
        # at -1 every check that applies is violated
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", "-1")
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 1)
        argv = ["sweep", "--alpha", "1", "--dims", "2", "--k", "2", "--seed", "14267", "--trials", "3"]
        assert cli_main(argv) == 2
        verdicts = [r["satisfied"] for r in parse_csv(capsys.readouterr().out)]
        assert verdicts == ["", "", "false", "false", "", ""]
        assert cli_main(argv[:-1] + ["1"]) == 0


#: The package's source directory, for the fresh ``python -m entropic_sums`` processes.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


class TestParserReuse:
    """``cli_main`` builds its parser once per process and reuses it, so no
    call may leave state in the parser that a later call sees."""

    def test_parser_is_built_once(self, prob_files, monkeypatch, capsys):
        assert cli_main(["demo", "instability"]) == 0
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        for argv in (["eval", prob_files[0]], ["sweep", "--trials", "2"], ["demo", "maxbounds"]):
            assert cli_main(argv) == 0
        assert calls == []
        # the count does see a parser being built
        cli._build_parser.__wrapped__()
        assert len(calls) > 0

    def test_every_default_is_immutable(self):
        def defaults(parser):
            yield from parser._defaults.values()
            for action in parser._actions:
                yield action.default
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from defaults(sub)

        values = list(defaults(cli._build_parser()))
        assert len(values) > 30
        assert all(isinstance(v, (type(None), str, int, float, types.FunctionType)) for v in values)

    def test_list_options_parse_to_fresh_lists(self):
        parser = cli._build_parser()
        first, second = (parser.parse_args(["sweep", "--alpha", "1,2", "--dims", "3"]) for _ in range(2))
        assert first.alpha == second.alpha == [1.0, 2.0] and first.alpha is not second.alpha
        assert first.dims is not second.dims

    def test_reuse_matches_fresh_processes(self, density_files, monkeypatch, capsys):
        # non-default options, a usage error, help and a bare group first; then defaults
        sequence = [
            ["adversarial", "--alpha", "2.5", "--k", "4", "--eps", "0.05"],
            ["sweep", "--k", "1", "--dims", "8", "--format", "json"],
            ["sweep", "--k", ","],
            ["--help"],
            ["demo"],
            ["adversarial"],
            ["sweep", "--trials", "3"],
            ["demo", "maxbounds"],
            ["check", *density_files],
        ]
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        for argv in sequence:
            code = cli_main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "entropic_sums", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestLeafDispatch:
    """A command line that opens with a subcommand's words is parsed by that
    subcommand's own parser alone, with the same outcome as through the
    top-level parser."""

    LINES = [
        "eval P", "eval P Q --alpha 0.5,1 --k 1", "eval R S --format json", "eval",
        "check P Q", "check R S --alph 1", "check P Q --alpha=2,3", "check P Q --bogus 1",
        "check P Q P", "check -- P Q", "check P",
        "sweep --trials 2 --dims 2", "sweep --trials x", "sweep --trials 1 --dims 2 --seed -1",
        "adversarial", "adversarial --alpha 2.5 --k 1,2 --eps 0.05", "adversarial --restarts 2 --k 1",
        "adversarial --eps", "adversarial extra", "adversarial --he",
        "demo instability", "demo instability --eps 1e-2", "demo bell --alpha 1,3", "demo bell --theta",
        "demo maxbounds", "demo maxbounds --alpha 0.5 --k 2 --dims 4", "demo maxbounds --dims 4 extra",
        "--help", "-h", "eval --help", "check -h", "sweep --help", "adversarial -h", "demo --help",
        "demo -h", "demo instability --help", "demo bell -h", "demo maxbounds --help",
        "demo", "", "frobnicate", "demo frobnicate", "--seed 1 adversarial",
        # plain-shape edge cases: the first four and the last two are plain lines
        "adversarial --k 1 --seed -1", "demo instability --eps -0.5", "adversarial --k 1 --k 2 --eps 0.05",
        "sweep --trials 1 --k all", "adversarial --eps -1e-3", "adversarial --k 1 --format ''",
        "adversarial --k 1 --format xml", "check --alpha 1 P Q", "demo bell --theta 0.5 --format json",
        "check P Q --seed 2 --k 1",
    ]

    def run(self, lines, files, capsys):
        outcomes = []
        for line in lines:
            code = cli_main([files.get(word, word) for word in shlex.split(line)])
            outcomes.append((line, code, *capsys.readouterr()))
        return outcomes

    def test_leaf_parse_matches_the_top_level_parse(self, prob_files, density_files, monkeypatch, capsys):
        files = dict(zip("PQRS", (*prob_files, *density_files)))
        monkeypatch.setenv("COLUMNS", "80")
        leaf = self.run(self.LINES, files, capsys)
        monkeypatch.setattr(cli, "_leaf_parsers", dict)
        assert self.run(self.LINES, files, capsys) == leaf
        assert {code for _, code, *_ in leaf} == {0, 1}

    def test_every_subcommand_is_a_leaf(self):
        assert set(cli._leaf_parsers()) == {("eval",), ("check",), ("sweep",), ("adversarial",),
                                            ("demo", "instability"), ("demo", "bell"), ("demo", "maxbounds")}

    @pytest.mark.parametrize("line", SUBCOMMAND_LINES)
    def test_a_subcommand_line_is_parsed_once(self, prob_files, monkeypatch, capsys, line):
        # a plain line is read from the leaf's table with no argparse parse; any other
        # line is parsed by the leaf's parser alone, exactly once
        cli._leaf_parsers()  # the table is built (with one parse per leaf) before counting
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        argv = [{"P": prob_files[0], "Q": prob_files[1]}.get(word, word) for word in line.split()]
        assert cli_main(argv) == 0
        assert calls == []
        for tail in (["--alpha=1"], ["--alph", "1"], ["--help"]):
            assert cli_main(argv + tail) in (0, 1)
            assert calls == [f"entropic-sums {' '.join(argv[:2 if argv[0] == 'demo' else 1])}"]
            calls.clear()

    #: Values each of some option takes, then values that look like an option or fail every type.
    VALUES = ["1", "2", "0.5", "1,2", "-1", "-0.5", "all", "csv", "json", "f.csv"]
    BAD_VALUES = ["-1e-3", "", "x", "xml", "nan", "1,,2", ",", "--", "-x", "a b", "0"]

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_a_plain_line_reads_as_its_leaf_parses_it(self, data):
        words = data.draw(st.sampled_from(sorted(cli._leaf_parsers())))
        leaf, names, table = cli._leaf_parsers()[words]
        vocabulary = sorted({s for a in leaf._actions for s in a.option_strings})
        inputs = ["P"] * {("eval",): 1, ("check",): 2}.get(words, 0)
        options = st.sampled_from([s for s in vocabulary if s not in ("-h", "--help")] * 3 + ["-h", "--help"])
        pairs = data.draw(st.lists(st.tuples(options, st.sampled_from(self.VALUES)), max_size=3))
        line = inputs + [word for pair in pairs for word in pair]
        if data.draw(st.integers(0, 2)) == 0:  # one more word anywhere: malformed, misplaced or one too many
            malformed = ["--alph", "--alpha=1", "--k=2", "--", "-x", "--bogus"]
            word = data.draw(st.sampled_from(malformed + self.BAD_VALUES + vocabulary + self.VALUES))
            line.insert(data.draw(st.integers(0, len(line))), word)
        fast = cli._plain(leaf, table, line)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                parsed = leaf.parse_args(line, argparse.Namespace(**names))
        except (cli._UsageError, SystemExit):
            parsed = None  # rejected, or help
        if fast is not None:  # compared by repr, as nan != nan
            assert parsed is not None and repr(sorted(vars(fast).items())) == repr(sorted(vars(parsed).items()))


class TestEverySubcommand:
    """Checks on the seed and the tolerance that each subcommand makes before any output."""

    def run(self, line, prob_files):
        return cli_main([{"P": prob_files[0], "Q": prob_files[1]}.get(word, word) for word in line.split()])

    @pytest.mark.parametrize("line", SUBCOMMAND_LINES)
    def test_negative_seed_is_an_input_error(self, prob_files, capsys, line):
        assert self.run(line + " --seed -1", prob_files) == 1
        assert capsys.readouterr() == ("", "error: seed must be a nonnegative integer, got -1\n")

    @pytest.mark.parametrize("value", NON_FINITE_TOLS)
    @pytest.mark.parametrize("line", SUBCOMMAND_LINES)
    def test_non_finite_tolerance_is_an_input_error(self, prob_files, monkeypatch, capsys, line, value):
        monkeypatch.setenv("ENTROPIC_SUMS_TOL", value)
        assert self.run(line, prob_files) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ENTROPIC_SUMS_TOL must be a finite number")


def never(lhs, rhs, tol=None):
    """A verdict function that finds every inequality violated."""
    return np.zeros(np.shape(lhs), bool) if np.ndim(lhs) else False


class TestVerdictRouting:
    """Every verdict a command prints comes from ``bounds.holds``."""

    @pytest.mark.parametrize("argv", [
        PINNED_COMMANDS["check-vector-pair"][0], PINNED_COMMANDS["check-density-pair"][0],
        ["sweep", "--alpha", "0.5,1,3", "--dims", "2,4", "--trials", "5"],
        PINNED_COMMANDS["adversarial"][0], PINNED_COMMANDS["demo-maxbounds"][0],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_a_false_verdict_fails_every_applicable_cell(self, instance_files, monkeypatch, capsys, argv):
        monkeypatch.setattr(bounds, "holds", never)
        assert cli_main([instance_files.get(tok, tok) for tok in argv]) == 2
        rows = parse_csv(capsys.readouterr().out)
        assert {r["satisfied"] for r in rows if r["applicable"] == "true"} == {"false"}
        assert {r["satisfied"] for r in rows if r["applicable"] != "true"} <= {""}

    def test_bell_decides_every_cell_with_it(self, monkeypatch, capsys):
        # no cell of the demo's states is applicable, so a false verdict would not show
        calls = []
        holds = bounds.holds

        def spy(lhs, rhs, tol=None):
            calls.append(np.size(lhs))
            return holds(lhs, rhs, tol)

        monkeypatch.setattr(bounds, "holds", spy)
        assert cli_main(["demo", "bell", "--alpha", "0.5,1,2.5"]) == 0
        assert sum(calls) == len(parse_csv(capsys.readouterr().out)) == 12


@pytest.fixture
def instance_files(tmp_path, prob_files, density_files):
    """Placeholder name -> path, for argv lists that name their input files."""
    return {
        "P": prob_files[0], "Q": prob_files[1],
        "V": write_json(tmp_path / "v.json", {"kind": "prob_vector",
                                              "values": [0.05, 0.1, 0.15, 0.2, 0.22, 0.28]}),
        "W": write_json(tmp_path / "w.json", {"kind": "prob_vector",
                                              "values": [0.3, 0.1, 0.1, 0.2, 0.2, 0.1]}),
        "FAR": write_json(tmp_path / "far.json", {"kind": "prob_vector", "values": [0.0, 1.0]}),
        "RHO": density_files[0], "SIGMA": density_files[1],
        "JOINT": write_json(tmp_path / "joint.json", {
            "kind": "joint", "rows": 2, "cols": 2, "values": [[0.1, 0.2], [0.3, 0.4]]}),
        "ENS": write_json(tmp_path / "ens.json", {
            "kind": "ensemble", "weights": [0.3, 0.7],
            "states_re": [[1.0, 0.0], [0.6, 0.8]], "states_im": [[0.0, 0.0], [0.0, 0.0]]}),
        "POVM": write_json(tmp_path / "povm.json", {
            "kind": "povm", "vectors_re": [[1.0, 0.0], [0.0, 1.0]],
            "vectors_im": [[0.0, 0.0], [0.0, 0.0]]}),
    }


#: One command per path through the row writers; "P", "RHO", ... name input files.
CROSS_FORMAT_ARGV = {
    "eval-single": ["eval", "P", "--alpha", "0.5,1,2"],
    "eval-classical-pair": ["eval", "P", "Q", "--alpha", "1,3"],
    "eval-density-pair": ["eval", "RHO", "SIGMA", "--alpha", "0.7,1"],
    "eval-joint": ["eval", "JOINT", "--alpha", "1,2"],
    "eval-ensemble-povm": ["eval", "ENS", "POVM", "--alpha", "0.5,2"],
    "check-classical": ["check", "P", "Q", "--alpha", "0.5,2"],
    "check-past-distance-one": ["check", "P", "FAR", "--alpha", "1,2"],
    "check-quantum": ["check", "RHO", "SIGMA", "--alpha", "0.5,2"],
    "sweep-duplicate-dims": ["sweep", "--alpha", "0.7,2", "--dims", "3,2,3", "--k", "1,2",
                             "--trials", "3", "--seed", "9"],
    "adversarial": ["adversarial", "--alpha", "0.5,2", "--k", "1,2", "--eps", "0.1,0.9"],
    "demo-instability": ["demo", "instability", "--eps", "1e-4,0.01"],
    "demo-bell": ["demo", "bell", "--alpha", "0.5,2"],
    "demo-maxbounds": ["demo", "maxbounds", "--dims", "1,4", "--alpha", "0.5,2.5"],
}


def same_cell(value, cell: str) -> bool:
    """Whether a parsed JSON value and a CSV cell carry the same datum."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return cell == "nan" if math.isnan(value) else float(cell) == value
    return cell == str(value)


class TestCrossFormat:
    @pytest.mark.parametrize("name", CROSS_FORMAT_ARGV)
    def test_csv_and_json_carry_the_same_rows(self, instance_files, monkeypatch, capsys, name):
        argv = [instance_files.get(tok, tok) for tok in CROSS_FORMAT_ARGV[name]]
        written = []
        write = cli._write

        def keep(batch, fmt, fh):
            batch = cli.Batch(batch.cells, list(batch.chunks))
            for chunk in batch.chunks:
                written.extend(cli._batch_rows(batch.cells, chunk))
            return write(batch, fmt, fh)

        monkeypatch.setattr(cli, "_write", keep)
        assert cli_main(argv + ["--format", "csv"]) == 0
        header, *cells = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert cli_main(argv + ["--format", "json"]) == 0
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert header == CSV_HEADER.split(",")
        assert len(objs) == len(cells) > 0
        for obj, row in zip(objs, cells):
            assert list(obj) == header
            for value, cell in zip(obj.values(), row):
                assert same_cell(value, cell), (value, cell)
        builtin = (str, int, float, bool, type(None))
        assert all(type(value) in builtin for row in written for value in row)

    def test_past_distance_one_rhs_and_margin_are_nan(self, instance_files, capsys):
        # (0.6, 0.4) against (0, 1): the partial distance is 0.6 at k = 1, 1.2 at k = 2
        argv = ["check", instance_files["P"], instance_files["FAR"], "--alpha", "1"]
        assert cli_main(argv) == 0
        near, far = parse_csv(capsys.readouterr().out)
        assert "nan" not in near.values()
        assert (far["epsilon"], far["rhs"], far["satisfied"], far["margin"]) == ("1.2", "nan", "", "nan")
        assert cli_main(argv + ["--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert '"rhs": NaN' in lines[1] and '"margin": NaN' in lines[1]
        assert "NaN" not in lines[0]


#: Floats the column-wise writer must render as fmt_cell does: signed zeros,
#: non-finite values, subnormals and values that need all 17 digits.
EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
               0.1 + 0.2, 1e16 + 2.0, 123456789.12345678, -1.0000000000000002]

CELLS = {
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True)),
    "flag": st.sampled_from([True, False, None]),
    "int": st.integers(),
    "str": st.one_of(st.text(max_size=8), st.sampled_from(["a, b", "%s", "100%", '"q"', "\u00e9\n"])),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


def rows_batch(rows: list) -> cli.Batch:
    """The one-trial batch of ``rows``, its varying fields transposed into columns."""
    columns = list(zip(*rows))[4:10] or [()] * 6
    return cli.Batch([row[:4] + row[10:] for row in rows], [tuple(columns)])


@st.composite
def report_rows(draw):
    n = draw(st.integers(0, 6))
    columns = []
    for _ in ReportRow._fields:
        kind = draw(st.sampled_from(sorted(CELLS)))
        columns.append(draw(st.lists(CELLS[kind], min_size=n, max_size=n)))
    return [ReportRow(*cells) for cells in zip(*columns)] if n else []


class TestColumnWriter:
    @settings(max_examples=300, deadline=None)
    @given(report_rows())
    def test_csv_matches_fmt_cell_per_cell(self, rows):
        buf = io.StringIO()
        cli._write(rows_batch(rows), "csv", buf)
        expected = "".join(line + "\n" for line in
                           [CSV_HEADER] + [",".join(map(fmt_cell, row)) for row in rows])
        assert buf.getvalue() == expected

    @settings(max_examples=300, deadline=None)
    @given(report_rows())
    def test_json_matches_json_dumps_per_row(self, rows):
        buf = io.StringIO()
        cli._write(rows_batch(rows), "json", buf)
        expected = "".join(json.dumps(dict(zip(ReportRow._fields, row))) + "\n" for row in rows)
        assert buf.getvalue() == expected

    def test_chunks_of_several_trials_match_the_per_row_references(self):
        # fixed fields holding "%", a comma, a non-ASCII string, -0.0 and NaN
        # are repeated in every trial; epsilon, rhs and margin hold only floats
        cells = [("100%", -0.0, 1, 2, "%s"), ("a, b", math.nan, 2, 2, "\u00e9"), ("x", 0.5, None, 3, 7)]

        def chunk(trials):
            n = trials * len(cells)
            return ([0.1 * i for i in range(n)], [None] * n, [-0.0, 1e-300, math.inf] * trials,
                    [True, False, None] * trials, [False, None, True] * trials, [math.nan] + [1.5] * (n - 1))

        chunks = [chunk(1), chunk(3)]
        rows = [cells[i % 3][:4] + tuple(column[i] for column in columns) + cells[i % 3][4:]
                for columns in chunks for i in range(len(columns[0]))]
        assert len(rows) == 12
        for fmt, expected in (("csv", [CSV_HEADER] + [",".join(map(fmt_cell, row)) for row in rows]),
                              ("json", [json.dumps(dict(zip(ReportRow._fields, row))) for row in rows])):
            buf = io.StringIO()
            assert cli._write(cli.Batch(cells, chunks), fmt, buf)  # applicable and not satisfied in row 1
            assert buf.getvalue() == "".join(line + "\n" for line in expected)

    @pytest.mark.parametrize("column", [[[1.5, 2], -0.0], [(3, "a, b")], [{"k": [1, 2]}, None], ["x, y", 7], []])
    def test_json_column_of_containers_matches_json_dumps(self, column):
        assert json_column(column) == list(map(json.dumps, column))
