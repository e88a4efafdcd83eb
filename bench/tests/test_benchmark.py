"""Tests of the benchmark itself: its workloads run, and its row checks accept
exact rows and reject wrong ones.

Run with ``python3 -m pytest bench/tests``; the repository's default test run
does not collect them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from entropic_sums import cli  # noqa: E402


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _csv(rows):
    names = checks.HEADER.split(",")
    return "\n".join([checks.HEADER] + [",".join(_cell(r[n]) for n in names) for r in rows]) + "\n"


def _bound_row(experiment, alpha, k, dim, eps, lhs):
    rhs = reference.fannes_rhs(eps, k, alpha)
    applicable = eps <= reference.fannes_threshold(k, alpha)
    return {"experiment": experiment, "alpha": alpha, "k": k, "dim": dim, "epsilon": eps,
            "lhs": lhs, "rhs": rhs, "applicable": applicable,
            "satisfied": True if applicable else None, "margin": rhs - lhs, "seed": 7}


def _sweep_rows():
    """One trial of a sweep over dims (2,) and alphas (0.5,), from the reference."""
    return [_bound_row("sweep_classical", 0.5, 1, 2, 0.01, 0.001),
            _bound_row("sweep_classical", 0.5, 2, 2, 0.02, 0.002),
            _bound_row("sweep_quantum", 0.5, 1, 2, 0.2, 0.01),
            _bound_row("sweep_quantum", 0.5, 2, 2, 0.3, 0.02)]


def _check_sweep(rows):
    return checks.check_sweep(_csv(rows), 1, (0.5,), (2,))


def _maxbounds_row(m, k, alpha):
    lower, upper = reference.max_bracket(k, alpha)
    found = reference.max_partial_sum(m, k, alpha)
    return {"experiment": "demo_maxbounds", "alpha": alpha, "k": k, "dim": m, "epsilon": lower,
            "lhs": found, "rhs": upper, "applicable": True, "satisfied": True,
            "margin": upper - found, "seed": 3}


def _eval_rows(p, q, alphas):
    """Rows of ``eval`` on two distributions, from the reference."""
    rows = []
    for name, v in (("a", p), ("b", q)):
        for alpha in alphas:
            for k, s in enumerate(reference.partial_sums(v, alpha), start=1):
                rows.append({"experiment": f"eval_classical_partial_sum_{name}", "alpha": alpha,
                             "k": k, "dim": len(p), "lhs": s})
    diffs = sorted((abs(a - b) for a, b in zip(p, q)), reverse=True)
    for k in range(1, len(p) + 1):
        rows.append({"experiment": "eval_partial_distance", "k": k, "dim": len(p),
                     "epsilon": sum(diffs[:k])})
    return rows


def _jsonl(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


class TestRowChecks:
    def test_exact_sweep_rows_pass(self):
        assert _check_sweep(_sweep_rows()) == 4

    @pytest.mark.parametrize("field", ["rhs", "epsilon"])
    def test_perturbed_sweep_row_fails(self, field):
        rows = _sweep_rows()
        rows[1][field] += 1e-10
        with pytest.raises(checks.CheckError):
            _check_sweep(rows)

    def test_unsatisfied_row_fails(self):
        rows = _sweep_rows()
        rows[0]["satisfied"] = False
        with pytest.raises(checks.CheckError):
            _check_sweep(rows)

    @pytest.mark.parametrize("rows", [_sweep_rows()[:3], _sweep_rows() + _sweep_rows()[:1]])
    def test_wrong_row_count_fails(self, rows):
        with pytest.raises(checks.CheckError):
            _check_sweep(rows)

    @pytest.mark.parametrize("m,k,alpha", [(4, 1, 0.5), (6, 2, 1.0), (8, 3, 2.5), (3, 3, 5.0)])
    def test_exact_maxbounds_row_passes(self, m, k, alpha):
        assert checks.check_maxbounds(_csv([_maxbounds_row(m, k, alpha)]), m, k, alpha) == 1

    @pytest.mark.parametrize("field,delta", [("rhs", 1e-10), ("epsilon", -1e-10), ("lhs", 1e-8)])
    def test_perturbed_maxbounds_row_fails(self, field, delta):
        row = _maxbounds_row(6, 2, 1.0)
        row[field] += delta
        with pytest.raises(checks.CheckError):
            checks.check_maxbounds(_csv([row]), 6, 2, 1.0)

    def test_maxbounds_unsatisfied_or_doubled_fails(self):
        row = _maxbounds_row(6, 2, 1.0)
        with pytest.raises(checks.CheckError):
            checks.check_maxbounds(_csv([row, row]), 6, 2, 1.0)
        row["satisfied"] = False
        with pytest.raises(checks.CheckError):
            checks.check_maxbounds(_csv([row]), 6, 2, 1.0)

    def test_adversarial_row(self):
        row = _bound_row("adversarial", 2.5, 2, 2, 0.1, 0.05)
        assert checks.check_adversarial(_csv([row]), 2.5, 2, 0.1) == 1
        row["rhs"] += 1e-10
        with pytest.raises(checks.CheckError):
            checks.check_adversarial(_csv([row]), 2.5, 2, 0.1)

    def test_eval_pair_rows(self):
        p, q = [0.5, 0.3, 0.2], [0.45, 0.35, 0.2]
        pair = workloads.Pair(p, q, "classical")
        rows = _eval_rows(p, q, (0.5, 3.0))
        assert checks.check_eval_pair(_jsonl(rows), pair, (0.5, 3.0)) == len(rows)
        rows[2]["lhs"] += 1e-10
        with pytest.raises(checks.CheckError):
            checks.check_eval_pair(_jsonl(rows), pair, (0.5, 3.0))
        with pytest.raises(checks.CheckError):
            checks.check_eval_pair(_jsonl(rows[1:]), pair, (0.5, 3.0))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_round_of_each_workload(workload, tmp_path):
    """A tiny run: one round, every op checked, only the known faults fail."""
    ops = workloads.build(workload, 5, str(tmp_path))
    r = run.Run(cli, ops)
    r.round()
    assert r.unexpected == []
    assert r.failed == sum(op.fault is not None for op in ops)
    assert r.rows > 0


def test_traced_round_counts_every_layer(tmp_path):
    ops = workloads.build("sweep", 5, str(tmp_path))[:1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        r = run.Run(cli, ops)
        r.round(tracer)
    finally:
        tracer.uninstall()
    assert r.unexpected == []
    metrics = tracer.layer_metrics(1)
    for name in tracing.MODULES:
        assert metrics[f"{name}.calls_per_op"][0] > 0
        assert metrics[f"{name}.self_ms_per_op"][0] > 0
    assert metrics["quantum.linalg_matrices_per_op"][0] > 0
    assert cli.cli_main.__name__ == "cli_main" and not hasattr(cli.cli_main, "__wrapped__")


def test_fails_without_package_source(tmp_path):
    """In a directory holding only the benchmark, the command fails and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_results",
                                                                             "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
