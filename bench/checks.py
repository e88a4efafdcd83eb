"""Row parsing and the output checks of every benchmark op.

Each ``check_*`` function takes the text one CLI command printed and the facts
the op was built from, and raises :class:`CheckError` on the first row that
disagrees with the mpmath reference or with a property the method must have.
It returns the number of rows checked.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

HEADER = "experiment,alpha,k,dim,epsilon,lhs,rhs,applicable,satisfied,margin,seed"
FLOATS = ("alpha", "epsilon", "lhs", "rhs", "margin")
INTS = ("k", "dim", "seed")
BOOLS = ("applicable", "satisfied")

#: Agreement with the reference for values of order 1.
REF_TOL = 1e-12


class CheckError(AssertionError):
    """An output row disagrees with the reference or a required property."""


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise CheckError(f"missing CSV header, got {lines[:1]!r}")
    names = HEADER.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise CheckError(f"malformed CSV row {line!r}")
        row = dict(zip(names, cells))
        for f in FLOATS:
            row[f] = float(row[f]) if row[f] else None
        for f in INTS:
            row[f] = int(row[f]) if row[f] else None
        for f in BOOLS:
            row[f] = {"true": True, "false": False, "": None}[row[f]]
        rows.append(row)
    return rows


def parse_json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _fail(row, what):
    raise CheckError(f"{what}: {row}")


def _close(row, field, ref, tol=REF_TOL):
    if not abs(row[field] - ref) <= tol:
        _fail(row, f"{field} differs from the reference {ref!r} by {row[field] - ref:.3e}")


def _count(rows, expected):
    if len(rows) != expected:
        raise CheckError(f"expected {expected} rows, got {len(rows)}")


def check_bound_row(row: dict) -> None:
    """A continuity-bound verdict row: rhs and applicability as the reference
    gives them at the row's own distance, every applicable cell satisfied, and
    margin = rhs - lhs. Past distance 1 the bound is undefined (rhs NaN)."""
    eps, k, alpha = row["epsilon"], row["k"], row["alpha"]
    if eps > 1.0:
        if not (math.isnan(row["rhs"]) and row["applicable"] is False and row["satisfied"] is None):
            _fail(row, "a distance beyond 1 must give rhs NaN and no verdict")
        return
    _close(row, "rhs", reference.fannes_rhs(eps, k, alpha))
    threshold = reference.fannes_threshold(k, alpha)
    if abs(eps - threshold) > REF_TOL and row["applicable"] != (eps <= threshold):
        _fail(row, f"applicable disagrees with the threshold {threshold!r}")
    if row["satisfied"] is not (True if row["applicable"] else None):
        _fail(row, "an applicable cell must be satisfied and any other cell unjudged")
    if not abs(row["margin"] - (row["rhs"] - row["lhs"])) <= 1e-15:
        _fail(row, "margin is not rhs - lhs")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_sweep(text: str, trials: int, alphas, dims) -> int:
    """Rows of one ``sweep`` command: the count, every bound row, and epsilon
    nondecreasing in k up to at most 1 at k = dim in every (pair, alpha) block."""
    rows = parse_csv(text)
    _count(rows, trials * sum(2 * len(alphas) * d for d in dims))
    for row in rows:
        if row["experiment"] not in ("sweep_classical", "sweep_quantum"):
            _fail(row, "unexpected experiment")
        check_bound_row(row)
    for i, row in enumerate(rows):
        k, dim = row["k"], row["dim"]
        if k != (1 if i == 0 or rows[i - 1]["k"] == rows[i - 1]["dim"] else rows[i - 1]["k"] + 1):
            _fail(row, "k does not run 1..dim within a block")
        if k > 1 and row["epsilon"] < rows[i - 1]["epsilon"] - 1e-15:
            _fail(row, "epsilon decreases in k")
        if k == dim and row["epsilon"] > 1.0 + REF_TOL:
            _fail(row, "full distance of a near pair exceeds 1")
    return len(rows)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


class PairFacts:
    """Reference data for one pair of input files, computed from the file
    values with the benchmark's own numpy calls and the mpmath reference."""

    def __init__(self, a, b, kind: str):
        self.kind = kind
        if kind == "classical":
            self.spec_a, self.spec_b = np.asarray(a), np.asarray(b)
            diff = np.sort(np.abs(self.spec_a - self.spec_b))[::-1]
        else:
            self.spec_a, self.spec_b = _spectrum(a), _spectrum(b)
            diff = np.linalg.svd(a - b, compute_uv=False)
        self.dim = self.spec_a.size
        self.distance = np.cumsum(diff)  # distance at k = index + 1
        self._sums: dict = {}

    def partial_sums(self, alpha: float):
        if alpha not in self._sums:
            self._sums[alpha] = (reference.partial_sums(self.spec_a, alpha),
                                 reference.partial_sums(self.spec_b, alpha))
        return self._sums[alpha]


def pair_facts(pair) -> PairFacts:
    """The facts of a ``workloads.Pair``, computed once per pair."""
    if pair.facts is None:
        pair.facts = PairFacts(pair.a, pair.b, pair.kind)
    return pair.facts


def _spectrum(matrix: np.ndarray) -> np.ndarray:
    vals = np.clip(np.linalg.eigvalsh(matrix), 0.0, None)
    return vals / vals.sum()


def _check_sums(rows, facts: PairFacts, suffix: str, alphas) -> None:
    _count(rows, len(alphas) * facts.dim)
    for row in rows:
        sums_a, sums_b = facts.partial_sums(row["alpha"])
        _close(row, "lhs", (sums_a if suffix == "a" else sums_b)[row["k"] - 1])


def check_eval_pair(text: str, pair, alphas) -> int:
    """Rows of ``eval`` on two distributions or two density operators."""
    facts = pair_facts(pair)
    rows = parse_json_lines(text)
    d, kind = facts.dim, facts.kind
    _count(rows, 2 * len(alphas) * d + d + (d + 1 if kind == "quantum" else 0))
    by_exp: dict[str, list] = {}
    for row in rows:
        by_exp.setdefault(row["experiment"], []).append(row)
    for suffix in ("a", "b"):
        _check_sums(by_exp.get(f"eval_{kind}_partial_sum_{suffix}", []), facts, suffix, alphas)
    dist_name = "eval_partial_distance" if kind == "classical" else "eval_kyfan_distance"
    distances = by_exp.get(dist_name, [])
    _count(distances, d)
    for row in distances:
        _close(row, "epsilon", facts.distance[row["k"] - 1])
    if kind == "quantum":
        fid = [row["lhs"] for row in sorted(by_exp.get("eval_partial_fidelity", []),
                                            key=lambda r: r["k"])]
        _count(fid, d + 1)
        if any(fid[k + 1] > fid[k] + REF_TOL for k in range(d)):
            raise CheckError(f"partial fidelities increase in k: {fid}")
        if fid[d] > REF_TOL:
            raise CheckError(f"partial fidelity at k = d is {fid[d]}, not 0")
        for row in distances:
            if 2.0 * (1.0 - fid[row["k"]]) < row["epsilon"] - 1e-9:
                _fail(row, f"2(1 - F_k) = {2.0 * (1.0 - fid[row['k']])} below the Ky Fan distance")
    return len(rows)


def check_check_pair(text: str, pair, alphas) -> int:
    """Rows of ``check`` on a pair: lhs is the partial-sum difference, epsilon
    the distance (or its fidelity substitute), and each row a bound row."""
    facts = pair_facts(pair)
    rows = parse_json_lines(text)
    d = facts.dim
    per_cell = 1 if facts.kind == "classical" else 2
    _count(rows, per_cell * len(alphas) * d)
    for row in rows:
        sums_a, sums_b = facts.partial_sums(row["alpha"])
        k = row["k"]
        _close(row, "lhs", abs(sums_a[k - 1] - sums_b[k - 1]))
        if row["experiment"] == "check_fidelity":
            if row["epsilon"] < facts.distance[k - 1] - 1e-9:
                _fail(row, "fidelity distance below the Ky Fan distance")
        else:
            _close(row, "epsilon", facts.distance[k - 1])
        check_bound_row(row)
    return len(rows)


def check_povm_refinement(text: str, dim: int, alphas) -> int:
    """Rows of ``eval`` on an ensemble and a POVM: the refined partial sum
    dominates the quantum one."""
    rows = parse_json_lines(text)
    _count(rows, len(alphas) * dim)
    for row in rows:
        if row["experiment"] != "eval_povm_refinement" or not row["margin"] >= -1e-10:
            _fail(row, "POVM refinement margin below -1e-10")
        if not abs(row["margin"] - (row["rhs"] - row["lhs"])) <= 1e-15:
            _fail(row, "margin is not rhs - lhs")
    return len(rows)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def check_adversarial(text: str, alpha: float, k: int, eps: float) -> int:
    """One ``adversarial`` row: a positive gap within the bound, and the bound
    as the reference gives it."""
    rows = parse_csv(text)
    _count(rows, 1)
    row = rows[0]
    if (row["alpha"], row["k"], row["epsilon"]) != (alpha, k, eps):
        _fail(row, "row is not for the requested cell")
    if not (row["satisfied"] is True and 0.0 < row["lhs"] <= row["rhs"] + 1e-9):
        _fail(row, "adversarial gap must be positive, within the bound, and satisfied")
    _close(row, "rhs", reference.fannes_rhs(eps, k, alpha))
    return 1


def check_maxbounds(text: str, m: int, k: int, alpha: float) -> int:
    """One ``demo maxbounds`` row: the bracket ends as the reference gives
    them, and the maximum found within [M - 1e-6, M + 1e-9] of the closed form."""
    rows = parse_csv(text)
    _count(rows, 1)
    row = rows[0]
    if (row["alpha"], row["k"], row["dim"]) != (alpha, k, m):
        _fail(row, "row is not for the requested cell")
    lower, upper = reference.max_bracket(k, alpha)
    _close(row, "epsilon", lower)
    _close(row, "rhs", upper)
    best = reference.max_partial_sum(m, k, alpha)
    if not best - 1e-6 <= row["lhs"] <= best + 1e-9:
        _fail(row, f"maximum found is {best - row['lhs']:.3e} below the closed form {best!r}")
    if row["satisfied"] is not True:
        _fail(row, "maxbounds row not satisfied")
    return 1
