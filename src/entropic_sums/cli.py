"""Command-line front end: evaluation, pair checks, randomized sweeps,
adversarial tightness runs, and the worked demos.

Exit codes: 0 when everything checked is satisfied or not evaluated, 2 when
any applicable bound is violated, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bounds, sampling
from .classical import (
    JointDistribution,
    ProbVector,
    instability_example,
    max_partial_bounds,
    max_partial_sum,
    partial_distances,
    partial_sums,
)
from .quantum import (
    DensityOperator,
    PureEnsemble,
    RankOnePOVM,
    density_from_ensemble,
    ky_fan_distances,
    partial_fidelities,
    partial_trace,
    povm_joint_probs,
    product_monotonicity_preconditions,
    schmidt_pure_state,
    spectra,
)
from .serialize import fmt_column, load_instance


class ReportRow(NamedTuple):
    """One output row; the schema is fixed across all subcommands."""

    experiment: str
    alpha: float | None
    k: int | None
    dim: int | None
    epsilon: float | None
    lhs: float | None
    rhs: float | None
    applicable: bool | None
    satisfied: bool | None
    margin: float | None
    seed: int


CSV_HEADER = ",".join(ReportRow._fields)


@dataclass
class RunConfig:
    """Configuration of one randomized sweep."""

    seed: int
    trials: int
    alpha_grid: list[float]
    k_policy: str | list[int] = "all"
    dims: list[int] = field(default_factory=lambda: [4])
    tolerance: float | None = None

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.dims) == 0:
            raise ValueError("dims must name at least one dimension")
        if not self.alpha_grid or any(a <= 0 for a in self.alpha_grid):
            raise ValueError("every alpha in the grid must be positive")


def _k_range(policy, top: int) -> list[int]:
    """The requested k that fit a dimension, in the order given."""
    if policy in (None, "all"):
        return list(range(1, top + 1))
    return [k for k in policy if 1 <= k <= top]


def _k_exact(policy, dim: int) -> list[int]:
    """The requested k for one dimension; a k outside [1, dim] is an error."""
    ks = _k_range(policy, dim)
    if policy not in (None, "all") and len(ks) < len(policy):
        bad = next(k for k in policy if not 1 <= k <= dim)
        raise ValueError(f"k={bad} is outside [1, {dim}] for dimension {dim}")
    return ks


def _k_ranges(policy, dims: list[int]) -> list[list[int]]:
    """The requested k per dimension, each filtered to fit; a dimension below 1
    or a k that fits none of the dimensions is an error."""
    if any(d < 1 for d in dims):
        raise ValueError(f"every dimension must be at least 1, got {dims}")
    ranges = [_k_range(policy, d) for d in dims]
    if policy not in (None, "all"):
        fitted = {k for ks in ranges for k in ks}
        unfit = [k for k in policy if k not in fitted]
        if unfit:
            raise ValueError(f"k={unfit[0]} fits none of the dimensions {dims}")
    return ranges


def _check_rows(experiment: str, table: bounds.CheckTable, alphas, ks: list[int], dim: int,
                seed: int, at: tuple[int, ...] = ()) -> list[ReportRow]:
    """Rows of one pair's checks, order-major and k-minor; ``at`` selects the
    pair in a stacked table."""
    eps, lhs, rhs, app, sat, margin = (getattr(table, name)[at].tolist() for name in
                                       ("epsilon", "lhs", "rhs", "applicable", "satisfied", "margin"))
    return [ReportRow(experiment, alpha, k, dim, eps[i][k - 1], lhs[i][k - 1], rhs[i][k - 1],
                      app[i][k - 1], sat[i][k - 1] if app[i][k - 1] else None, margin[i][k - 1], seed)
            for i, alpha in enumerate(alphas) for k in ks]


def run_sweep(config: RunConfig) -> list[ReportRow]:
    """Randomized near-pair verification of the continuity bounds.

    Each trial draws, per ``dims`` entry, one base instance and a perturbed
    partner at a log-uniform target distance, then checks every (alpha, k)
    cell. Draw order is fixed, so equal configs give identical output. All
    draws come first; each ``dims`` entry's draws are then built, validated
    and checked as one stack, its classical and quantum pairs in one table.
    """
    dims = list(config.dims)
    alphas = config.alpha_grid
    k_lists = _k_ranges(config.k_policy, dims)
    tol = bounds.check_tolerance(config.tolerance)
    rng = np.random.default_rng(config.seed)
    # per dims entry and trial: the raw draws of one classical and one quantum pair
    classical_draws: list[list[tuple]] = [[] for _ in dims]
    quantum_draws: list[list[tuple]] = [[] for _ in dims]
    for _ in range(config.trials):
        for draws, m in zip(classical_draws, dims):
            draws.append((rng.exponential(size=m), 10.0 ** rng.uniform(-3.0, 0.0),
                          rng.exponential(size=m)))
        for draws, d in zip(quantum_draws, dims):
            draws.append((rng.standard_normal((d, d)), rng.standard_normal((d, d)),
                          10.0 ** rng.uniform(-3.0, 0.0),
                          rng.standard_normal((d, d)), rng.standard_normal((d, d))))
    tables = []
    for c_draws, q_draws in zip(classical_draws, quantum_draws):
        base, eps, fresh = map(np.array, zip(*c_draws))
        real, imag, eps_q, fresh_real, fresh_imag = map(np.array, zip(*q_draws))
        p = sampling.simplex_points(base)
        q = sampling.near_points(p, sampling.simplex_points(fresh), eps)
        rho = sampling.density_operators(real, imag)
        sigma = sampling.near_operators(rho, sampling.density_operators(fresh_real, fresh_imag), eps_q)
        tables.append(bounds.pair_checks(
            np.concatenate([p, spectra(rho)]), np.concatenate([q, spectra(sigma)]),
            np.concatenate([partial_distances(p, q), ky_fan_distances(rho, sigma)]), alphas, tol))
    rows: list[ReportRow] = []
    for t in range(config.trials):
        for experiment, at in (("sweep_classical", (t,)), ("sweep_quantum", (config.trials + t,))):
            for table, m, ks in zip(tables, dims, k_lists):
                rows += _check_rows(experiment, table, alphas, ks, m, config.seed, at)
    return rows


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _value_rows(experiment: str, values: np.ndarray, alphas, ks: list[int], dim: int,
                seed: int) -> list[ReportRow]:
    """``eval`` rows carrying one value per (alpha, k) cell in ``lhs``."""
    vals = values.tolist()
    return [ReportRow(experiment, alpha, k, dim, None, vals[i][k - 1], None, None, None, None, seed)
            for i, alpha in enumerate(alphas) for k in ks]


def _cmd_eval(args) -> list[ReportRow]:
    if len(args.inputs) > 2:
        raise ValueError("eval takes one or two input files")
    objs = [load_instance(p) for p in args.inputs]
    alphas = args.alpha or [1.0]
    seed = args.seed

    if len(objs) == 1:
        obj = objs[0]
        if isinstance(obj, ProbVector):
            experiment, probs = "eval_classical_partial_sum", obj.values
        elif isinstance(obj, DensityOperator):
            experiment, probs = "eval_quantum_partial_sum", spectra(obj)
        elif isinstance(obj, JointDistribution):
            experiment, probs = "eval_joint_partial_sum", obj.flattened().values
        elif isinstance(obj, PureEnsemble):
            experiment, probs = "eval_quantum_partial_sum", spectra(density_from_ensemble(obj))
        else:
            raise ValueError("a POVM cannot be evaluated by itself; pair it with an ensemble")
        ks = _k_exact(args.k, probs.size)
        return _value_rows(experiment, partial_sums(probs, alphas), alphas, ks, probs.size, seed)

    first, second = objs
    if isinstance(first, ProbVector) and isinstance(second, ProbVector):
        if first.dim != second.dim:
            raise ValueError("the two distributions must have equal length")
        dim = first.dim
        ks = _k_exact(args.k, dim)
        sums = partial_sums(np.stack([first.values, second.values]), alphas)
        dists = partial_distances(first, second).tolist()
        return (_value_rows("eval_classical_partial_sum_a", sums[0], alphas, ks, dim, seed)
                + _value_rows("eval_classical_partial_sum_b", sums[1], alphas, ks, dim, seed)
                + [ReportRow("eval_partial_distance", None, k, dim, dists[k - 1],
                             None, None, None, None, None, seed) for k in ks])
    if isinstance(first, DensityOperator) and isinstance(second, DensityOperator):
        if first.dim != second.dim:
            raise ValueError("the two density operators must have equal dimension")
        dim = first.dim
        ks = _k_exact(args.k, dim)
        sums = partial_sums(spectra([first, second]), alphas)
        dists = ky_fan_distances(first, second).tolist()
        fids = partial_fidelities(first, second).tolist()
        return (_value_rows("eval_quantum_partial_sum_a", sums[0], alphas, ks, dim, seed)
                + _value_rows("eval_quantum_partial_sum_b", sums[1], alphas, ks, dim, seed)
                + [ReportRow("eval_kyfan_distance", None, k, dim, dists[k - 1],
                             None, None, None, None, None, seed) for k in ks]
                + [ReportRow("eval_partial_fidelity", None, k, dim, None, fids[k],
                             None, None, None, None, seed) for k in range(0, dim + 1)])
    ens_povm = {type(first), type(second)} == {PureEnsemble, RankOnePOVM}
    if ens_povm:
        ens = first if isinstance(first, PureEnsemble) else second
        povm = first if isinstance(first, RankOnePOVM) else second
        rho = density_from_ensemble(ens)
        joint = povm_joint_probs(ens, povm).flattened()
        n_out = povm.n_outcomes
        ks = _k_exact(args.k, rho.dim)
        lhs = partial_sums(spectra(rho), alphas).tolist()
        rhs = partial_sums(joint, alphas).tolist()
        rows = []
        for i, alpha in enumerate(alphas):
            for k in ks:
                lhs_k, rhs_k = lhs[i][k - 1], rhs[i][min(k * n_out, joint.dim) - 1]
                rows.append(ReportRow("eval_povm_refinement", alpha, k, rho.dim, None,
                                      lhs_k, rhs_k, None, None, rhs_k - lhs_k, seed))
        return rows
    raise ValueError("eval supports a single instance, a pair of like instances, "
                     "or an ensemble together with a POVM")


def _cmd_check(args) -> list[ReportRow]:
    first, second = (load_instance(p) for p in args.inputs)
    alphas = args.alpha or [1.0]
    tol = bounds.check_tolerance()
    if isinstance(first, ProbVector) and isinstance(second, ProbVector):
        table = bounds.classical_checks(first, second, alphas, tol)
        ks = _k_exact(args.k, first.dim)
        return _check_rows("check_classical", table, alphas, ks, first.dim, args.seed)
    if isinstance(first, DensityOperator) and isinstance(second, DensityOperator):
        table = bounds.density_checks(first, second, alphas, tol)
        ks = _k_exact(args.k, first.dim)
        rows = zip(_check_rows("check_quantum", table, alphas, ks, first.dim, args.seed, (0,)),
                   _check_rows("check_fidelity", table, alphas, ks, first.dim, args.seed, (1,)))
        return [row for pair in rows for row in pair]
    raise ValueError("check needs two distributions or two density operators")


def _cmd_sweep(args) -> list[ReportRow]:
    config = RunConfig(seed=args.seed, trials=args.trials, alpha_grid=args.alpha or [1.0],
                       k_policy=args.k,
                       dims=args.dims or [4])
    return run_sweep(config)


def _cmd_adversarial(args) -> list[ReportRow]:
    rows: list[ReportRow] = []
    tol = bounds.check_tolerance()
    ks = args.k if isinstance(args.k, list) else [1, 2]
    for alpha in args.alpha or [1.0]:
        for k in ks:
            for eps in args.eps or [0.1]:
                bound = bounds.fannes_bound(eps, k, alpha)
                if not bound.applicable:
                    rows.append(ReportRow("adversarial", alpha, k, k, eps, None, bound.rhs,
                                          False, None, None, args.seed))
                    continue
                satisfied = True
                try:
                    res = bounds.adversarial_search(k, alpha, eps, seed=args.seed, tol=tol)
                except bounds.BoundViolationError as exc:
                    print(f"bound violation: {exc}", file=sys.stderr)
                    res, satisfied = exc.witness, False
                rows.append(ReportRow("adversarial", alpha, k, k, eps, res.achieved, res.bound_rhs,
                                      True, satisfied, res.bound_rhs - res.achieved, args.seed))
    return rows


def _cmd_demo_instability(args) -> list[ReportRow]:
    rows = []
    for eps in args.eps or [1e-4]:
        d1, d2, ratio = instability_example(eps)
        rows.append(ReportRow("demo_instability", 1.0, 1, 2, eps, d1, d2,
                              None, None, ratio * eps, args.seed))
    return rows


def _cmd_demo_bell(args) -> list[ReportRow]:
    rows = []
    tol = bounds.check_tolerance()
    alphas = args.alpha or [1.0]
    ks = _k_exact(args.k, 2)
    for theta in args.theta or [np.pi / 6, np.pi / 4]:
        joint = schmidt_pure_state(theta)
        rho_a = partial_trace(joint, (2, 2), keep="A")
        commuting, distinct = product_monotonicity_preconditions(joint, (2, 2))
        eig = spectra(rho_a)
        print(f"theta={theta:.6g}: reduced eigenvalues ({eig[0]:.6g}, {eig[1]:.6g}), "
              f"commuting={commuting}, products_distinct={distinct}", file=sys.stderr)
        applicable = commuting and distinct
        experiment = f"demo_bell:theta={theta:.6g}"
        reduced = partial_sums(eig, alphas).tolist()
        joint_sums = partial_sums(spectra(joint), alphas).tolist()
        for i, alpha in enumerate(alphas):
            for k in ks:
                lhs, rhs = reduced[i][k - 1], joint_sums[i][2 * k - 1]
                satisfied = bool(lhs <= rhs + tol) if applicable else None
                rows.append(ReportRow(experiment, alpha, k, 4, None, lhs, rhs,
                                      applicable, satisfied, rhs - lhs, args.seed))
    return rows


def _cmd_demo_maxbounds(args) -> list[ReportRow]:
    rows = []
    tol = bounds.check_tolerance()
    dims = args.dims or [6]
    for m, ks in zip(dims, _k_ranges(args.k, dims)):
        for alpha in args.alpha or [1.0]:
            for k in ks:
                lower, upper, _cap = max_partial_bounds(k, alpha)
                found = max_partial_sum(m, k, alpha)
                # the bracket holds from m = 2 on; one point carries no entropy
                applicable = m >= 2
                satisfied = bool(lower - tol <= found <= upper + tol) if applicable else None
                rows.append(ReportRow("demo_maxbounds", alpha, k, m, lower, found, upper,
                                      applicable, satisfied, upper - found, args.seed))
    return rows


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok], text)


def _int_list(text: str) -> list[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok], text)


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of values, got {text!r}")
    return values


def _k_policy(text: str):
    if text == "all":
        return "all"
    return _int_list(text)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later call.

    Sharing is safe: ``parse_args`` does not change the parser, every default
    is immutable, and the list converters return a fresh list on each call.
    """
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=0)
    # accepted for old command lines; the results are exact, so it has no effect
    inert_restarts = _Parser(add_help=False)
    inert_restarts.add_argument("--restarts", type=int, default=100, help=argparse.SUPPRESS)

    parser = _Parser(prog="entropic-sums",
                     description="Partial entropic sums, continuity bounds, and demos")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate sums/distances/fidelities from files")
    p_eval.add_argument("inputs", nargs="+", help="one or two JSON instance files")
    p_eval.add_argument("--alpha", type=_float_list, default=None)
    p_eval.add_argument("--k", type=_k_policy, default="all")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", parents=[common], help="run bound checks on a pair of files")
    p_check.add_argument("inputs", nargs=2, help="two JSON instance files of the same kind")
    p_check.add_argument("--alpha", type=_float_list, default=None)
    p_check.add_argument("--k", type=_k_policy, default="all")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", parents=[common], help="randomized bound verification")
    p_sweep.add_argument("--alpha", type=_float_list, default=None)
    p_sweep.add_argument("--k", type=_k_policy, default="all")
    p_sweep.add_argument("--dims", type=_int_list, default=None)
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_adv = sub.add_parser("adversarial", parents=[common, inert_restarts], help="exact bound tightness grid")
    p_adv.add_argument("--alpha", type=_float_list, default=None)
    p_adv.add_argument("--k", type=_int_list, default=None)
    p_adv.add_argument("--eps", type=_float_list, default=None)
    p_adv.set_defaults(func=_cmd_adversarial)

    p_demo = sub.add_parser("demo", help="worked examples")
    demo_sub = p_demo.add_subparsers(dest="demo_command", parser_class=_Parser)

    p_inst = demo_sub.add_parser("instability", parents=[common])
    p_inst.add_argument("--eps", type=_float_list, default=None)
    p_inst.set_defaults(func=_cmd_demo_instability)

    p_bell = demo_sub.add_parser("bell", parents=[common])
    p_bell.add_argument("--theta", type=_float_list, default=None)
    p_bell.add_argument("--alpha", type=_float_list, default=None)
    p_bell.add_argument("--k", type=_k_policy, default="all")
    p_bell.set_defaults(func=_cmd_demo_bell)

    p_max = demo_sub.add_parser("maxbounds", parents=[common, inert_restarts])
    p_max.add_argument("--alpha", type=_float_list, default=None)
    p_max.add_argument("--k", type=_k_policy, default="all")
    p_max.add_argument("--dims", type=_int_list, default=None)
    p_max.set_defaults(func=_cmd_demo_maxbounds)

    return parser


def _write_rows(rows: list[ReportRow], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = "".join(json.dumps(row._asdict()) + "\n" for row in rows)
    else:
        lines = map(",".join, zip(*map(fmt_column, zip(*rows))))
        text = "".join(line + "\n" for line in [CSV_HEADER, *lines])
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        rows = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except bounds.BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 2
    _write_rows(rows, args.format, args.out)
    violated = any(r.applicable is True and r.satisfied is False for r in rows)
    return 2 if violated else 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
