"""Command-line front end: evaluation, pair checks, randomized sweeps,
adversarial tightness runs, and the worked demos.

Exit codes: 0 when everything checked is satisfied or not evaluated, 2 when
any applicable bound is violated, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import numbers
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, cycle
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
from .entropy import _count, as_alpha
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
from .serialize import fmt_column, json_column, load_instance


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


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


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
        _check_seed(self.seed)
        if isinstance(self.trials, bool) or not isinstance(self.trials, numbers.Integral):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.dims) == 0:
            raise ValueError("dims must name at least one dimension")
        self.dims = [_count(d, "dimension") for d in self.dims]
        entries = min(self.trials, SWEEP_CHUNK) * sum(d * d for d in self.dims)
        if entries > SWEEP_MAX_ENTRIES:
            raise ValueError(f"dims ask for {entries} matrix entries per chunk, past the cap of {SWEEP_MAX_ENTRIES}")
        if self.k_policy not in (None, "all"):
            self.k_policy = [_count(k, "k") for k in self.k_policy]
            if not self.k_policy:
                raise ValueError("k_policy must name at least one k")
        if not self.alpha_grid:
            raise ValueError("the alpha grid must name at least one order")
        for alpha in self.alpha_grid:
            as_alpha(alpha)  # raises for an order that is not positive and finite


def _k_lists(policy, dims: list[int]) -> list[list[int]]:
    """The requested k in the order given, per dimension of ``dims``, each at
    least 1; a k that fits no dimension is an error."""
    top = max(dims)
    ks = range(1, top + 1) if policy in (None, "all") else policy
    unfit = [k for k in ks if not 1 <= k <= top]
    if unfit:
        raise ValueError(f"k={unfit[0]} is outside [1, {top}] for dimension {top}" if len(dims) == 1
                         else f"k={unfit[0]} fits none of the dimensions {dims}")
    return [[k for k in ks if 1 <= k <= m] for m in dims]


class Batch(NamedTuple):
    """Output cells by column, rows trial-major: ``cells`` holds the fields that
    repeat in every trial (experiment, alpha, k, dim, seed), one tuple per cell
    of one trial; ``chunks`` yields, per run of trials, the six fields from
    epsilon to margin, each a flat sequence of one value per row."""

    cells: list[tuple]
    chunks: Iterable[tuple[Sequence, ...]]


_VARYING = ReportRow._fields[4:10]

#: Trials that ``sweep`` draws, checks and writes at a time; memory stays flat
#: in ``--trials``, and the output does not depend on it.
SWEEP_CHUNK = 64
#: Largest ``min(trials, SWEEP_CHUNK) * sum(d * d for d in dims)`` a :class:`RunConfig` takes, as a
#: chunk holds several arrays that size; at the cap (d = 128 at 64 trials) a sweep peaks near 170 MB.
SWEEP_MAX_ENTRIES = 2 ** 20
#: Largest ``demo maxbounds`` dimension: ``--k all`` gives m rows per order, about 2 s an order at the cap.
MAXBOUNDS_MAX_DIM = 2 ** 16


def _cut(table: bounds.CheckTable, trials: int, index: list[int]) -> tuple[list, ...]:
    """The varying fields of the cells at flat ``index`` within each trial's
    part of ``table``; a verdict is kept only where the check applies."""
    index = np.asarray(index)
    eps, lhs, rhs, app, sat, margin = (getattr(table, name).reshape(trials, -1).take(index, axis=1)
                                       for name in _VARYING)
    return tuple(column.ravel().tolist() for column in (eps, lhs, rhs, app, np.where(app, sat, None), margin))


def _batch(cells, *, epsilon=None, lhs=None, rhs=None, applicable=None, satisfied=None, margin=None) -> Batch:
    """The one-trial batch of ``cells`` and the named varying fields, each one value per cell:
    a field not named is None in every row, and a verdict is kept only where ``applicable``."""
    none = [None] * len(cells)
    if satisfied is not None:
        satisfied = [sat if app else None for app, sat in zip(applicable, satisfied)]
    return Batch(cells, [(epsilon or none, lhs or none, rhs or none, applicable or none, satisfied or none,
                          margin or none)])


def _batch_rows(cells: list[tuple], chunk: tuple) -> list[tuple]:
    """The rows of one chunk of a batch as tuples in the field order of
    :class:`ReportRow`."""
    return [cell[:4] + values + cell[4:] for cell, values in zip(cycle(cells), zip(*chunk))]


def _sweep_batch(config: RunConfig) -> Batch:
    """The batch of a sweep: inputs checked now, trials run as the chunks are read."""
    dims, alphas = list(config.dims), config.alpha_grid
    k_lists = _k_lists(config.k_policy, dims)
    top = max(dims)
    names = ("sweep_classical", "sweep_quantum")
    grid = [(e, j, i, k) for e in range(2) for j, ks in enumerate(k_lists)
            for i in range(len(alphas)) for k in ks]
    cells = [(names[e], alphas[i], k, dims[j], config.seed) for e, j, i, k in grid]
    index = [((e * len(dims) + j) * len(alphas) + i) * top + k - 1 for e, j, i, k in grid]
    rng = np.random.default_rng(config.seed)

    def chunks():
        for start in range(0, config.trials, SWEEP_CHUNK):
            trials = min(SWEEP_CHUNK, config.trials - start)
            # per dims entry and trial: the raw draws of one classical and one quantum pair
            draws: list[list[list]] = [[] for _ in dims]
            for _ in range(trials):
                for entry, m in zip(draws, dims):
                    entry.append([rng.exponential(size=m), 10.0 ** rng.uniform(-3.0, 0.0),
                                  rng.exponential(size=m)])
                for entry, d in zip(draws, dims):
                    entry[-1] += [rng.standard_normal((d, d)), rng.standard_normal((d, d)),
                                  10.0 ** rng.uniform(-3.0, 0.0),
                                  rng.standard_normal((d, d)), rng.standard_normal((d, d))]
            # every entry zero-padded to the largest dimension (entropy_term(0) is
            # exactly 0, so the sums at k <= m are unchanged), distances edge-padded
            values = np.zeros((2, trials, 2, len(dims), top))
            distances = np.empty((trials, 2, len(dims), top))
            for j, (m, entry) in enumerate(zip(dims, draws)):
                # each kind of instance built and checked as one stack, base rows then fresh rows
                base, eps, fresh, re, im, eps_q, fresh_re, fresh_im = zip(*entry)
                points = sampling.simplex_points(base + fresh)
                p, fresh_p = points[:trials], points[trials:]
                q = sampling.near_points(p, fresh_p, eps)
                rho, fresh_rho = sampling.density_operators(re + fresh_re, im + fresh_im).split(trials)
                sigma = sampling.near_operators(rho, fresh_rho, eps_q)
                for e, pair in enumerate(((p, q), (spectra(rho), spectra(sigma)))):
                    values[:, :, e, j, :m] = pair
                for e, dist in enumerate((partial_distances(p, q), ky_fan_distances(rho, sigma))):
                    distances[:, e, j] = dist[:, -1:]
                    distances[:, e, j, :m] = dist
            yield _cut(bounds.pair_checks(*values, distances, alphas, config.tolerance), trials, index)

    return Batch(cells, chunks())


def run_sweep(config: RunConfig) -> list[ReportRow]:
    """Randomized near-pair verification of the continuity bounds.

    Each trial draws, per ``dims`` entry, one base instance and a perturbed
    partner at a log-uniform target distance, then checks every (alpha, k)
    cell. Draw order is fixed, so equal configs give identical output. Trials
    run in chunks of :data:`SWEEP_CHUNK`, each drawn first, then built and
    validated per ``dims`` entry as one stack and checked in one table.
    """
    batch = _sweep_batch(config)
    rows = (row for chunk in batch.chunks for row in _batch_rows(batch.cells, chunk))
    return list(map(ReportRow._make, rows))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


#: Each instance type that ``eval`` takes alone or in a like pair: its kind and the distribution it sums.
_EVAL_SUMS = {ProbVector: ("classical", lambda obj: obj.values),
              DensityOperator: ("quantum", spectra),
              JointDistribution: ("joint", lambda obj: obj.flattened().values),
              PureEnsemble: ("quantum", lambda obj: spectra(density_from_ensemble(obj)))}


def _cmd_eval(args) -> Batch:
    if len(args.inputs) > 2:
        raise ValueError("eval takes one or two input files")
    objs = [load_instance(p) for p in args.inputs]
    alphas = args.alpha or [1.0]
    types = {type(obj) for obj in objs}
    if types == {PureEnsemble, RankOnePOVM}:
        ens, povm = objs if isinstance(objs[0], PureEnsemble) else objs[::-1]
        rho = density_from_ensemble(ens)
        joint = povm_joint_probs(ens, povm).flattened()
        [ks] = _k_lists(args.k, [rho.dim])
        lhs = partial_sums(spectra(rho), alphas)[:, [k - 1 for k in ks]].ravel()
        rhs = partial_sums(joint, alphas)[:, [min(k * povm.n_outcomes, joint.dim) - 1 for k in ks]].ravel()
        # no verdict: lhs <= rhs holds for the state's spectral ensemble, not for every ensemble
        cells = [("eval_povm_refinement", alpha, k, rho.dim, args.seed) for alpha in alphas for k in ks]
        return _batch(cells, lhs=lhs.tolist(), rhs=rhs.tolist(), margin=(rhs - lhs).tolist())
    if len(objs) == 2 and types not in ({ProbVector}, {DensityOperator}):
        raise ValueError("eval supports a single instance, a pair of like instances, "
                         "or an ensemble together with a POVM")
    if RankOnePOVM in types:
        raise ValueError("a POVM cannot be evaluated by itself; pair it with an ensemble")
    kind, distribution = _EVAL_SUMS[type(objs[0])]
    probs = [distribution(obj) for obj in objs]
    dim = probs[0].size
    if probs[-1].size != dim:
        raise ValueError("the two instances must have equal dimension")
    [ks] = _k_lists(args.k, [dim])
    at = [k - 1 for k in ks]
    cells = [(f"eval_{kind}_partial_sum{suffix}", alpha, k, dim, args.seed)
             for suffix in (["_a", "_b"] if len(objs) == 2 else [""]) for alpha in alphas for k in ks]
    lhs, eps = partial_sums(np.stack(probs), alphas)[..., at].ravel().tolist(), [None] * len(cells)
    if len(objs) == 2:  # the pair's distances; for density operators, their fidelities too
        quantum = kind == "quantum"
        fidelities = partial_fidelities(*objs).tolist() if quantum else []
        cells += [("eval_kyfan_distance" if quantum else "eval_partial_distance", None, k, dim, args.seed) for k in ks]
        cells += [("eval_partial_fidelity", None, k, dim, args.seed) for k in range(len(fidelities))]
        lhs += [None] * len(ks) + fidelities
        eps += (ky_fan_distances if quantum else partial_distances)(*objs)[at].tolist() + [None] * len(fidelities)
    return _batch(cells, epsilon=eps, lhs=lhs)


def _cmd_check(args) -> Batch:
    first, second = (load_instance(p) for p in args.inputs)
    alphas = args.alpha or [1.0]
    if isinstance(first, ProbVector) and isinstance(second, ProbVector):
        table = bounds.classical_checks(first, second, alphas, args.tol)
        experiments = ("check_classical",)
    elif isinstance(first, DensityOperator) and isinstance(second, DensityOperator):
        table = bounds.density_checks(first, second, alphas, args.tol)
        experiments = ("check_quantum", "check_fidelity")
    else:
        raise ValueError("check needs two distributions or two density operators")
    dim = first.dim
    [ks] = _k_lists(args.k, [dim])
    grid = [(e, i, k) for i in range(len(alphas)) for k in ks for e in range(len(experiments))]
    cells = [(experiments[e], alphas[i], k, dim, args.seed) for e, i, k in grid]
    index = [(e * len(alphas) + i) * dim + k - 1 for e, i, k in grid]
    return Batch(cells, [_cut(table, 1, index)])


def _cmd_sweep(args) -> Batch:
    return _sweep_batch(RunConfig(seed=args.seed, trials=args.trials, alpha_grid=args.alpha or [1.0],
                                  k_policy=args.k, dims=args.dims or [4], tolerance=args.tol))


def _cmd_adversarial(args) -> Batch:
    ks = [_count(k, "k", high=bounds.MAX_ADVERSARIAL_K) for k in args.k or [1, 2]]
    grid = args.eps or [0.1]
    cells, lhs, rhs, applicable = [], [], [], []
    for alpha in args.alpha or [1.0]:
        a = as_alpha(alpha)
        bound, _, fits = bounds.fannes_bounds([grid], np.array(ks)[:, None], a)
        for k, bound_k, fits_k in zip(ks, bound.tolist(), fits.tolist()):
            cells += [("adversarial", alpha, k, k, args.seed)] * len(grid)
            lhs += [bounds._adversarial(k, a, eps, r).achieved if fit else None
                    for eps, r, fit in zip(grid, bound_k, fits_k)]
            rhs += bound_k
            applicable += fits_k
    return _batch(cells, epsilon=grid * (len(cells) // len(grid)), lhs=lhs, rhs=rhs, applicable=applicable,
                  satisfied=[fit and bounds.holds(x, r, args.tol) for x, r, fit in zip(lhs, rhs, applicable)],
                  margin=[r - x if fit else None for x, r, fit in zip(lhs, rhs, applicable)])


def _cmd_demo_instability(args) -> Batch:
    grid = args.eps or [1e-4]
    d1, d2, ratio = zip(*map(instability_example, grid))
    return _batch([("demo_instability", 1.0, 1, 2, args.seed)] * len(grid), epsilon=grid, lhs=d1, rhs=d2,
                  margin=[r * eps for r, eps in zip(ratio, grid)])


def _cmd_demo_bell(args) -> Batch:
    alphas, [ks] = args.alpha or [1.0], _k_lists(args.k, [2])
    cells, reduced, joint_sums, applicable = [], [], [], []
    for theta in args.theta or [np.pi / 6, np.pi / 4]:
        joint = schmidt_pure_state(theta)
        commuting, distinct = product_monotonicity_preconditions(joint, (2, 2))
        eig = spectra(partial_trace(joint, (2, 2), keep="A"))
        print(f"theta={theta:.6g}: reduced eigenvalues ({eig[0]:.6g}, {eig[1]:.6g}), "
              f"commuting={commuting}, products_distinct={distinct}", file=sys.stderr)
        cells += [(f"demo_bell:theta={theta:.6g}", alpha, k, 4, args.seed) for alpha in alphas for k in ks]
        reduced.append(partial_sums(eig, alphas)[:, [k - 1 for k in ks]])
        joint_sums.append(partial_sums(spectra(joint), alphas)[:, [2 * k - 1 for k in ks]])
        applicable += [commuting and distinct] * (len(alphas) * len(ks))
    lhs, rhs = np.ravel(reduced), np.ravel(joint_sums)
    return _batch(cells, lhs=lhs.tolist(), rhs=rhs.tolist(), applicable=applicable,
                  satisfied=bounds.holds(lhs, rhs, args.tol).tolist(), margin=(rhs - lhs).tolist())


def _cmd_demo_maxbounds(args) -> Batch:
    dims = [_count(m, "dimension", high=MAXBOUNDS_MAX_DIM) for m in args.dims or [6]]
    cells, lower, found, upper, applicable, satisfied = [], [], [], [], [], []
    for m, ks in zip(dims, _k_lists(args.k, dims)):
        for alpha in args.alpha or [1.0]:
            for k in ks:
                low, up, _cap = max_partial_bounds(k, alpha)
                x = max_partial_sum(m, k, alpha)
                cells.append(("demo_maxbounds", alpha, k, m, args.seed))
                lower.append(low)
                found.append(x)
                upper.append(up)
                applicable.append(m >= 2)  # the bracket holds from m = 2 on; one point carries no entropy
                satisfied.append(bounds.holds(low, x, args.tol) and bounds.holds(x, up, args.tol))
    return _batch(cells, epsilon=lower, lhs=found, rhs=upper, applicable=applicable, satisfied=satisfied,
                  margin=[up - x for x, up in zip(found, upper)])


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
    orders = _Parser(add_help=False)
    orders.add_argument("--alpha", type=_float_list, default=None)
    orders.add_argument("--k", type=_k_policy, default="all")
    # accepted for old command lines; the results are exact, so it has no effect
    inert_restarts = _Parser(add_help=False)
    inert_restarts.add_argument("--restarts", type=int, default=100, help=argparse.SUPPRESS)

    parser = _Parser(prog="entropic-sums",
                     description="Partial entropic sums, continuity bounds, and demos")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_eval = sub.add_parser("eval", parents=[common, orders], help="evaluate sums/distances/fidelities from files")
    p_eval.add_argument("inputs", nargs="+", help="one or two JSON instance files")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", parents=[common, orders], help="run bound checks on a pair of files")
    p_check.add_argument("inputs", nargs=2, help="two JSON instance files of the same kind")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", parents=[common, orders], help="randomized bound verification")
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

    p_bell = demo_sub.add_parser("bell", parents=[common, orders])
    p_bell.add_argument("--theta", type=_float_list, default=None)
    p_bell.set_defaults(func=_cmd_demo_bell)

    p_max = demo_sub.add_parser("maxbounds", parents=[common, inert_restarts, orders])
    p_max.add_argument("--dims", type=_int_list, default=None)
    p_max.set_defaults(func=_cmd_demo_maxbounds)

    return parser


@functools.cache
def _leaf_parsers() -> dict[tuple[str, ...], tuple[_Parser, dict[str, str], tuple]]:
    """Each subcommand's parser, the values the parsers above it set and its :func:`_plain`
    table, keyed by its words, as read off :func:`_build_parser`: ``("demo", "maxbounds")``
    maps to that parser, ``{"command": "demo", "demo_command": "maxbounds"}`` and the
    namespace of its shortest line (each positional ``"x"``), its positional action and
    the word count its ``nargs`` asks for (0 if none), and its one-value options by name."""
    leaves = {}

    def walk(parser, words, names):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            inputs = next((a for a in parser._actions if not a.option_strings), None)
            nargs = inputs.nargs if inputs else 0
            start = parser.parse_args(["x"] * (1 if nargs == "+" else nargs), argparse.Namespace(**names))
            options = {s: a for a in parser._actions if type(a) is argparse._StoreAction and a.nargs is None
                       for s in a.option_strings}
            leaves[words] = parser, names, (vars(start), inputs, nargs, options)
        for action in subs:
            for name, child in action.choices.items():
                walk(child, (*words, name), {**names, action.dest: name})

    walk(_build_parser(), (), {})
    return leaves


def _plain(leaf: _Parser, table: tuple, words: list[str]) -> argparse.Namespace | None:
    """``leaf.parse_args(words, ...)`` for a plain line, else None: as many positionals as
    ``nargs`` asks for, then ``OPTION VALUE`` pairs, each ``OPTION`` a table option in full
    and each ``VALUE`` nonempty, not an option to ``leaf``, of its ``type`` and ``choices``."""
    start, inputs, nargs, options = table
    plain = [w[:1] not in ("", "-") or bool(leaf._negative_number_matcher.match(w)) for w in words]
    n = (plain + [False]).index(False)
    if (len(words) - n) % 2 or not all(plain[n + 1::2]) or not (n >= 1 if nargs == "+" else n == nargs):
        return None

    def value(action, text):
        converted = leaf._get_value(action, text)
        leaf._check_value(action, converted)
        return converted

    values = dict(start)
    try:
        if inputs:
            values[inputs.dest] = [value(inputs, text) for text in words[:n]]
        for option, text in zip(words[n::2], words[n + 1::2]):  # a repeated option keeps its last value
            values[options[option].dest] = value(options[option], text)
    except (KeyError, _UsageError, argparse.ArgumentError):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the parser of the subcommand its first words name, as every
    later word belongs to that parser (straight from its table if the rest is a plain
    line); any other line (help, a bare ``demo``, an unknown command, an option before
    the command) by the top-level parser."""
    leaves = _leaf_parsers()
    for n in (1, 2):
        if tuple(argv[:n]) in leaves:
            leaf, names, table = leaves[tuple(argv[:n])]
            return _plain(leaf, table, argv[n:]) or leaf.parse_args(argv[n:], argparse.Namespace(**names))
    return _build_parser().parse_args(argv)


#: What each format sets: the text before its rows, the column-to-text rule,
#: and the row frame (what precedes each field's value: nothing in CSV, the key
#: in a JSON object; the field separator; what opens and closes a row).
_FRAMES = {"csv": (CSV_HEADER + "\n", fmt_column, [""] * len(ReportRow._fields), ",", "", "\n"),
           "json": ("", json_column, [json.dumps(name) + ": " for name in ReportRow._fields], ", ", "{", "}\n")}


def _write(batch: Batch, fmt: str, fh) -> bool:
    """Write ``batch`` to ``fh`` a chunk at a time; True if any applicable check
    among the written cells is violated.

    The fixed fields' texts are made once per batch by the format's column
    rule, those of experiment to dim joined into one text per cell, as each
    slot costs every row. Per chunk, each fixed text list is repeated once per
    trial, the six varying columns are rendered, and one ``%`` fills the row
    frame, repeated once per row, with every column. In CSV a column that
    holds only floats fills a ``%.17g`` slot with its values as they are.
    """
    header, text, keys, sep, opening, closing = _FRAMES[fmt]
    fh.write(header)
    fixed = [text(column) for column in zip(*batch.cells)]
    head = sep.join(key + "%s" for key in keys[:4])
    fixed[:4] = [[head % texts for texts in zip(*fixed[:4])]]
    violated = False
    for chunk in batch.chunks:
        violated = violated or (True, False) in zip(chunk[3], chunk[4])  # (applicable, satisfied)
        raw = [fmt == "csv" and all(map(float.__instancecheck__, column)) for column in chunk]
        slots = ["%.17g" if r else "%s" for r in raw] + ["%s"]
        row = opening + sep.join(["%s", *map(str.__add__, keys[4:], slots)]) + closing
        texts = [column * (len(chunk[0]) // max(len(batch.cells), 1)) for column in fixed]
        texts[1:1] = [column if r else text(column) for r, column in zip(raw, chunk)]
        fh.write((row * len(chunk[0])) % tuple(chain.from_iterable(zip(*texts))))
        del texts  # no two chunks' texts are alive at once
    return violated


def _write_out(batch: Batch, fmt: str, out: str | None) -> bool:
    """:func:`_write` to stdout or to the file ``out``. A regular file is
    written beside its target and renamed over it once complete, so a failed
    run leaves no partial file and an earlier file untouched; a device or a
    pipe is written in place. A failed write reads ``cannot write OUT``."""
    if out is None:
        return _write(batch, fmt, sys.stdout)
    target = os.path.realpath(out)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    path = out if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            violated = _write(batch, fmt, fh)
        if not in_place:
            os.replace(path, target)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from None
    finally:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return violated


def cli_main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        _build_parser().print_usage(sys.stderr)
        return 1
    try:
        _check_seed(args.seed)
        args.tol = bounds.check_tolerance()
        violated = _write_out(args.func(args), args.format, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if violated else 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
