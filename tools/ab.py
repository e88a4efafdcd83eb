"""A/B timing of the package at a git revision against the working tree, in one process.

    python3 tools/ab.py REV [--workload {sweep,pairs,search}] [--seed N] [--rounds R]
    python3 tools/ab.py REV --argv "sweep --trials 200 --format json" [--argv "..." ...] [--rounds R]

Run from anywhere inside a source checkout. ``src/entropic_sums`` at REV is
exported with ``git archive`` into a temporary directory and imported under
one alias, the working tree's package under another (``src/`` uses only
relative imports, so both load side by side). One round of ops is built with
``bench/workloads.build``; with ``--argv``, which may repeat, the round is
those command lines (an ``--out`` path in each is replaced by a file of its
own in the temporary directory, read as the op's output). Every op is run
once on each side first, each side's ``--out`` file removed before it runs
(no file reads as no output), and the script fails (exit 1) if any op's
output, stderr or exit code differs. Then the rounds run op by op, each op
on both sides back to back, the side that goes first alternating between
rounds, so slow drift of the machine falls on both sides alike. The last line is a JSON object with each side's sum of
per-op median times and their ratio (REV over working tree: above 1 means the
working tree is faster); ``mean_ratio``, the ratio of the two sides' total op
time over all rounds, which is what ``bench/run.py``'s ``ops_per_s`` compares
(op count over summed op time), so slow tail ops count in it as they do there;
and the quartiles of the per-round ratio, each round's time summed over all ops
on either side, which show how far the ratio spreads from round to round. It
also gives ``rev_src_lines`` and ``tree_src_lines``, the ``wc -l`` totals of
``src/entropic_sums/*.py`` at REV and in the working tree, and each side's
``op_ms_p50`` and ``op_ms_p90`` (``rev_op_ms_p50`` and so on) over all timed
ops, the median and the top inclusive 10-quantile, from ``bench/run.py``'s own function.

BLAS runs single-threaded, no bytecode is written, and inputs and the export
live in temporary directories that are removed on exit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/entropic_sums"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against the working tree")
    ap.add_argument("--workload", choices=("sweep", "pairs", "search"), default="pairs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--argv", action="append",
                    help="time this command line in place of a workload round; repeat for more")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    return args


def _export(rev: str, dest: str) -> str:
    """Extract ``src/entropic_sums`` at ``rev`` under ``dest``; returns its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, PACKAGE],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, PACKAGE)


def _src_lines(path: str) -> int:
    """Newlines in the package's ``*.py`` files at ``path``, as ``wc -l`` counts them."""
    total = 0
    for name in glob.glob(os.path.join(path, "*.py")):
        with open(name, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _load(alias: str, path: str):
    """Import the package at ``path`` as ``alias``; returns its ``cli`` module."""
    spec = importlib.util.spec_from_file_location(alias, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{alias}.cli"]


def _run(cli, op):
    """(exit code, seconds, output, stderr) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.cli_main(op.argv)
        elapsed = time.perf_counter() - start
    if op.out_path is None:
        return code, elapsed, out.getvalue(), err.getvalue()
    try:
        with open(op.out_path, encoding="utf-8") as fh:
            return code, elapsed, fh.read(), err.getvalue()
    except FileNotFoundError:
        return code, elapsed, "", err.getvalue()


def _fresh_run(cli, op):
    """:func:`_run` with the op's ``--out`` file removed first, so an op that
    writes none is not read as the other side's output."""
    if op.out_path is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.out_path)
    return _run(cli, op)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import run as bench_run
    import workloads

    with tempfile.TemporaryDirectory(prefix="entropic-ab-") as tmp:
        workdir = os.path.join(tmp, "inputs")
        os.mkdir(workdir)
        try:
            base = _export(args.rev, os.path.join(tmp, "rev"))
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {PACKAGE} at {args.rev}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 1
        src_lines = [_src_lines(base), _src_lines(os.path.join(ROOT, PACKAGE))]
        sides = {args.rev: _load("ab_rev", base),
                 "working tree": _load("ab_tree", os.path.join(ROOT, PACKAGE))}
        if args.argv is None:
            ops = workloads.build(args.workload, args.seed, workdir)
        else:
            ops = []
            for n, line in enumerate(args.argv):
                argv, out = shlex.split(line), None
                if "--out" in argv[:-1]:
                    out = argv[argv.index("--out") + 1] = os.path.join(workdir, f"out{n}")
                ops.append(workloads.Op(line, argv, None, out_path=out))
        for op in ops:
            (code_a, _, out_a, err_a), (code_b, _, out_b, err_b) = (_fresh_run(cli, op) for cli in sides.values())
            if (code_a, out_a, err_a) != (code_b, out_b, err_b):
                print(f"error: {op.name} differs between {args.rev} and the working tree "
                      f"(exit codes {code_a}, {code_b})", file=sys.stderr)
                return 1
        times = {name: [[] for _ in ops] for name in sides}
        order = list(sides)
        for _ in range(args.rounds):
            for slot, op in enumerate(ops):
                for name in order:
                    times[name][slot].append(_run(sides[name], op)[1])
            order.reverse()
    sums = {name: 1e3 * sum(map(statistics.median, per_op)) for name, per_op in times.items()}
    rev_ms, tree_ms = sums.values()
    rev_rounds, tree_rounds = ([sum(column) for column in zip(*per_op)] for per_op in times.values())
    ratios = [r / t for r, t in zip(rev_rounds, tree_rounds)]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    latency = []
    for per_op in times.values():
        seconds = [t for slot in per_op for t in slot]
        # one timed op is read as two equal ones, which have the same median and quantiles
        latency.append([round(1e3 * q, 4) for q in bench_run._p50_p90(seconds * (2 if len(seconds) == 1 else 1))])
    (rev_p50, rev_p90), (tree_p50, tree_p90) = latency
    run = {"workload": args.workload, "seed": args.seed} if args.argv is None else {"argv": args.argv}
    print(json.dumps({"rev": args.rev, **run, "rounds": args.rounds, "ops": len(ops),
                      "rev_ms": round(rev_ms, 3), "tree_ms": round(tree_ms, 3),
                      "ratio": round(rev_ms / tree_ms, 4), "mean_ratio": round(sum(rev_rounds) / sum(tree_rounds), 4),
                      "round_ratio_quartiles": [round(q, 4) for q in quartiles],
                      "rev_src_lines": src_lines[0], "tree_src_lines": src_lines[1],
                      "rev_op_ms_p50": rev_p50, "tree_op_ms_p50": tree_p50,
                      "rev_op_ms_p90": rev_p90, "tree_op_ms_p90": tree_p90}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
