"""Benchmark of the ``entropic-sums`` CLI: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep,pairs,search} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` with no install step. The run repeats its workload's round of ops
(see ``workloads.py``) until at least ``--seconds`` of op time and at least
100 ops are measured, checks every op's output against the mpmath reference,
and prints one JSON object as its last line. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` times every package module from outside
(``tracing.py``) and gives the per-layer metrics instead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "pairs", "search")
#: Whole rounds run until at least this many ops are timed, so the 90th
#: percentile always has ten samples beyond it.
MIN_OPS = 100
#: Set-up is also measured in this many fresh processes, started one at a
#: time between rounds and spread over the run, so that the median samples
#: the machine's speed at several moments.
SETUP_PROBES = 6


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def _run_op(cli, op):
    """Run one op through ``cli.cli_main``, looked up at call time so that the
    traced run sees its wrapper. Returns (exit code, seconds, output, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.cli_main(op.argv)
        elapsed = time.perf_counter() - start
    if op.out_path is not None:
        with open(op.out_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = out.getvalue()
    return code, elapsed, text, err.getvalue()


def set_up(workload, seed, workdir):
    """Import the package, write the inputs and run one untimed warm-up op.
    Returns (the cli module, round of ops, seconds since process start)."""
    sys.path.insert(0, SRC)
    from entropic_sums import cli

    import workloads

    ops = workloads.build(workload, seed, workdir)
    _run_op(cli, ops[0])
    return cli, ops, time.perf_counter() - T0


def _probe_setup(workload, seed):
    """Set-up time of a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--setup-probe"], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Run:
    """Op loop of one run with its failure accounting."""

    def __init__(self, cli, ops):
        import checks  # after set-up: it brings in mpmath, which the program never loads

        self.checks = checks
        self.cli, self.ops = cli, ops
        self.times: list[float] = []
        self.rows = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self._verified: dict[str, tuple[str, int]] = {}  # op name -> (output, rows) checked

    def round(self, tracer=None) -> None:
        for op in self.ops:
            if tracer is not None:
                tracer.active = True
            code, elapsed, text, err = _run_op(self.cli, op)
            if tracer is not None:
                tracer.active = False
            self.times.append(elapsed)
            problem = self._verify(op, code, text, err)
            if problem is not None:
                self.failed += 1
                if op.fault is None:
                    self.unexpected.append(f"{op.name}: {problem}")

    def _verify(self, op, code, text, err):
        """Check an op's output; identical output already checked is not
        checked again. Returns None or what went wrong."""
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        seen = self._verified.get(op.name)
        if seen is not None and seen[0] == text:
            self.rows += seen[1]
            return None
        name, *check_args = op.check
        try:
            n = getattr(self.checks, name)(text, *check_args)
        except (self.checks.CheckError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"[:600]
        self._verified[op.name] = (text, n)
        self.rows += n
        return None

    def rerun_identical(self) -> None:
        """Run the first op once more, untimed, and require byte-identical output."""
        op = self.ops[0]
        first = self._verified.get(op.name, (None,))[0]
        code, _, text, _ = _run_op(self.cli, op)
        if code != 0 or text != first:
            self.unexpected.append(f"{op.name}: a repeat of the op gave different output")


def _p50_p90(values):
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "entropic_sums")):
        print(f"error: no package source at {os.path.relpath(SRC)}/entropic_sums; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")
    workdir = os.path.join(BENCH, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli, ops, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(args, cli, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(BENCH, "_results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(BENCH, "_results", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    detail = result.pop("detail")
    for line in detail.get("unexpected", []):
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _measure(args, cli, ops, setup_s):
    run = Run(cli, ops)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_samples = [setup_s]
    # op time after which each set-up probe runs; the loop outlasts them all
    probe_at = [] if args.trace else [args.seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
    try:
        while sum(run.times) < args.seconds or len(run.times) < MIN_OPS:
            run.round(tracer)
            while probe_at and sum(run.times) >= probe_at[0]:
                probe_at.pop(0)
                setup_samples.append(_probe_setup(args.workload, args.seed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.workload == "sweep":
        run.rerun_identical()
    n_ops, busy = len(run.times), sum(run.times)
    detail = {"rounds": n_ops // len(ops), "ops_per_round": len(ops),
              "unexpected": run.unexpected, "op_ms": [1e3 * t for t in run.times]}
    if tracer is not None:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in tracer.layer_metrics(n_ops).items()}
        detail["spans"] = tracer.summary()
        detail["traced_ops_per_s"] = n_ops / busy
    else:
        p50, p90 = _p50_p90(run.times)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": n_ops / busy, "unit": "op/s"},
            "rows_per_s": {"value": run.rows / busy, "unit": "row/s"},
            "op_ms_p50": {"value": 1e3 * p50, "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        detail["setup_samples_s"] = setup_samples
    return {"correct": not run.unexpected, "attempted": n_ops, "failed": run.failed,
            "metrics": metrics, "detail": detail}


if __name__ == "__main__":
    sys.exit(main())
