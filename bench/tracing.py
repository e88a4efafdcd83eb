"""Per-module tracing of the package from outside, for the traced benchmark run.

:func:`install` replaces every module-level binding of the package's public
functions with a recording wrapper, so ``classical.partial_sum`` is also
traced where ``quantum`` and ``cli`` imported it under the same name. The
constructors of the package's validating classes and ``numpy.linalg``'s
``eigvalsh``, ``eigh`` and ``svd`` are wrapped the same way. Each call made
while the tracer is active records one span: name, start, end and parent.
Spans stay in memory, in flat arrays, until :meth:`Tracer.summary` reduces
them. A span's self time is its duration minus the durations of its direct
children; calls are strictly nested, so the children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

PACKAGE = "entropic_sums"
MODULES = ("entropy", "classical", "quantum", "bounds", "sampling", "serialize", "cli")
LINALG = ("eigvalsh", "eigh", "svd")


class Tracer:
    """Records a span for every wrapped call made while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        # extra work counts, keyed by metric name
        self.counts: dict[str, float] = {"entropy.elements": 0, "bounds.adversarial_steps": 0,
                                         "linalg.matrices": 0}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, label: str, count=None):
        """Return ``fn`` wrapped to record a span named ``label`` while active.
        ``count(counts, args, result)`` adds the call's work counts."""
        sid = len(self.names)
        self.names.append(label)
        clock = time.perf_counter
        stack, start, end, name, parent = self._stack, self.start, self.end, self.name, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public functions at every module-level binding,
        its validating classes' constructors, and numpy's Hermitian and
        singular-value decompositions."""
        mods = [importlib.import_module(PACKAGE)]
        mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        own = {m.__name__ for m in mods}
        traced: dict[object, object] = {}  # original function or class -> its wrapper
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) not in own:
                    continue
                label = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                if inspect.isfunction(obj):
                    if obj not in traced:
                        traced[obj] = self.wrap(obj, label, _COUNTERS.get(obj.__name__))
                    self._patch(mod, attr, traced[obj])
                elif _validating_class(obj) and obj not in traced:
                    traced[obj] = self.wrap(obj.__init__, label)
                    self._patch(obj, "__init__", traced[obj])
        for fname in LINALG:
            self._patch(np.linalg, fname, self.wrap(getattr(np.linalg, fname), f"linalg.{fname}",
                                                    _count_matrices))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self time in seconds."""
        n = len(self.start)
        # views on the span arrays, not copies: a traced run holds millions of spans
        names = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {label: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, label in enumerate(self.names) if calls[i]}

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, normalised per op."""
        spans = self.summary()

        def module(prefix, field):
            return sum(v[field] for k, v in spans.items() if k.startswith(prefix + "."))

        def calls(label):
            return spans.get(label, {}).get("calls", 0)

        out: dict[str, tuple[float, str]] = {}
        for mod in MODULES:
            out[f"{mod}.calls_per_op"] = (module(mod, "calls") / n_ops, "call/op")
            out[f"{mod}.self_ms_per_op"] = (1e3 * module(mod, "self_s") / n_ops, "ms/op")
        # every linalg call an op makes today comes from a quantum-module function
        out["quantum.linalg_calls_per_op"] = (module("linalg", "calls") / n_ops, "call/op")
        out["quantum.linalg_matrices_per_op"] = (self.counts["linalg.matrices"] / n_ops, "matrix/op")
        out["quantum.linalg_ms_per_op"] = (1e3 * module("linalg", "self_s") / n_ops, "ms/op")
        out["quantum.density_operators_per_op"] = (calls("quantum.DensityOperator") / n_ops, "object/op")
        out["classical.prob_vectors_per_op"] = (calls("classical.ProbVector") / n_ops, "object/op")
        out["entropy.elements_per_op"] = (self.counts["entropy.elements"] / n_ops, "element/op")
        out["entropy.as_alpha_calls_per_op"] = (calls("entropy.as_alpha") / n_ops, "call/op")
        out["bounds.adversarial_steps_per_op"] = (self.counts["bounds.adversarial_steps"] / n_ops,
                                                  "step/op")
        return out


def _validating_class(obj) -> bool:
    """A class with a hand-written constructor that validates its input."""
    return (inspect.isclass(obj) and "__init__" in vars(obj)
            and not dataclasses.is_dataclass(obj) and not issubclass(obj, Exception))


def _count_elements(counts, args, result):
    counts["entropy.elements"] += np.size(args[0])


def _count_steps(counts, args, result):
    counts["bounds.adversarial_steps"] += result.iterations


def _count_matrices(counts, args, result):
    counts["linalg.matrices"] += math.prod(np.shape(args[0])[:-2])


_COUNTERS = {"entropy_term": _count_elements, "q_log": _count_elements,
             "adversarial_search": _count_steps}
