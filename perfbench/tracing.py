"""Spans around the public functions of walshcs, installed from outside.

`Tracer.installed()` replaces every public function of the traced modules,
and every public method of `CobOperator`, by a wrapper that records a span
(task, name, start, end, parent, points).  The wrapper is bound under every
name that held the original, so calls through `from .walsh import
fwht_sequency` in `operator` are seen as well.  A span is named after the
module that defines the function: `walsh.fwht_sequency`, `operator.apply`.
Spans stay in memory until `write_csv`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
from time import perf_counter

import numpy as np

MODULES = ("walsh", "wavelets", "operator", "sampling", "reconstruct", "analysis", "signals", "cli")
# integer helpers called once per grid point while a permutation table is
# built; a span each would cost more than their work
UNTRACED = ("walsh.gray", "walsh.gray_inverse", "walsh.bit_reverse")
SOLVER = "reconstruct.solve_bpdn"
OPERATOR_APPLIES = ("operator.apply", "operator.apply_adjoint")


def _transform_length(result):
    return int(np.size(getattr(result, "coeffs", result)))


# `points` of a span: the length of the transform it returned.
POINT_COUNTS = {
    "walsh.fwht_sequency": _transform_length,
    "walsh.ifwht_sequency": _transform_length,
    "wavelets.dwt_forward": _transform_length,
    "wavelets.dwt_inverse": _transform_length,
}

TASK, NAME, START, END, PARENT, POINTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = -1  # -1 while setting up, then the index of the traced task
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count_points = POINT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.task, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count_points is not None:
                span[POINTS] = count_points(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        package = importlib.import_module("walshcs")
        modules = {name: importlib.import_module(f"walshcs.{name}") for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    _is_public_function(attr, obj)
                    and obj.__module__ == module.__name__
                    and name not in UNTRACED
                ):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        patches = []
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)][1])
        cls = modules["operator"].CobOperator
        for attr, obj in list(vars(cls).items()):
            if _is_public_function(attr, obj):
                patches.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"operator.{attr}", obj))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self):
        """Per-name totals: calls, s (busy), self_s (busy minus children), points,
        plus the operator applications made inside solver calls."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_solver = [False] * len(spans)
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
                in_solver[i] = in_solver[parent] or spans[parent][NAME] == SOLVER
        totals = {}
        solver_applies = 0
        for i, span in enumerate(spans):
            busy = span[END] - span[START]
            entry = totals.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
            entry["calls"] += 1
            entry["s"] += busy
            entry["self_s"] += busy - child_time[i]
            entry["points"] += span[POINTS]
            if in_solver[i] and span[NAME] in OPERATOR_APPLIES:
                solver_applies += 1
        return totals, solver_applies

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "task", "name", "start", "end", "parent", "points"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, *span])


def _is_public_function(attr, obj):
    return not attr.startswith("_") and inspect.isfunction(obj)
