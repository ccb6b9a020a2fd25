"""Spans around the public functions of each polycauchy module.

The library has no spans of its own, so layers are measured from
outside: :class:`Tracer` replaces each function listed in
:data:`LAYERS` by a wrapper in every ``polycauchy`` module that holds
it (a module that did ``from .x import f`` has its own binding, and
calls through it would otherwise go unseen).  A span is
``[name, parent, start, end, count]``; spans stay in memory and are
written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  ``count`` is the work done by that call, in the
unit the layer names (points, nodes, terms, ...).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import statistics
import sys
from time import perf_counter

import numpy as np


def _singular_points(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:
        gq = sys.modules["polycauchy.gaussian_quadrature"]
        return gq.DEFAULT_SINGULAR_RADIAL * gq.DEFAULT_SINGULAR_ANGULAR
    return grid.points.size


def _report_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path) + os.path.getsize(result)


# (module, function, extra count name, counter(args, kwargs, result))
LAYERS = (
    ("special_fn", "kummer_terminating", None, None),
    ("special_fn", "generalized_laguerre", None, None),
    ("special_fn", "kahan_sum", None, None),
    ("_ddouble", "dd_weighted_sum", "terms", lambda a, kw, r: len(a[0])),
    ("gaussian_quadrature", "gauss_laguerre_nodes", "nodes", lambda a, kw, r: int(a[0])),
    ("gaussian_quadrature", "build_singular_grid", None, None),
    ("gaussian_quadrature", "cauchy_singular_quadrature", "points", _singular_points),
    ("gaussian_quadrature", "plane_quadrature", None, None),
    ("gaussian_quadrature", "integrate_radial_weighted", None, None),
    ("gaussian_quadrature", "polar_separable_quadrature", None, None),
    ("ito_hermite", "hermite_eval", "points", lambda a, kw, r: int(np.size(r))),
    ("ito_hermite", "hermite_eval_extended", None, None),
    ("ito_hermite", "hermite_radial_profile", None, None),
    ("cauchy_transform", "cauchy_hermite_closed", "points", lambda a, kw, r: int(np.size(r))),
    ("cauchy_transform", "cauchy_transform_numeric", None, None),
    ("poly_bergman", "project_numeric", "coefficients", lambda a, kw, r: len(r.coeffs)),
    ("poly_bergman", "kernel_series", None, None),
    ("range_analysis", "truncated_operator_svd", "entries", lambda a, kw, r: len(r) ** 2),
    ("range_analysis", "psi_gram", "entries", lambda a, kw, r: int(r.values.size)),
)

# Share of polar_separable_quadrature calls settled as an exact zero by
# the angular selection rule: those that never reach dd_weighted_sum.
ZERO_SHARE = ("gaussian_quadrature.polar_separable_quadrature", "ddouble.dd_weighted_sum")

SUITE_NAMES = ("hermite", "cauchy", "projection", "gram", "ranges")
SUITE_PREFIX = "verification.suite."
WRITE_REPORT = "verification.write_report"


def layer_name(module: str, function: str) -> str:
    """Span and metric name; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{function}"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for module, function, extra, _ in LAYERS:
        name = layer_name(module, function)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if extra:
            units[f"{name}.{extra}"] = "count"
        if name == ZERO_SHARE[0]:
            units[f"{name}.zero_share"] = "ratio"
    for suite in SUITE_NAMES:
        units[f"{SUITE_PREFIX}{suite}.s"] = "s"
        units[f"{SUITE_PREFIX}{suite}.headroom_min"] = "ratio"
    units[f"{WRITE_REPORT}.self_s"] = "s"
    units[f"{WRITE_REPORT}.bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Holds spans and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phases: list[tuple[str, int, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}
        for module, function, _, counter in LAYERS:
            self._add(module, function, lambda a, kw, name=layer_name(module, function): name, counter)
        self._add("verification", "run_suite", lambda a, kw: SUITE_PREFIX + str(a[0]), None)
        self._add("verification", "write_report", lambda a, kw: WRITE_REPORT, _report_bytes)

    def _add(self, module, function, namer, counter) -> None:
        original = getattr(importlib.import_module(f"polycauchy.{module}"), function)
        self._wrappers[id(original)] = (original, self._wrap(original, namer, counter))

    def _wrap(self, fn, namer, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [namer(args, kwargs), stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def phase(self, name: str):
        """Trace the enclosed calls as one phase (set-up or a pass)."""
        first = len(self.spans)
        for module_name, module in list(sys.modules.items()):
            if module_name != "polycauchy" and not module_name.startswith("polycauchy."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()
            self.phases.append((name, first, len(self.spans)))

    def summarize(self, first: int, last: int) -> dict[str, dict]:
        """Per span name: calls, self time, count, zero-settled calls, wall."""
        spans = self.spans
        child_time: dict[int, float] = {}
        reached: set[int] = set()
        for i in range(first, last):
            name, parent, start, end, _ = spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
                if name == ZERO_SHARE[1]:
                    reached.add(parent)
        out: dict[str, dict] = {}
        for i in range(first, last):
            name, _, start, end, count = spans[i]
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0, "zero": 0, "wall_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time.get(i, 0.0)
            s["wall_s"] += end - start
            s["count"] += count
            if name == ZERO_SHARE[0] and i not in reached:
                s["zero"] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tcount\n")
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t{count}\n")
            for name, first, last in self.phases:
                fh.write(f"# phase {name} spans {first}..{last}\n")


def layer_metrics(tracer: Tracer, suite_headroom: dict[str, float],
                  traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over one cold set-up plus one pass.

    Calls and work counts add the set-up phase to the first traced
    pass, so they repeat exactly from run to run.  Self times add the
    set-up to the median over the traced passes.  The tracing overhead
    is the median traced pass minus the median untraced pass.
    """
    setup = next((tracer.summarize(f, l) for n, f, l in tracer.phases if n == "setup"), {})
    passes = [tracer.summarize(f, l) for n, f, l in tracer.phases if n == "pass"]
    empty = {"calls": 0, "self_s": 0.0, "count": 0, "zero": 0, "wall_s": 0.0}

    def get(summary, name, key):
        return summary.get(name, empty)[key]

    def count(name, key):
        return get(setup, name, key) + get(passes[0], name, key)

    def timed(name, key):
        return get(setup, name, key) + statistics.median(get(p, name, key) for p in passes)

    out: dict[str, float] = {}
    for module, function, extra, _ in LAYERS:
        name = layer_name(module, function)
        out[f"{name}.calls"] = count(name, "calls")
        out[f"{name}.self_s"] = timed(name, "self_s")
        if extra:
            out[f"{name}.{extra}"] = count(name, "count")
        if name == ZERO_SHARE[0]:
            calls = count(name, "calls")
            out[f"{name}.zero_share"] = count(name, "zero") / calls if calls else 0.0
    for suite in SUITE_NAMES:
        out[f"{SUITE_PREFIX}{suite}.s"] = timed(SUITE_PREFIX + suite, "wall_s")
        out[f"{SUITE_PREFIX}{suite}.headroom_min"] = suite_headroom.get(suite, 0.0)
    out[f"{WRITE_REPORT}.self_s"] = timed(WRITE_REPORT, "self_s")
    out[f"{WRITE_REPORT}.bytes"] = count(WRITE_REPORT, "count")
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out
