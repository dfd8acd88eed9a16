"""Outside-in tracing of hopflck's public functions.

:class:`Tracer` replaces, on the program's module objects, every attribute
bound to one of the traced functions by a wrapper that records a span (name,
start, end, parent span, request id) and a call count.  Names imported with
``from ... import`` are separate module attributes, so every module of the
package is searched for the original function object.  A call that re-enters
a function already on the span stack (the recursion of ``wirtinger_d`` and
``jsonify``) is counted but not timed, so only the outermost call has a span.

Spans stay in memory until :meth:`Tracer.write`.  :func:`self_times` derives
each layer's self time: span time minus the part covered by child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

MODULES = ("expr", "forms", "maps", "hopf", "verify", "cli", "sampling")

TRACED = (
    "expr.evaluate_many", "expr.wirtinger_d", "expr.substitute",
    "expr.formal_conjugate",
    "forms.exterior_d", "forms.wedge", "forms.pullback", "forms.del_and_delbar",
    "forms.evaluate_form_many", "forms.definiteness",
    "hopf.build_entry",
    "maps.contraction_test", "maps.jordan_form", "maps.fixed_point_free_check",
    "verify.run_suite", "verify.solve_lee_many", "verify.jsonify",
    "cli.main",
    "sampling.annulus_points",
)

# Per-layer metrics, each with the end-to-end metric and workload it should
# move.  ".s" is self time per traced request, ".calls" calls per traced
# request; the size counts repeat exactly for a given seed.
LAYER_METRICS = (
    ("expr.evaluate_many.s", "s", "points_per_s, peak_rss_mb on verify-dense"),
    ("expr.evaluate_many.calls", "count", "points_per_s, peak_rss_mb on verify-dense"),
    ("expr.implicit_t.s", "s", "points_per_s on verify-dense"),
    ("expr.wirtinger_d.s", "s", "request_tail_s on param-sweep"),
    ("expr.wirtinger_d.calls", "count", "request_tail_s on param-sweep"),
    ("expr.substitute.s", "s", "request_tail_s on param-sweep"),
    ("expr.formal_conjugate.s", "s", "request_tail_s on param-sweep"),
    ("expr.dag_nodes", "count", "request_p50_s on param-sweep"),
    ("expr.memo_bytes_computed", "bytes", "peak_rss_mb on verify-dense"),
    ("expr.rss_growth_mb", "MB", "peak_rss_mb on param-sweep"),
    ("forms.exterior_d.s", "s", "request_tail_s on param-sweep"),
    ("forms.exterior_d.calls", "count", "request_tail_s on param-sweep"),
    ("forms.wedge.s", "s", "request_tail_s on param-sweep"),
    ("forms.wedge.calls", "count", "request_tail_s on param-sweep"),
    ("forms.pullback.s", "s", "request_tail_s on param-sweep"),
    ("forms.pullback.calls", "count", "request_tail_s on param-sweep"),
    ("forms.del_and_delbar.s", "s", "request_tail_s on param-sweep"),
    ("forms.evaluate_form_many.s", "s", "points_per_s on verify-dense"),
    ("forms.definiteness.s", "s", "points_per_s on verify-dense"),
    ("forms.definiteness.calls", "count", "points_per_s on verify-dense"),
    ("hopf.build_entry.s", "s", "requests_per_s on param-sweep"),
    ("hopf.build_entry.calls", "count", "requests_per_s on param-sweep"),
    ("maps.contraction_test.s", "s", "requests_per_s on param-sweep"),
    ("maps.contraction_test.orbit_steps", "count", "requests_per_s on param-sweep"),
    ("maps.jordan_form.s", "s", "requests_per_s on param-sweep"),
    ("maps.fixed_point_free_check.s", "s", "requests_per_s on param-sweep"),
    ("verify.run_suite.s", "s",
     "points_per_s on verify-dense, request_p50_s on param-sweep"),
    ("verify.solve_lee_many.s", "s", "points_per_s on lee-dense"),
    ("verify.jsonify.s", "s", "points_per_s on lee-dense"),
    ("cli.main.s", "s",
     "points_per_s on lee-dense, request_p50_s on param-sweep"),
    ("cli.output_bytes", "bytes",
     "points_per_s on lee-dense, request_p50_s on param-sweep"),
    ("sampling.annulus_points.s", "s", "setup_s and request_p50_s on every workload"),
    ("trace.overhead_s", "s", "none: traced minus untraced mean request time"),
) + tuple(("%s.loc" % m, "lines", "none: source size at equal speed")
          for m in MODULES)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    request: int


class Tracer:
    """Spans and counts at the boundaries of the program's modules."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._open: set = set()
        self._patched: list = []

    # -- spans ----------------------------------------------------------------

    def _begin(self, name):
        # A list while open, so that closing it only sets its end time.
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])
        self._stack.append(len(self.spans) - 1)
        self._open.add(name)

    def _end(self):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        self._open.discard(span[0])

    @contextmanager
    def span(self, name):
        """A span recorded around the benchmark's own code."""
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _wrap(self, name, fn, on_return):
        counts, key, open_names = self.counts, name + ".calls", self._open

        def traced(*args, **kwargs):
            counts[key] += 1
            if name in open_names:
                return fn(*args, **kwargs)
            self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if on_return is not None:
                on_return(result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def _orbit_steps(self, result):
        self.counts["maps.contraction_test.orbit_steps"] += (
            result.iterations_needed or 0)

    def install(self, package):
        """Wrap every module attribute bound to a traced function."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        originals = {}
        for name in TRACED:
            module, attr = name.split(".")
            originals[id(getattr(getattr(package, module), attr))] = name
        hooks = {"maps.contraction_test": self._orbit_steps}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value, hooks.get(name)))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(Span._fields, span))) + "\n")


def self_times(spans) -> dict:
    """Total self time per span name: duration minus child coverage.

    ``spans`` holds (name, start, end, parent, request) records, as
    :class:`Span` tuples or as the tracer's lists.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def source_lines(path) -> int:
    """Non-blank lines that are not comments."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.lstrip().startswith("#"))
