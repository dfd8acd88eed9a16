"""Closed-loop benchmark of hopflck, driven through ``hopflck.cli.main``.

Run from the repository root:

    python3 -m perfbench --workload verify-dense --seed 1 --seconds 25 --trace 0

One client issues the workload's requests back to back, in-process, with
standard output captured in memory.  Every request is checked against its
known answer (see ``oracles.py``); a mismatch, a wrong exit code or an
exception counts as a failed request and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half of the
requests plainly and half with the program's public functions wrapped (see
``tracing.py``) and prints the per-layer metrics, normalized per traced
request; the spans are written to ``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the command exits
non-zero before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import oracles, tracing
from .workloads import WORKLOADS, control_round, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name, unit, better: the end-to-end metrics every untraced run prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("request_p50_s", "s", "lower"),
    ("request_tail_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10
PROBE_POINTS = 64


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples):
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples above its nearest rank.

    When even the lowest rung leaves fewer samples beyond it, that rung is
    reported anyway, with its true count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    choice = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        if choice is None or n - rank >= TAIL_BEYOND:
            choice = (p, ordered[rank - 1], n - rank)
    return choice


def rss_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------


def load_program():
    """Import hopflck from this checkout's ``src/`` (never an installed copy)."""
    init = os.path.join(SRC, "hopflck", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: no program at %s; run from a full checkout" % init)
    sys.path.insert(0, SRC)
    package = importlib.import_module("hopflck")
    importlib.import_module("hopflck.cli")
    if os.path.abspath(package.__file__) != init:
        sys.exit("perfbench: imported hopflck from %s, not %s"
                 % (package.__file__, init))
    return package


@dataclass
class Outcome:
    seconds: float
    output_bytes: int
    digest: str
    mismatches: list = field(default_factory=list)


class Client:
    """One closed-loop client: issues a request, checks it, then the next."""

    def __init__(self, program):
        self.program = program
        self.tracer = None
        # The t probe holds the unwrapped functions, so that its time never
        # lands in the layers it is compared with.
        self.annulus_points = program.sampling.annulus_points
        self.evaluate_many = program.expr.evaluate_many
        self.implicit_time = program.hopf.implicit_time
        self.outcomes: list = []
        self._entries: dict = {}

    def issue(self, request, request_id) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = request_id
        failure = None
        with self._span("request"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.program.cli.main(list(request.argv))
            except SystemExit as stop:  # argparse rejects usage this way
                code = stop.code
            except Exception:  # a raised error is a failed request, not a crash
                code, failure = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
        stdout = out.getvalue()
        data = stdout.encode()
        digest = hashlib.sha256(
            b"%r\n" % code + data + b"\0" + err.getvalue().encode()).hexdigest()
        outcome = Outcome(seconds, len(data), digest)
        if failure is not None:
            outcome.mismatches.append("raised: " + failure)
        else:
            outcome.mismatches += oracles.check(request.expect, code, stdout)
        if request.probe is not None:
            outcome.mismatches += self.probe(request.probe)
        self.outcomes.append((request, outcome))
        return outcome

    def probe(self, probe) -> list:
        """Evaluate the implicit radial coordinate t on the request's points
        and check a seeded subset against bisection."""
        weights, dim, count, seed = probe
        pts = self.annulus_points(dim, count, seed)
        with self._span("expr.implicit_t"):
            t = self.evaluate_many(self.implicit_time(weights), pts)
        pick = np.random.default_rng([seed, 3]).choice(
            count, size=min(PROBE_POINTS, count), replace=False)
        return oracles.implicit_t_mismatches(pts[pick], weights, t[pick])

    def _span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def entry_size(self, entry) -> tuple:
        """(unique DAG nodes, non-constant nodes) of an entry's forms and
        their exterior derivatives."""
        name, params = entry
        key = (name, tuple(sorted(params.items())))
        if key not in self._entries:
            built = self.program.hopf.build_entry(name, params)
            d = self.program.forms.exterior_d
            roots = [c for form in built.forms.values()
                     for f in (form, d(form)) for c in f.terms.values()]
            seen, stack = {}, list(roots)
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen[id(node)] = node
                    stack.extend(node.children())
            non_const = sum(1 for n in seen.values() if n.op != "const")
            self._entries[key] = (len(seen), non_const)
        return self._entries[key]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload, seed, directory):
    """Everything before the first request: import, inputs, first request."""
    program = load_program()
    inputs = write_inputs(directory, seed)
    first = workload.make(seed, 0, inputs)
    return program, inputs, first


def measure_setup(workload_name, seed) -> list:
    """Wall time to the first ready request, in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "--workload", workload_name,
             "--seed", str(seed), "--setup-probe", repr(start)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def setup_probe(workload, seed, start):
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        set_up(workload, seed, tmp)
        print(repr(time.perf_counter() - start))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace) -> dict:
    setup_times = [] if trace else measure_setup(workload.name, seed)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        program, inputs, first = set_up(workload, seed, tmp)
        client = Client(program)
        n = workload.budget(seconds)
        requests = [workload.make(seed, i, inputs) for i in range(1, n + 1)]

        warm = client.issue(first, 0)
        rss_warm = rss_mb()
        split = n // 2 if trace else n
        plain = [client.issue(r, i) for i, r in enumerate(requests[:split], 1)]
        rss_growth = rss_mb() - rss_warm

        tracer = tracing.Tracer() if trace else None
        if trace:
            client.tracer = tracer
            tracer.install(program)
        try:
            traced = [client.issue(r, i)
                      for i, r in enumerate(requests[split:], split + 1)]
            for k, r in enumerate(control_round(seed, inputs), n + 1):
                client.issue(r, k)
        finally:
            if trace:
                tracer.uninstall()
                client.tracer = None
        again = client.issue(first, 0)

    if again.digest != warm.digest:
        again.mismatches.append("re-issued first request changed its output")
    report = {
        "workload": workload.name, "seed": seed, "requests": n,
        "outcomes": client.outcomes, "rss_growth_mb": rss_growth,
        "digest": hashlib.sha256("".join(
            o.digest for _, o in client.outcomes).encode()).hexdigest(),
    }
    if trace:
        report["metrics"] = layer_metrics(client, tracer, requests[split:],
                                          plain, traced, rss_growth)
        tracer.write(os.path.join(OUT, "spans-%s.jsonl" % workload.name))
    else:
        report["metrics"], report["tail"] = end_to_end_metrics(
            requests, plain, setup_times)
    return report


def end_to_end_metrics(requests, outcomes, setup_times):
    times = [o.seconds for o in outcomes]
    busy = sum(times)
    p, tail, beyond = tail_percentile(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail,
        "points_per_s": sum(r.points for r in requests) / busy,
        "requests_per_s": len(times) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    return metrics, (p, beyond, len(times))


def layer_metrics(client, tracer, traced_requests, plain, traced, rss_growth):
    k = len(traced)
    self_s = tracing.self_times(tracer.spans)
    values = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "s" and unit == "s" and layer:
            values[name] = self_s.get(layer, 0.0) / k
        elif kind in ("calls", "orbit_steps"):
            values[name] = tracer.counts[name] / k
    sizes = [(client.entry_size(r.entry), r.points)
             for r in traced_requests if r.entry]
    values["expr.dag_nodes"] = statistics.fmean(s[0] for s, _ in sizes)
    values["expr.memo_bytes_computed"] = statistics.fmean(
        s[1] * points * 16 for s, points in sizes)
    values["expr.rss_growth_mb"] = rss_growth
    values["cli.output_bytes"] = statistics.fmean(o.output_bytes for o in traced)
    values["trace.overhead_s"] = (statistics.fmean(o.seconds for o in traced)
                                  - statistics.fmean(o.seconds for o in plain))
    for module in tracing.MODULES:
        values["%s.loc" % module] = tracing.source_lines(
            os.path.join(SRC, "hopflck", "%s.py" % module))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.LAYER_METRICS}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        setup_probe(workload, args.seed, args.setup_probe)
        return 0

    load_program()  # fail before measuring when the program is absent
    report = run(workload, args.seed, args.seconds, bool(args.trace))
    outcomes = [o for _, o in report["outcomes"]]
    failed = [(r, o) for r, o in report["outcomes"] if o.mismatches]
    for request, outcome in failed[:5]:
        print("MISMATCH %s: %s" % (" ".join(request.argv),
                                   "; ".join(outcome.mismatches)),
              file=sys.stderr)

    print("workload %s  seed %d  %d requests (+ warm-up, re-issue, %d controls)"
          % (report["workload"], report["seed"], report["requests"],
             len(outcomes) - report["requests"] - 2))
    for name, metric in report["metrics"].items():
        print("  %-36s %.6g %s" % (name, metric["value"], metric["unit"]))
    if "tail" in report:
        print("  request_tail_s is p%g with %d of %d samples beyond it"
              % report["tail"])
        print("  %-36s %.6g MB" % ("rss_growth_mb", report["rss_growth_mb"]))
    print("  %-36s %.6g (%d of %d requests)"
          % ("failed_fraction", len(failed) / len(outcomes), len(failed),
             len(outcomes)))
    print("  report digest %s" % report["digest"])
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": report["metrics"]}))
    return 1 if failed else 0
