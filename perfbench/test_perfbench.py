"""Tests of the benchmark's own arithmetic, oracles and metric tables."""

import json
import os

import numpy as np

from perfbench import oracles, tracing
from perfbench.run import END_TO_END, ROOT, tail_percentile
from perfbench.tracing import Span, self_times
from perfbench.workloads import WORKLOADS


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),    # overlaps a: covered once
        Span("c", 8.0, 12.0, 0, 0),   # runs past its parent: clipped at 10
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("a", 20.0, 21.0, -1, 1),  # a second top-level span of "a"
    ]
    got = self_times(spans)
    assert got["root"] == 10.0 - (6.0 - 1.0) - (10.0 - 8.0)
    assert got["a"] == (3.0 - 1.0) + 1.0
    assert got["b"] == 3.0
    assert got["c"] == 4.0
    assert got["leaf"] == 1.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert tail_percentile(samples) == (99.0, 990, 10)
    # One sample fewer leaves only 9 beyond p99, so p90 is chosen.
    p, value, beyond = tail_percentile(samples[:999])
    assert (p, value) == (90.0, 900) and beyond == 99


def test_tail_falls_back_to_lowest_rung_with_its_true_count():
    assert tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 8.0, 7.0]) == (50.0, 4.0, 4)


def _annulus(count, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    radii = rng.uniform(0.5, 2.0, count)
    return raw * (radii / np.linalg.norm(raw, axis=1))[:, None]


def test_theta_oracle_flags_a_perturbed_theta():
    pts = _annulus(50)
    theta = oracles.example1_theta(pts)
    assert oracles.theta_mismatches(pts, theta) == []
    theta[17, 2] += 1e-9
    assert oracles.theta_mismatches(pts, theta) != []


def test_theta_closed_form_is_minus_dlog_norm_squared():
    pts = _annulus(8, seed=1)
    h = 1e-6
    for k in range(2):
        step = np.zeros(2, dtype=complex)
        step[k] = h
        logs = [np.log(np.sum(np.abs(pts + s) ** 2, axis=1))
                for s in (step, -step, 1j * step, -1j * step)]
        d_dx = (logs[0] - logs[1]) / (2 * h)
        d_dy = (logs[2] - logs[3]) / (2 * h)
        dz = 0.5 * (d_dx - 1j * d_dy)
        theta = oracles.example1_theta(pts)
        assert np.allclose(theta[:, k], -dz, atol=1e-8)
        assert np.allclose(theta[:, 2 + k], -np.conj(dz), atol=1e-8)


def test_bisection_matches_equal_weight_closed_form():
    pts = _annulus(64, seed=2)
    # With equal weights r, sum |w|^2 e^{2 r t} = 1 gives t = -log|w|^2 / 2r.
    want = -np.log(np.sum(np.abs(pts) ** 2, axis=1)) / 3.0
    assert np.max(np.abs(oracles.implicit_t_bisection(pts, (1.5, 1.5)) - want)) < 1e-12
    assert oracles.implicit_t_mismatches(pts, (1.5, 1.5), want) == []
    assert oracles.implicit_t_mismatches(pts, (1.5, 1.5), want + 1e-8) != []


def test_verdict_gate_flags_a_flipped_exit_code():
    suite = {"exit": 0, "kind": "suite", "entry": "kodaira", "points": 16,
             "seed": 1, "parameters": {}}
    assert oracles.check(suite, 1, "")[0].startswith("exit code 1")
    expanding = {"exit": 1, "kind": "contraction", "is_contraction": False,
                 "spectral_radius": 1.5}
    report = json.dumps({"is_contraction": False, "spectral_radius": 1.5})
    assert oracles.check(expanding, 1, report) == []
    assert oracles.check(expanding, 0, report) != []
    refused = {"exit": 2, "kind": "refused"}
    assert oracles.check(refused, 2, "") == []
    assert oracles.check(refused, 0, "") != []


def test_suite_gate_requires_every_expected_check():
    expect = {"exit": 0, "kind": "suite", "entry": "kodaira", "points": 16,
              "seed": 1, "parameters": {"alpha": [0.5, 0.0]}}
    out = {"entry": "kodaira", "points": 16, "seed": 1, "status": "pass",
           "parameters": {"alpha": [0.5, 0.0]},
           "reports": [{"check_name": "fixed_point_free", "status": "pass"},
                       {"check_name": "contraction", "status": "pass"}]}
    assert oracles.check(expect, 0, json.dumps(out)) == []
    out["reports"].pop()
    assert oracles.check(expect, 0, json.dumps(out)) != []


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]


def test_request_streams_are_seeded():
    for workload in WORKLOADS.values():
        a = [workload.make(5, i, _NO_INPUTS).argv for i in range(0, 19)]
        b = [workload.make(5, i, _NO_INPUTS).argv for i in range(0, 19)]
        c = [workload.make(6, i, _NO_INPUTS).argv for i in range(0, 19)]
        assert a == b and a != c


_NO_INPUTS = None  # the first 19 requests of every workload need no files
