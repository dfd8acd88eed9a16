"""End-to-end tests of the command-line interface, run in process."""

import enum
import gc
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import hopflck.cli as cli
import hopflck.expr as ex
import hopflck.forms as fm
import hopflck.hopf as hopf
import hopflck.maps as mp
import hopflck.verify as vf
from hopflck.sampling import annulus_points

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def lee_reference(out):
    """A solve-lee report as json.dumps renders it, from a fresh solve.

    The header is taken from ``out`` and the results are recomputed with
    the public solve_lee_many on the report's own entry, points and seed.
    """
    payload = json.loads(out)
    params = {k: complex(*v) if isinstance(v, list) else v
              for k, v in payload["parameters"].items()}
    entry = hopf.build_entry(payload["entry"], params)
    pts = annulus_points(entry.ambient_dim, payload["points"], payload["seed"])
    results = vf.solve_lee_many(entry.forms["Omega"], pts)
    assert payload["max_residual"] == max(r.residual for r in results)
    assert payload["max_reality_defect"] == max(r.reality_defect
                                                for r in results)
    payload["results"] = [r.to_json() for r in results]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def assert_same_text(got, want):
    """Name the first differing line; pytest's own diff of megabyte strings
    takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    k = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines))
              if a != b), min(len(got_lines), len(want_lines)))
    pytest.fail("line %d differs: got %r, want %r" % (
        k + 1, got_lines[k] if k < len(got_lines) else None,
        want_lines[k] if k < len(want_lines) else None))


def quadratic_map_file(tmp_path):
    g = mp.PolyAutomorphism.from_tables(
        [{(1, 0): 1.0, (0, 2): 1.0}, {(0, 1): 1.0}])
    return write_json(tmp_path / "quad.json", mp.map_to_json(g))


def matrix_file(tmp_path, matrix, name="mat.json"):
    return write_json(tmp_path / name,
                      {"matrix": mp.matrix_to_json(np.asarray(matrix))})


# Per entry at --points 200: the checks in order as (check_name, status,
# tolerance, num_points), then the contraction report's radius, eps,
# iterations_needed, certified_map and reason.  Residual digits are left
# out, since they follow the machine's libm and BLAS; every tolerance, budget
# and seed below shows up in one of these fields.
_CHECKS = ("lck_residual", "lee_closedness", "definiteness")
VERIFY_PINS = {
    "example1": (
        [*zip(_CHECKS, ("pass",) * 3, (1e-10, 1e-10, 0.0), (200,) * 3),
         ("invariance_theta", "pass", 1e-10, 200),
         ("invariance_psi", "pass", 1e-10, 200),
         ("fixed_point_free", "pass", 0.0, 1), ("contraction", "pass", 0.0, 72)],
        (1.0, 1e-6, 20, "generator_inverse", "")),
    "example2": (
        [*zip(_CHECKS, ("pass",) * 3, (1e-10, 1e-10, 0.0), (200,) * 3),
         ("potential_homothety", "pass", 1e-10, 200),
         ("invariance_theta", "pass", 1e-10, 200),
         ("fixed_point_free", "pass", 0.0, 1), ("contraction", "pass", 0.0, 72)],
        (1.0, 1e-6, 20, "generator_inverse", "")),
    "kodaira": (
        [("fixed_point_free", "pass", 0.0, 1), ("contraction", "pass", 0.0, 72)],
        (1.0, 1e-6, 26, "generator", "")),
    "vaisman": (
        [*zip(_CHECKS, ("pass",) * 3, (1e-8, 1e-8, 0.0), (200,) * 3),
         ("invariance_theta", "pass", 1e-8, 200),
         ("invariance_psi", "pass", 1e-8, 200),
         ("fixed_point_free", "pass", 0.0, 1), ("contraction", "pass", 0.0, 72)],
        (1.0, 1e-6, 14, "generator", "")),
}


class TestVerifyCommand:
    @pytest.mark.parametrize("entry", sorted(VERIFY_PINS))
    def test_platform_independent_fields_pinned(self, capsys, entry):
        code, out, err = run(capsys, ["verify", "--entry", entry,
                                      "--points", "200"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        checks, contraction = VERIFY_PINS[entry]
        assert payload["status"] == "pass"
        assert [(r["check_name"], r["status"], r["tolerance"], r["num_points"])
                for r in payload["reports"]] == checks
        assert {r["seed"] for r in payload["reports"]} == {42}
        details = payload["reports"][-1]["details"]
        assert tuple(details[k] for k in (
            "radius", "eps", "iterations_needed", "certified_map",
            "reason")) == contraction

    @pytest.mark.parametrize("r1, r2", [("0.2", "5"), ("1", "10"),
                                        ("5", "0.05")])
    def test_spread_weights_give_a_report(self, capsys, r1, r2):
        # The implicit-time solve converges however far apart the weights
        # are: a report, and no warning, whatever the checks find.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify", "--entry", "vaisman",
                                          "--points", "300", "--r1", r1,
                                          "--r2", r2])
        payload = json.loads(out)
        assert err == ""
        assert code == (0 if payload["status"] == "pass" else 1)

    def test_orbit_budget_pinned(self, capsys):
        code, out, _ = run(capsys, ["verify", "--entry", "kodaira", "--points",
                                    "200", "--alpha-re", "0.99", "--t", "100"])
        assert code == 1
        details = json.loads(out)["reports"][-1]["details"]
        assert (details["certified_map"], details["iterations_needed"],
                details["reason"]) == (
            None, None, "norms still >= eps after 1000 iterations")

    def test_passing_entry(self, capsys):
        code, out, _ = run(capsys, ["verify", "--entry", "example1",
                                    "--points", "50", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["entry"] == "example1"
        assert payload["status"] == "pass"
        assert payload["points"] == 50 and payload["seed"] == 7
        names = [r["check_name"] for r in payload["reports"]]
        assert names[0] == "lck_residual" and names[-1] == "contraction"

    def test_output_is_byte_identical_across_runs(self, capsys, tmp_path):
        argv = ["verify", "--entry", "example1", "--points", "60"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_flags_reach_entry(self, capsys):
        code, out, _ = run(capsys, ["verify", "--entry", "example1",
                                    "--points", "30", "--mu-re", "3"])
        assert code == 0
        assert json.loads(out)["parameters"]["mu"] == [3.0, 0.0]

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, ["verify", "--entry", "example1",
                                    "--points", "30", "--tol", "1e-20"])
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_config_file(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 40, "seed": 3,
                           "parameters": {"mu": [2.5, 0.0]}})
        code, out, _ = run(capsys, ["verify", "--file", conf])
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 40 and payload["seed"] == 3
        assert payload["parameters"]["mu"] == [2.5, 0.0]

    def test_flags_override_config_file(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 40})
        code, out, _ = run(capsys, ["verify", "--file", conf,
                                    "--points", "25"])
        assert code == 0 and json.loads(out)["points"] == 25

    def test_entry_and_file_conflict(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json", {"entry": "example1"})
        code, _, err = run(capsys, ["verify", "--entry", "example1",
                                    "--file", conf])
        assert code == 2 and "not both" in err

    def test_missing_entry(self, capsys):
        code, _, err = run(capsys, ["verify", "--points", "10"])
        assert code == 2 and "entry" in err

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, ["verify", "--entry", "zzz"])
        assert code == 2 and "known entries" in err

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, ["verify", "--entry", "example1",
                                    "--mu-re", "0.5"])
        assert code == 2 and "mu" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "извне": 1})
        code, _, err = run(capsys, ["verify", "--file", conf])
        assert code == 2 and "valid keys" in err

    def test_unknown_parameter_key(self, capsys, tmp_path):
        for entry in ("example1", "example2"):
            conf = write_json(tmp_path / "conf.json",
                              {"entry": entry, "parameters": {"beta": 1}})
            code, _, err = run(capsys, ["verify", "--file", conf])
            assert code == 2 and "beta" in err

    def test_config_file_reaches_example2_dimension(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example2", "points": 40,
                           "parameters": {"n": 3}})
        code, out, _ = run(capsys, ["verify", "--file", conf])
        assert code == 0
        assert json.loads(out)["parameters"]["n"] == 3
        assert '"n": 3\n' in out

    def test_non_integral_dimension_rejected(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example2", "parameters": {"n": 2.5}})
        code, _, err = run(capsys, ["verify", "--file", conf])
        assert code == 2 and "dimension n" in err and "2.5" in err

    @pytest.mark.parametrize("command", ["verify", "solve-lee"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_oversized_dimension_rejected(self, capsys, tmp_path, command,
                                          source):
        n = 10 ** 20
        argv = [command, "--entry", "example2", "--n", str(n)]
        if source == "file":
            argv = [command, "--file", write_json(
                tmp_path / "conf.json",
                {"entry": "example2", "parameters": {"n": n}})]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == ("error: example2 needs dimension 2 <= n <= %d, got "
                       "n = %d\n" % (hopf.MAX_DIMENSION, n))

    def test_non_finite_parameter_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--entry", "vaisman",
                                    "--r1", "nan"])
        assert code == 2 and "finite" in err and "r1 = nan" in err
        code, _, err = run(capsys, ["verify", "--entry", "kodaira",
                                    "--t", "nan"])
        assert code == 2 and "finite" in err and "t = (nan+0j)" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_is_refused(self, capsys):
        # Every invariance residual would be NaN at mu = 1e200, where |mu
        # z|^2 overflows: refused before the suite runs, naming mu.
        code, out, err = run(capsys, ["verify", "--entry", "example1",
                                      "--mu-re", "1e200", "--points", "3"])
        assert (code, out) == (2, "")
        assert err == ("error: example1 needs |mu z|^2 finite for |z| <= 2, "
                       "got mu = (1e+200+0j)\n")

    @pytest.mark.filterwarnings("error")
    def test_largest_admitted_mu_passes(self, capsys):
        # |mu| = sqrt(float max) / ANNULUS_OUTER, the largest |mu| whose
        # deck image of the annulus squares within the float range.
        code, out, err = run(capsys, ["verify", "--entry", "example1",
                                      "--mu-re", "6.703903964971298e153"])
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "pass"
        for entry in ("example1", "example2"):
            code, out, err = run(capsys, ["verify", "--entry", entry,
                                          "--mu-re", "1e154"])
            assert (code, out) == (2, "")
            assert err == ("error: %s needs |mu z|^2 finite for |z| <= 2, "
                           "got mu = (1e+154+0j)\n" % entry)

    @pytest.mark.parametrize("key,value", [
        ("points", 2.7), ("points", True), ("seed", 4.5), ("seed", False),
    ])
    def test_non_integral_points_or_seed_rejected(self, capsys, tmp_path,
                                                  key, value):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 20, key: value})
        code, _, err = run(capsys, ["verify", "--file", conf])
        assert code == 2 and key in err and repr(value) in err

    @pytest.mark.parametrize("command", ["verify", "solve-lee"])
    def test_oversized_points_flag_rejected(self, capsys, command):
        code, out, err = run(capsys, [command, "--entry", "example1",
                                      "--points", "100000000000000"])
        assert code == 2 and out == ""
        assert err == ("error: points must be <= %d, got 100000000000000\n"
                       % vf.MAX_POINTS)

    @pytest.mark.parametrize("command", ["verify", "solve-lee"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_rejected(self, capsys, tmp_path, command, source):
        argv = [command, "--entry", "example1", "--seed", "-1"]
        if source == "file":
            argv = [command, "--file", write_json(
                tmp_path / "conf.json", {"entry": "example1", "seed": -1})]
        assert run(capsys, argv) == (2, "", "error: seed must be >= 0, "
                                            "got -1\n")

    @pytest.mark.parametrize("command", ["verify", "solve-lee"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_infinite_tol_rejected_before_any_run(self, capsys, tmp_path,
                                                  command, source):
        argv = [command, "--entry", "example1", "--tol", "inf"]
        if source == "file":
            path = tmp_path / "conf.json"
            path.write_text('{"entry": "example1", "tol": Infinity}')
            argv = [command, "--file", str(path)]
        assert run(capsys, argv) == (2, "", "error: tol must be positive "
                                            "and finite, got inf\n")

    def test_oversized_points_in_config_rejected(self, capsys, tmp_path):
        # A whole float beyond any array numpy can allocate.
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 1e30})
        code, _, err = run(capsys, ["verify", "--file", conf])
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: points must be <= ")
        assert str(int(1e30)) in err

    def test_integral_float_points_accepted(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 20.0, "seed": 3.0})
        code, out, _ = run(capsys, ["verify", "--file", conf])
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 20 and payload["seed"] == 3

    def test_boolean_parameter_rejected(self, capsys, tmp_path):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "vaisman", "points": 20,
                           "parameters": {"r1": True}})
        code, _, err = run(capsys, ["verify", "--file", conf])
        assert code == 2 and "True" in err

    @pytest.mark.parametrize("key,value", [
        ("out", 7), ("out", 1), ("entry", ["example1"]), ("points", [1]),
        ("tol", {}), ("seed", "3"), ("tol", "1e-8"), ("tol", 10 ** 400),
    ])
    def test_config_value_of_wrong_json_type_rejected(self, capsys, tmp_path,
                                                      key, value):
        # open() takes an integer "out" as a file descriptor, which it
        # writes to and then closes: 1 would close standard output.
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "points": 20, key: value})
        code, out, err = run(capsys, ["verify", "--file", conf])
        assert (code, out) == (2, "")
        # An integer past the float range is shown by its order of
        # magnitude, as for points and seed.
        assert err == "error: config %r must be a %s, got %s\n" % (
            key, {"out": "string", "entry": "string", "tol": "real number"}
            .get(key, "whole number"),
            "~10^400" if value == 10 ** 400 else repr(value))

    @pytest.mark.parametrize("value", [[3, "a"], [3, 0, 7], [3, False], "3",
                                       10 ** 400])
    def test_config_parameter_of_wrong_json_type_rejected(
            self, capsys, tmp_path, value):
        conf = write_json(tmp_path / "conf.json",
                          {"entry": "example1", "parameters": {"mu": value}})
        code, out, err = run(capsys, ["verify", "--file", conf])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: parameter mu")

    @pytest.mark.parametrize("flags,conf", [
        ([], None), (["--mu-re", "3"], None), ([], {"mu": 3}),
        ([], {"mu": [3, 0]}),
    ])
    def test_example2_reports_mu_as_a_pair(self, capsys, tmp_path, flags,
                                           conf):
        argv = ["verify", "--points", "20"] + flags
        if conf is None:
            argv += ["--entry", "example2"]
        else:
            argv += ["--file", write_json(tmp_path / "conf.json", {
                "entry": "example2", "parameters": conf})]
        code, out, _ = run(capsys, argv)
        mu = 3.0 if flags or conf else 2.0
        assert code == 0 and json.loads(out)["parameters"]["mu"] == [mu, 0.0]

    def test_evaluation_failure_exits_1(self, capsys, monkeypatch):
        def fail(*_):
            raise fm.FormEvaluationError((0, 1), ex.NewtonDivergence("x"))
        monkeypatch.setattr(vf, "run_suite", fail)
        code, out, err = run(capsys, ["verify", "--entry", "example1",
                                      "--points", "20"])
        assert code == 1 and out == "" and "error" in err

    def test_tiny_scaling_generator_accepted(self, capsys):
        # The generator is 1e-8 * I: |det| = 1e-16, condition number 1.
        code, out, _ = run(capsys, ["verify", "--entry", "example1",
                                    "--mu-re", "1e8", "--points", "50"])
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_ill_conditioned_generator_rejected(self, capsys):
        # The generator has condition number e^50.
        code, out, err = run(capsys, ["verify", "--entry", "vaisman",
                                      "--r1", "0.01", "--r2", "50"])
        assert code == 2 and out == ""
        assert "sigma_min/sigma_max" in err

    def test_unreadable_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["verify", "--file", str(bad)])
        assert code == 2 and "JSON" in err

    @pytest.mark.parametrize("command,payload,message", [
        ("verify", [1, 2], "config file {} must hold a JSON object"),
        ("verify", {"entry": "example1", "parameters": [1]},
         "config 'parameters' must be an object"),
        ("verify", None, "cannot read {}: "),
        ("jordan", [1, 2], "map file {} must hold a JSON object"),
        ("contraction", [1, 2], "map file {} must hold a JSON object"),
    ], ids=["verify-list", "verify-parameters-list", "verify-missing",
            "jordan-list", "contraction-list"])
    def test_file_that_is_not_a_json_object_refused(self, capsys, tmp_path,
                                                    command, payload,
                                                    message):
        path = tmp_path / "file.json"
        if payload is not None:
            write_json(path, payload)
        code, out, err = run(capsys, [command, "--file", str(path)])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: " + message.format(path))


# The (r1, r2) pairs of the grid below whose verify exits 1, as run before
# the suite's tape was value-numbered: definiteness fails where one weight
# is more than ten times the other.
_SPREAD = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
_SPREAD_FAILING = {(0.05, 1.0), (0.05, 2.0), (0.05, 5.0), (0.1, 2.0),
                   (0.1, 5.0), (0.2, 5.0), (1.0, 0.05), (2.0, 0.05),
                   (2.0, 0.1), (5.0, 0.05), (5.0, 0.1), (5.0, 0.2)}


@pytest.mark.parametrize("r1", _SPREAD)
@pytest.mark.parametrize("r2", _SPREAD)
def test_spread_weights_keep_their_exit_status(capsys, r1, r2):
    code, out, err = run(capsys, ["verify", "--entry", "vaisman", "--points",
                                  "1000", "--r1=%r" % r1, "--r2=%r" % r2])
    failed = [r["check_name"] for r in json.loads(out)["reports"]
              if r["status"] != "pass"]
    assert err == ""
    if (r1, r2) in _SPREAD_FAILING:
        assert (code, failed) == (1, ["definiteness"])
    else:
        assert (code, failed) == (0, [])


class TestSuiteCacheThroughCli:
    """verify runs a compiled template per entry; rebinding it must give
    what a fresh process gives."""

    BASE = ["--points", "300", "--seed", "9"]

    @pytest.mark.parametrize("name,a,b", [
        ("vaisman", ["--r1=0.8", "--r2=1.7", "--p1=0.5", "--p2=-1.1"],
         ["--r1=1.9", "--r2=0.6", "--p1=2.0", "--p2=0.3"]),
        ("example1", ["--mu-re=1.5", "--mu-im=1.0"],
         ["--mu-re=-3.0", "--mu-im=0.5"]),
        ("example2", ["--mu-re=0.5", "--mu-im=-2.0"],
         ["--mu-re=2.5", "--mu-im=0.0"]),
        ("kodaira", ["--alpha-re=0.3", "--alpha-im=0.4", "--t=0.5-1j"],
         ["--alpha-re=-0.6", "--alpha-im=0.1", "--t=2+0j"]),
    ])
    def test_rebinding_gives_a_fresh_process_bytes(self, capsys, name, a, b):
        argv = ["verify", "--entry", name] + self.BASE
        outs = []
        for flags in (a, b, a):
            code, out, err = run(capsys, argv + flags)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[2] != outs[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "hopflck.cli"] + argv + a,
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert fresh.stdout == outs[0]

    def test_warm_request_leaves_no_cyclic_garbage(self, capsys):
        # Building the vaisman forms per request left 1,125 objects for the
        # cyclic collector; the stdlib JSON encoder alone leaves 33.
        argv = ["verify", "--entry", "vaisman", "--points", "100"]
        run(capsys, argv)
        gc.collect()
        gc.disable()
        try:
            run(capsys, argv + ["--r1=1.3", "--p2=-0.7"])
            found = gc.collect()
        finally:
            gc.enable()
        assert found <= 40

    def test_building_vaisman_forms_leaves_no_cyclic_garbage(self):
        # The derivative of an Exp or ImplicitT node refers back to that
        # node, so a node that kept its derivatives would be a cycle.
        gc.collect()
        gc.disable()
        try:
            entry = hopf.build_entry("vaisman", {"r1": 1.3, "p2": -0.7})
            d_omega = fm.exterior_d(entry.forms["Omega"])
            del entry, d_omega
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_solve_lee_vaisman_leaves_little_cyclic_garbage(self, capsys):
        # The stdlib JSON encoder alone leaves 33.
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, ["solve-lee", "--entry", "vaisman",
                                      "--points", "100"])
            found = gc.collect()
        finally:
            gc.enable()
        assert code == 0 and found <= 40

    def test_repeated_wirtinger_d_is_one_node_and_no_cycle(self):
        # Weights no catalog entry uses, so every node here is new.
        gc.collect()
        gc.disable()
        try:
            t = ex.implicit_t((1.25, 3.75))
            e = ex.mul(ex.exp(ex.mul(2.0, t)), ex.zbar(1))
            first = ex.wirtinger_d(e, 1)
            same = ex.wirtinger_d(e, 1) is first
            del t, e, first
            found = gc.collect()
        finally:
            gc.enable()
        assert same and found == 0


class TestDeformCommand:
    def test_linearize_quadratic(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["deform", "--file",
                                    quadratic_map_file(tmp_path),
                                    "--family", "linearize", "--t", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "linearize"
        assert payload["at_one_equals_input"] is True
        assert payload["limit_equals_linear_part"] is True
        at = mp.map_from_json(payload["map_at_t"])
        assert at.eval((1.0, 1.0)) == (1.5, 1.0)
        assert mp.map_from_json(payload["limit0"]).is_linear()

    def test_linearize_accepts_matrix_file(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 1.0], [0.0, 0.5]])
        code, out, _ = run(capsys, ["deform", "--file", path,
                                    "--family", "linearize"])
        assert code == 0
        assert json.loads(out)["at_one_equals_input"] is True

    def test_diagonalize_jordan_matrix(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 1.0], [0.0, 0.5]])
        code, out, _ = run(capsys, ["deform", "--file", path,
                                    "--family", "diagonalize", "--t", "0.25"])
        assert code == 0
        payload = json.loads(out)
        at = mp.matrix_from_json(payload["matrix_at_t"])
        assert at[0, 1] == 0.25
        lim = mp.matrix_from_json(payload["limit0"])
        assert np.array_equal(lim, np.diag([0.5, 0.5]))

    def test_diagonalize_rejects_nonlinear_map(self, capsys, tmp_path):
        code, _, err = run(capsys, ["deform", "--file",
                                    quadratic_map_file(tmp_path),
                                    "--family", "diagonalize"])
        assert code == 2 and "matrix" in err

    def test_diagonalize_rejects_non_jordan_matrix(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[1.0, 0.5], [0.0, 1.0]])
        code, _, err = run(capsys, ["deform", "--file", path,
                                    "--family", "diagonalize"])
        assert code == 2 and "neither 0 nor 1" in err

    def test_file_without_map_or_matrix(self, capsys, tmp_path):
        path = write_json(tmp_path / "empty.json", {"other": 1})
        code, _, err = run(capsys, ["deform", "--file", path,
                                    "--family", "linearize"])
        assert code == 2 and "components" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, out, _ = run(capsys, ["deform", "--file",
                                    quadratic_map_file(tmp_path),
                                    "--family", "linearize",
                                    "--out", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["command"] == "deform"

    # Standard output of these three requests before both families became
    # one ScalingFamily, in compact form; the test re-indents it the way the
    # CLI writes JSON and compares bytes.
    PINNED = {
        "mixed-blocks": (
            "diagonalize", "0.25",
            [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]],
            '{"command": "deform", "family": "diagonalize", "limit0": '
            '[[[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0], '
            '[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]], '
            '"matrix_at_t": [[[2.0, 0.0], [0.25, 0.0], [0.0, 0.0]], '
            '[[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], '
            '[5.0, 0.0]]], "t": [0.25, 0.0]}'),
        "quadratic-map": (
            "linearize", "0.5", None,
            '{"at_one_equals_input": true, "command": "deform", '
            '"family": "linearize", "limit0": {"components": '
            '[[{"coeff": [1.0, 0.0], "monomial": [1, 0]}], '
            '[{"coeff": [1.0, 0.0], "monomial": [0, 1]}]], "dim": 2}, '
            '"limit_equals_linear_part": true, "map_at_t": {"components": '
            '[[{"coeff": [0.5, 0.0], "monomial": [0, 2]}, '
            '{"coeff": [1.0, 0.0], "monomial": [1, 0]}], '
            '[{"coeff": [1.0, 0.0], "monomial": [0, 1]}]], "dim": 2}, '
            '"t": [0.5, 0.0]}'),
        # The superdiagonal 1 + 1e-13 snaps to exactly 1, so it prints t.
        "snapped-superdiagonal": (
            "diagonalize", "0.25", [[0.5, 1 + 1e-13], [0.0, 0.5]],
            '{"command": "deform", "family": "diagonalize", "limit0": '
            '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], '
            '"matrix_at_t": [[[0.5, 0.0], [0.25, 0.0]], [[0.0, 0.0], '
            '[0.5, 0.0]]], "t": [0.25, 0.0]}'),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_stdout_bytes_pinned(self, capsys, tmp_path, case):
        family, t, matrix, compact = self.PINNED[case]
        path = (quadratic_map_file(tmp_path) if matrix is None
                else matrix_file(tmp_path, matrix))
        code, out, err = run(capsys, ["deform", "--file", path,
                                      "--family", family, "--t", t])
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(compact), sort_keys=True,
                                 indent=2) + "\n"

    @pytest.mark.parametrize("family", ["linearize", "diagonalize"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf", "nan+1j", "1+nanj",
                                   "1-infj"])
    def test_non_finite_t_rejected(self, capsys, tmp_path, family, t):
        path = matrix_file(tmp_path, [[0.5, 1.0], [0.0, 0.5]])
        code, out, err = run(capsys, ["deform", "--file", path,
                                      "--family", family, "--t=" + t])
        assert (code, out) == (2, "")
        assert err == "error: deform needs a finite --t, got %r\n" % complex(t)

    def test_overflowing_coefficient_rejected(self, capsys, tmp_path):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 1.0, (0, 3): 1.0}, {(0, 1): 1.0}])
        path = write_json(tmp_path / "cubic.json", mp.map_to_json(g))
        code, out, err = run(capsys, ["deform", "--file", path,
                                      "--family", "linearize", "--t", "1e200"])
        assert (code, out) == (2, "")
        assert err == ("error: family coefficient c t^2 is not finite at "
                       "t = (1e+200+0j)\n")

    @pytest.mark.parametrize("family", ["linearize", "diagonalize"])
    def test_singular_jordan_matrix_rejected(self, capsys, tmp_path, family):
        path = matrix_file(tmp_path, [[0.0, 1.0], [0.0, 0.0]])
        code, out, err = run(capsys, ["deform", "--file", path,
                                      "--family", family])
        assert (code, out) == (2, "")
        assert "sigma_min/sigma_max" in err


class TestJordanCommand:
    def test_diagonalizable(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[2.0, 0.0], [0.0, 3.0]])
        code, out, _ = run(capsys, ["jordan", "--file", path])
        assert code == 0
        payload = json.loads(out)
        assert sorted(b["size"] for b in payload["blocks"]) == [1, 1]
        assert payload["reconstruction_residual"] < 1e-12

    def test_defective(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 1.0], [0.0, 0.5]])
        code, out, _ = run(capsys, ["jordan", "--file", path])
        assert code == 0
        payload = json.loads(out)
        assert [b["size"] for b in payload["blocks"]] == [2]
        assert payload["blocks"][0]["eigenvalue"] == pytest.approx([0.5, 0.0])

    def test_gray_zone_reports_failure(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 5e-9], [0.0, 0.5]])
        code, out, err = run(capsys, ["jordan", "--file", path])
        assert code == 1
        assert "gray zone" in json.loads(out)["error"]
        assert "jordan" in err

    def test_needs_matrix_key(self, capsys, tmp_path):
        code, _, err = run(capsys, ["jordan", "--file",
                                    quadratic_map_file(tmp_path)])
        assert code == 2 and "matrix" in err

    def test_non_finite_entry_rejected(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[np.nan, 1.0], [0.0, 0.5]])
        code, out, err = run(capsys, ["jordan", "--file", path])
        assert (code, out) == (2, "")
        assert err == "error: matrix entry (0, 0) = (nan+0j) is not finite\n"

    @pytest.mark.parametrize("matrix,message", [
        ([[1, 2], [3, 4]], "matrix entry 1 must be a [re, im] pair"),
        ([[["a", 0]]], 'matrix entry ["a", 0] must be a [re, im] pair'),
        (5, "matrix JSON must be a square list of rows"),
        ([[[1, 0], [0, 0]], [[0, 0]]], "matrix JSON must be a square"),
        ([[[1, 0, 7]]], "matrix entry [1, 0, 7] must be a [re, im] pair"),
        ([[[True, 0]]], "matrix entry [true, 0] must be a [re, im] pair"),
    ], ids=["reals", "string-part", "number", "ragged", "three-numbers",
            "boolean-part"])
    def test_malformed_matrix_rejected(self, capsys, tmp_path, matrix,
                                       message):
        path = write_json(tmp_path / "bad.json", {"matrix": matrix})
        code, out, err = run(capsys, ["jordan", "--file", path])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: " + message)


class TestContractionCommand:
    def test_certifies_uniform_contraction(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        code, out, _ = run(capsys, ["contraction", "--file", path,
                                    "--radius", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_contraction"] is True
        assert payload["iterations_needed"] == 21
        assert payload["num_points"] == 72

    def test_divergence_guard_scales_with_the_radius(self, capsys, tmp_path):
        path = matrix_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        code, out, _ = run(capsys, ["contraction", "--file", path,
                                    "--radius", "1e7"])
        assert code == 0
        assert json.loads(out)["iterations_needed"] == 44
        # A guard of 1e6 * 1e200 squares past the float range.
        code, out, err = run(capsys, ["contraction", "--file", path,
                                      "--radius", "1e200"])
        assert (code, out) == (2, "")
        assert err == ("error: contraction radius 1e+200: its divergence "
                       "guard 1e+206 squares past the float range\n")

    def test_identity_fails(self, capsys, tmp_path):
        path = matrix_file(tmp_path, np.eye(2))
        code, out, _ = run(capsys, ["contraction", "--file", path])
        assert code == 1
        payload = json.loads(out)
        assert payload["is_contraction"] is False
        assert "spectral" in payload["reason"]

    @pytest.mark.parametrize("flag,value", [
        ("--radius", "0"), ("--radius", "inf"), ("--eps", "-1e-6"),
        ("--eps", "nan"),
    ])
    def test_non_positive_or_non_finite_settings_rejected(
            self, capsys, tmp_path, flag, value):
        path = matrix_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        code, out, err = run(capsys, ["contraction", "--file", path,
                                      "%s=%s" % (flag, value)])
        assert code == 2 and out == ""
        assert flag[2:] in err and repr(float(value)) in err

    @pytest.mark.parametrize("components,message", [
        ([[{"coeff": [0.5, 0]}], [{"monomial": [0, 1], "coeff": [0.5, 0]}]],
         'map term {"coeff": [0.5, 0]} needs a monomial list and a coeff'),
        ([[{"monomial": [1, 0], "coeff": 0.5}],
          [{"monomial": [0, 1], "coeff": [0.5, 0]}]],
         "coefficient 0.5 must be a [re, im] pair"),
        (7, "map JSON components must be a list of term lists"),
        ([[{"monomial": [1, 0], "coeff": [0.5, 0, 7]}],
          [{"monomial": [0, 1], "coeff": [0.5, 0]}]],
         "coefficient [0.5, 0, 7] must be a [re, im] pair"),
        ([[{"monomial": [1, 0], "coeff": [0.5, False]}],
          [{"monomial": [0, 1], "coeff": [0.5, 0]}]],
         "coefficient [0.5, false] must be a [re, im] pair"),
    ], ids=["no-monomial", "bare-coeff", "number", "three-numbers",
            "boolean-part"])
    def test_malformed_map_rejected(self, capsys, tmp_path, components,
                                    message):
        path = write_json(tmp_path / "bad.json",
                          {"dim": 2, "components": components})
        code, out, err = run(capsys, ["contraction", "--file", path])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize("matrix", [[[1, 2], [3, 4]], 5])
    def test_malformed_matrix_rejected(self, capsys, tmp_path, matrix):
        path = write_json(tmp_path / "bad.json", {"matrix": matrix})
        code, out, err = run(capsys, ["contraction", "--file", path])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: matrix ")

    def test_divergent_orbit(self, capsys, tmp_path):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 0.5, (2, 0): 1.0}, {(0, 1): 0.5}])
        path = write_json(tmp_path / "div.json", mp.map_to_json(g))
        code, out, err = run(capsys, ["contraction", "--file", path,
                                      "--radius", "10"])
        assert code == 1
        assert json.loads(out)["diverged"] is True
        assert "contraction" in err


def written(values):
    """The solve-lee writer's text of each float of ``values``, one value
    per record."""
    table = np.asarray(values, dtype=float).reshape(-1, 1)
    return "".join(cli._lee_text("", table, "%r", "")).split(",\n")


def edge_floats():
    """Floats where the shortest repr changes shape or length: every power
    of two and of ten with its neighbours, the decimal point positions at
    which repr turns exponential, whole numbers and the ends of the range,
    each with its negative."""
    anchors = ([2.0 ** e for e in range(-1074, 1024)]
               + [float("1e%d" % e) for e in range(-323, 309)]
               + [1e-5, 1e-4, 1e16, 1e15, 0.001, 1.0, 10.0,
                  9.999999999999999e-05, 9999999999999998.0,
                  2.2250738585072014e-308, 1.7976931348623157e308])
    x = np.array(anchors)
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
                            2.0 ** 53 + 2.0 * np.arange(-2000, 2001),
                            np.arange(-2000.0, 2001.0), [0.0]])
    x = x[np.isfinite(x)]
    return np.concatenate([x, -x])


class TestLeeWriter:
    """The solve-lee writer against repr and the per-record template."""

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    def test_property_matches_repr(self, x):
        assert written(x) == [repr(v) for v in x.tolist()]

    def test_random_bit_patterns_match_repr(self):
        bits = np.random.default_rng(20).integers(
            0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
        x = bits.view(np.float64)
        x = x[np.isfinite(x)]
        assert len(x) > 990_000
        got = written(x)
        bad = [(v, g) for v, g in zip(x.tolist(), got) if g != repr(v)]
        assert len(got) == len(x) and not bad[:5]

    def test_edge_values_match_repr(self):
        x = edge_floats()
        assert np.any(x == 5e-324) and np.any(np.signbit(x) & (x == 0))
        got = written(x)
        bad = [(v, g) for v, g in zip(x.tolist(), got) if g != repr(v)]
        assert len(got) == len(x) and not bad[:5]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rows", [0, 1, cli._WRITE_CHUNK - 1,
                                      cli._WRITE_CHUNK, cli._WRITE_CHUNK + 1])
    def test_records_match_the_template(self, n, rows):
        _, template, _ = cli._lee_layout({}, n)
        rng = np.random.default_rng(rows)
        table = rng.normal(size=(rows, 6 * n + 2)) * 10.0 ** rng.integers(
            -20, 20, size=(rows, 6 * n + 2))
        want = ",\n".join([template % tuple(row) for row in table.tolist()])
        text = "".join(cli._lee_text("[", table, template, "]"))
        assert text == "[%s]" % want


def dumped(payload):
    """The text the report writer must match: jsonify, then json.dumps."""
    return json.dumps(vf.jsonify(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


# JSON-like values with the types jsonify coerces: numpy scalars, complex
# numbers, tuples and arrays among them.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.text(), st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False,
                                    allow_infinity=False)),
    st.builds(np.complex128, st.complex_numbers(allow_nan=False,
                                                allow_infinity=False)))
_payloads = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.builds(tuple, st.lists(inner, max_size=3)),
    st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=4)),
    max_leaves=25)


class _Text(str):
    pass


class _Mapping(dict):
    pass


class TestRender:
    """_render writes in one walk what json.dumps writes for jsonify's
    coercion of the payload, byte for byte."""

    @pytest.mark.parametrize("payload", [
        {"bool": np.bool_(True), "false": np.bool_(False), "int": np.int64(-3),
         "uint": np.uint8(200), "f64": np.float64(0.1), "f32": np.float32(0.1),
         "c128": np.complex128(1 - 2j), "c64": np.complex64(0.5j),
         "py": [True, None, 7, -0.0, 5e-324, 1e300, 10 ** 40, 2 + 0j]},
        {"tuple": (1, (2.5, "x"), ()), "array": np.arange(6).reshape(2, 3),
         "complex array": np.array([1 + 1j, -0.0 - 2j]),
         "empty array": np.array([]), "empty": [{}, [], (), {"a": {}}]},
        {"caf\u00e9 \u2603": "\u00fcber \U0001f600", "nul": "a\x00b",
         "control": "\t\n\r\x08\x0c\x1f\x7f", "quote": '"\\/'},
        {3: "int key", 1.5: "float key", None: "none key", True: "bool key",
         "3": "a key that str(3) repeats"},
        _Mapping({_Text("k"): [_Text("v\x00"), enum.IntEnum("E", "a b").b],
                  "t": _Mapping()}),
        [], {}, "text", 1.0, None, True, np.float64(-2.5), 1j, (),
    ], ids=["numpy scalars", "containers", "strings", "keys", "subclasses",
            "empty list", "empty dict", "str", "float", "none", "bool",
            "float64", "complex", "tuple"])
    def test_same_text_as_json_dumps(self, payload):
        assert cli._render(payload) == dumped(payload)

    @settings(max_examples=300)
    @given(_payloads)
    def test_property_same_text_as_json_dumps(self, payload):
        assert cli._render(payload) == dumped(payload)

    @pytest.mark.parametrize("name", hopf.ENTRY_NAMES)
    def test_suite_reports_as_json_dumps_writes_them(self, name):
        reports = vf.run_suite(hopf.build_entry(name), vf.SuiteConfig(
            points=200, seed=11))
        assert cli._render([vars(r) for r in reports]) == dumped(
            vf.reports_to_json(reports))

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"),
                                     np.float64("inf"), np.float32("nan"),
                                     complex(1.0, float("nan"))])
    def test_non_finite_float_fails_as_json_fails(self, bad):
        payload = {"a": [1.0, {"b": bad, "c": float("inf")}], "z": float("nan")}
        with pytest.raises(ValueError) as want:
            dumped(payload)
        with pytest.raises(ValueError) as got:
            cli._render(payload)
        assert str(got.value) == str(want.value)

    def test_unknown_type_fails_as_jsonify_fails(self):
        with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
            cli._render({"a": [object()]})


class TestSolveLeeCommand:
    def test_catalog_entry(self, capsys):
        code, out, _ = run(capsys, ["solve-lee", "--entry", "example1",
                                    "--points", "20", "--seed", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["max_residual"] < 1e-10
        assert payload["max_reality_defect"] < 1e-9
        assert len(payload["results"]) == 20

    def test_kaehler_entry_recovers_zero(self, capsys):
        code, out, _ = run(capsys, ["solve-lee", "--entry", "example2",
                                    "--points", "10"])
        assert code == 0
        payload = json.loads(out)
        worst = max(abs(c) for r in payload["results"]
                    for pair in r["theta_coeffs"] for c in pair)
        assert worst < 1e-12

    def test_entry_without_forms(self, capsys):
        code, _, err = run(capsys, ["solve-lee", "--entry", "kodaira"])
        assert code == 2 and "no 2-form" in err

    def test_degenerate_omega_exits_1(self, capsys):
        # At weights this far apart the solve's gate finds vaisman's Omega
        # degenerate at a sample point and refuses the whole request.
        code, out, err = run(capsys, ["solve-lee", "--entry", "vaisman",
                                      "--r1", "0.2", "--r2", "5",
                                      "--points", "1000"])
        payload = json.loads(out)
        assert code == 1 and set(payload) == {"command", "entry", "error"}
        assert payload["command"] == "solve-lee"
        assert payload["entry"] == "vaisman"
        assert payload["error"].startswith("2-form degenerate at point ")
        assert err == "solve-lee: %s\n" % payload["error"]

    @pytest.mark.parametrize("source,points", [
        (source, points) for source in ("example1", "vaisman", "example2-n3")
        for points in (1, 2, 5000, cli._WRITE_CHUNK - 1, cli._WRITE_CHUNK,
                       cli._WRITE_CHUNK + 1)]
        + [("example1", 20000), ("vaisman", 20000)])
    def test_report_bytes_match_json_dumps(self, capsys, tmp_path, source,
                                           points):
        if source == "example2-n3":
            argv = ["--file", write_json(tmp_path / "conf.json",
                                         {"entry": "example2",
                                          "parameters": {"n": 3}})]
        else:
            argv = ["--entry", source]
        code, out, _ = run(capsys, ["solve-lee", *argv,
                                    "--points", str(points)])
        assert code == 0
        assert_same_text(out, lee_reference(out))
        payload = json.loads(out)
        assert len(payload["results"]) == points
        assert len(payload["results"][0]["point"]) == (
            3 if source == "example2-n3" else 2)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["solve-lee", "--entry", "vaisman", "--points", "40"]
        _, out, _ = run(capsys, argv)
        path = tmp_path / "lee.json"
        assert run(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert_same_text(path.read_text(encoding="utf-8"), out)

    def test_extreme_floats_rendered_as_json_renders_them(self, capsys,
                                                          monkeypatch):
        solve = vf._solve_lee_arrays

        def extreme(*args):
            coeffs, residual, reality = solve(*args)
            coeffs[0, :3] = [-0.0, 5e-324 + 1e300j, -1e300]
            reality[0] = 5e-324
            residual[0] = -0.0
            return coeffs, residual, reality
        monkeypatch.setattr(vf, "_solve_lee_arrays", extreme)
        code, out, _ = run(capsys, ["solve-lee", "--entry", "example1",
                                    "--points", "3"])
        assert code == 0
        assert_same_text(out, lee_reference(out))
        for text in ("-0.0", "5e-324", "1e+300", "-1e+300"):
            assert "          %s" % text in out

    @pytest.mark.parametrize("array", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_value_fails_as_json_fails(self, capsys, monkeypatch,
                                                  tmp_path, array, bad):
        solve = vf._solve_lee_arrays

        def poisoned(*args):
            arrays = solve(*args)
            arrays[array][-1] = bad
            return arrays
        monkeypatch.setattr(vf, "_solve_lee_arrays", poisoned)
        with pytest.raises(ValueError) as want:
            json.dumps([bad], indent=2, allow_nan=False)
        path = tmp_path / "lee.json"
        code, out, err = run(capsys, ["solve-lee", "--entry", "example1",
                                      "--points", "4", "--out", str(path)])
        assert (code, out, err) == (2, "", "error: %s\n" % want.value)
        assert not path.exists()


class TestParser:
    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("parser rebuilt")
        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, _ = run(capsys, ["verify", "--entry", "example1",
                                    "--points", "20"])
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_console_entry_point_exists(self):
        # Read the declaration itself, so the check holds without installing.
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
            lines = [line.split("=", 1) for line in section.splitlines()
                     if line.strip().startswith("hopflck")]
            scripts = {k.strip(): v.strip().strip("\"'") for k, v in lines}
        else:
            scripts = tomllib.loads(text)["project"]["scripts"]
        module, _, attr = scripts["hopflck"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main


# Every subcommand's options as (option strings, type, default); the entry
# flags follow hopf._CATALOG.
ENTRY_OPTIONS = [
    (("-h", "--help"), None, "==SUPPRESS=="), (("--entry",), None, None),
    (("--file",), None, None), (("--points",), int, None),
    (("--seed",), int, None), (("--tol",), float, None),
    (("--out",), None, None), (("--mu-re",), float, None),
    (("--mu-im",), float, None), (("--n",), int, None),
    (("--alpha-re",), float, None), (("--alpha-im",), float, None),
    (("--t",), complex, None), (("--r1",), float, None),
    (("--r2",), float, None), (("--p1",), float, None),
    (("--p2",), float, None),
]
PARSER_OPTIONS = {
    "verify": ENTRY_OPTIONS,
    "deform": [(("-h", "--help"), None, "==SUPPRESS=="),
               (("--file",), None, None), (("--family",), None, None),
               (("--t",), complex, None), (("--out",), None, None)],
    "jordan": [(("-h", "--help"), None, "==SUPPRESS=="),
               (("--file",), None, None), (("--out",), None, None)],
    "contraction": [(("-h", "--help"), None, "==SUPPRESS=="),
                    (("--file",), None, None), (("--radius",), float, 1.0),
                    (("--eps",), float, 1e-6), (("--out",), None, None)],
    "solve-lee": ENTRY_OPTIONS,
}


class TestParameterTable:
    """Catalog parameters reach build_entry through one check, from the
    library, a config file and the flags alike."""

    @pytest.mark.parametrize("key", ["r1", "r2", "p1", "p2"])
    def test_complex_config_value_for_a_real_key_refused(self, capsys,
                                                         tmp_path, key):
        conf = write_json(tmp_path / "conf.json", {
            "entry": "vaisman", "points": 20, "parameters": {key: [1, 0]}})
        code, out, err = run(capsys, ["verify", "--file", conf])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("entry,key,kind", [
        ("example2", "n", "an integer dimension n"),
        ("vaisman", "r1", "a real number for r1"),
        ("example1", "mu", "a complex number for mu")])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_past_the_float_range_is_one_short_line(
            self, capsys, tmp_path, entry, key, kind, sign):
        conf = write_json(tmp_path / "conf.json", {
            "entry": entry, "parameters": {key: sign * 10 ** 400}})
        code, out, err = run(capsys, ["verify", "--file", conf])
        assert (code, out) == (2, "")
        assert err == ("error: parameter %s: the catalog needs %s in the "
                       "float range, got %s~10^400\n"
                       % (key, kind, "-" if sign < 0 else ""))

    @pytest.mark.parametrize("command", ["verify", "solve-lee"])
    @pytest.mark.parametrize("conf,shown", [
        ({"points": 10 ** 400}, "points must be <= 1000000, got ~10^400"),
        ({"seed": -10 ** 400}, "seed must be >= 0, got -~10^400"),
        ({"parameters": {"mu": [10 ** 400, 0]}},
         "parameter mu = [~10^400, 0] must be a [re, im] pair of real "
         "numbers")], ids=["points", "seed", "mu-pair"])
    def test_other_integers_past_the_float_range_are_one_short_line(
            self, capsys, tmp_path, command, conf, shown):
        path = write_json(tmp_path / "conf.json",
                          {"entry": "example1", **conf})
        code, out, err = run(capsys, [command, "--file", path])
        assert (code, out, err) == (2, "", "error: %s\n" % shown)
        assert len(err) < 80

    def test_n_flag_prints_the_config_file_bytes(self, capsys, tmp_path):
        argv = ["verify", "--points", "200"]
        code, flagged, err = run(capsys, argv + ["--entry", "example2",
                                                 "--n", "3"])
        assert (code, err) == (0, "")
        assert json.loads(flagged)["parameters"]["n"] == 3
        conf = write_json(tmp_path / "conf.json", {
            "entry": "example2", "parameters": {"n": 3}})
        assert run(capsys, argv + ["--file", conf]) == (0, flagged, "")

    def test_non_integral_n_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--entry", "example2", "--n", "2.5"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(PARSER_OPTIONS))
    def test_options_are_pinned(self, command):
        parser = cli.build_parser()
        sub = parser._subparsers._group_actions[0].choices[command]
        got = [(tuple(a.option_strings), a.type, a.default)
               for a in sub._actions]
        assert got == PARSER_OPTIONS[command]


class TestMapDegreeCap:
    """A map above maps.DEGREE_CAP is refused where it is read: exit 2 and
    one error line, not an overflow or an orbit that runs away."""

    @pytest.mark.parametrize("exponent", [40, 10 ** 400],
                             ids=["40", "10**400"])
    @pytest.mark.parametrize("argv", [["contraction"],
                                      ["deform", "--family", "linearize"]])
    def test_map_above_the_cap_refused(self, capsys, tmp_path, argv,
                                       exponent):
        path = write_json(tmp_path / "map.json", {"dim": 2, "components": [
            [{"monomial": [exponent, 0], "coeff": [1, 0]}],
            [{"monomial": [0, 1], "coeff": [0.5, 0]}]]})
        code, out, err = run(capsys, argv + ["--file", path])
        assert (code, out) == (2, "") and err.count("\n") == 1
        # An exponent past 15 digits is shown by its order of magnitude.
        shown = "~10^400" if exponent > 10 ** 15 else str(exponent)
        assert err.startswith("error: monomial (%s, 0) of degree %s exceeds"
                              % (shown, shown))
        assert len(err) < 80
