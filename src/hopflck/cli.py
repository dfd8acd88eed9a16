"""Command-line front end: catalog verification and map tooling over JSON.

Commands
--------
verify       run the full verification suite on a named catalog entry
deform       walk a scaling family t -> T_t^-1 g T_t from a polynomial map
             to its linear part (linearize) or from a Jordan matrix to its
             diagonal (diagonalize)
jordan       numerical Jordan normal form of a matrix from a JSON file
contraction  certify the contraction property of a map from a JSON file
solve-lee    pointwise Lee-form recovery on a catalog entry's 2-form

All artifacts are JSON with complex numbers as [re, im] pairs; output is
deterministic for fixed inputs and seed (sorted keys, no timestamps).
Exit codes: 0 pass, 1 verification/computation failure, 2 configuration or
parse error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import expr as ex
from . import forms as fm
from . import hopf
from . import maps as mp
from . import verify as vf
from .sampling import annulus_points

__all__ = ["main", "build_parser"]

CONFIG_KEYS = ("entry", "points", "seed", "tol", "out", "parameters")
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _json_number(what, value, kind=float):
    """A JSON number as ``kind``; a value of another type, a boolean, a
    non-integral float for int or an int beyond the float range is refused."""
    if not isinstance(value, bool) and (isinstance(value, int) or isinstance(
            value, float) and (kind is float or value.is_integer())):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError("%s must be a %s number, got %r"
                     % (what, "whole" if kind is int else "real", value))


def _coerce_number(key, value):
    if isinstance(value, list):
        return mp._json_complex(value, "parameter %s =" % key)
    return _json_number("parameter %s" % key, value)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ValueError("cannot read %s: %s" % (path, err)) from err
    except json.JSONDecodeError as err:
        raise ValueError("cannot parse %s as JSON: %s" % (path, err)) from err


def _load_config_file(path: str) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("config file %s must hold a JSON object" % path)
    unknown = sorted(set(obj) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError("unknown config key(s) %s in %s; valid keys: %s"
                         % (", ".join(unknown), path, ", ".join(CONFIG_KEYS)))
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise ValueError("config 'parameters' must be an object")
    obj = dict(obj)
    obj["parameters"] = {k: _coerce_number(k, v) for k, v in params.items()}
    # A value of another JSON type is a configuration error (exit 2).
    for key in ("entry", "out"):
        value = obj.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError("config %r must be a string, got %r"
                             % (key, value))
    for key, kind in (("points", int), ("seed", int), ("tol", float)):
        if obj.get(key) is not None:
            obj[key] = _json_number("config %r" % key, obj[key], kind)
    return obj


def _render(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(payload, out_path: str | None) -> None:
    _write(_render(payload), out_path)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Stands in for the results list while the header is rendered; json writes
# it as "\u0000results", which no header value can contain.
_RESULTS_MARKER = "\0results"


def _lee_record_template(n: int) -> str:
    """One solve-lee result as _render lays it out, with a %r per float.

    The values go in the order point (re, im pairs), reality_defect,
    residual, theta_coeffs (re, im pairs): sorted keys, at the depth of an
    item of the report's results list.
    """
    pair = "        [\n          %r,\n          %r\n        ]"
    return ('    {\n      "point": [\n%s\n      ],\n'
            '      "reality_defect": %%r,\n      "residual": %%r,\n'
            '      "theta_coeffs": [\n%s\n      ]\n    }'
            % (",\n".join([pair] * n), ",\n".join([pair] * (2 * n))))


def _cli_parameters(args) -> dict:
    params = {}
    for key in ("mu", "alpha"):
        real, imag = getattr(args, key + "_re"), getattr(args, key + "_im")
        if real is not None or imag is not None:
            params[key] = complex(real or 0.0, imag or 0.0)
    for key in ("t", "r1", "r2", "p1", "p2"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return params


def _resolve_entry_config(args):
    """Catalog entry, suite settings and output path; flags override --file."""
    file_conf: dict = {}
    name = args.entry
    if args.file:
        if args.entry:
            raise ValueError("give either --entry or --file, not both")
        file_conf = _load_config_file(args.file)
        name = file_conf.get("entry")
    if not name:
        raise ValueError("no catalog entry named; use --entry or a config "
                         "file with an 'entry' key")

    def setting(key):
        value = getattr(args, key)
        return value if value is not None else file_conf.get(key)

    suite = vf.SuiteConfig(**{key: setting(key) for key in
                              ("points", "seed", "tol")
                              if setting(key) is not None})
    params = dict(file_conf.get("parameters", {}))
    params.update(_cli_parameters(args))
    return hopf.build_entry(name, params), suite, setting("out")


def _entry_payload(command, entry, suite) -> dict:
    return {"command": command, "entry": entry.name,
            "parameters": vf.jsonify(dict(entry.parameters)),
            "points": suite.points, "seed": suite.seed}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    entry, suite, out = _resolve_entry_config(args)
    reports = vf.run_suite(entry, suite)
    ok = vf.suite_passed(reports)
    _emit({**_entry_payload("verify", entry, suite),
           "status": "pass" if ok else "fail",
           "reports": vf.reports_to_json(reports)}, out)
    return EXIT_PASS if ok else EXIT_FAIL


def _load_map_or_matrix(path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("map file %s must hold a JSON object" % path)
    if "matrix" in obj:
        return None, mp.matrix_from_json(obj["matrix"])
    if "components" in obj:
        return mp.map_from_json(obj), None
    raise ValueError("map file %s needs a 'components' map or a 'matrix'"
                     % path)


def cmd_deform(args) -> int:
    t = args.t if args.t is not None else 1.0
    if not cmath.isfinite(t):
        raise ValueError("deform needs a finite --t, got %r" % (t,))
    g, matrix = _load_map_or_matrix(args.file)
    if args.family == "linearize":
        fam = hopf.family_to_linear(
            g if g is not None else mp.PolyAutomorphism.from_matrix(matrix))
    elif matrix is None and not g.is_linear():
        raise hopf.NotJordan("diagonalize needs a matrix (or a linear map)")
    else:
        fam = hopf.family_to_diagonal(
            g.linear_part() if matrix is None else matrix)
    at_t, limit = fam.at(t), fam.limit0()
    if args.family == "linearize":
        payload = {
            "map_at_t": mp.map_to_json(at_t),
            "limit0": mp.map_to_json(limit),
            "at_one_equals_input": fam.at(1.0) == fam.base,
            "limit_equals_linear_part": np.array_equal(
                limit.linear_part(), fam.base.linear_part())
            and limit.is_linear(),
        }
    else:
        payload = {"matrix_at_t": mp.matrix_to_json(at_t.linear_part()),
                   "limit0": mp.matrix_to_json(limit.linear_part())}
    _emit({"command": "deform", "family": args.family,
           "t": vf.jsonify(complex(t)), **payload}, args.out)
    return EXIT_PASS


def cmd_jordan(args) -> int:
    _, matrix = _load_map_or_matrix(args.file)
    if matrix is None:
        raise ValueError("jordan needs a file with a 'matrix' key")
    try:
        dec = mp.jordan_form(matrix)
    except mp.IllConditioned as err:
        _emit({"command": "jordan", "error": str(err)}, args.out)
        print("jordan: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    payload = {
        "command": "jordan",
        "blocks": [{"eigenvalue": vf.jsonify(lam), "size": size}
                   for lam, size in dec.blocks],
        "transform": mp.matrix_to_json(dec.transform),
        "reconstruction_residual": dec.reconstruction_residual,
    }
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_contraction(args) -> int:
    g, matrix = _load_map_or_matrix(args.file)
    if g is None:
        g = mp.PolyAutomorphism.from_matrix(matrix)
    try:
        res = mp.contraction_test(g, radius=args.radius, eps=args.eps)
    except mp.IterationDiverged as err:
        _emit({"command": "contraction", "error": str(err),
               "diverged": True}, args.out)
        print("contraction: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    payload = {
        "command": "contraction",
        "is_contraction": res.is_contraction,
        "iterations_needed": res.iterations_needed,
        "spectral_radius": res.spectral_radius,
        "num_points": res.num_points,
        "radius": res.radius,
        "eps": res.eps,
        "reason": res.reason,
    }
    _emit(payload, args.out)
    return EXIT_PASS if res.is_contraction else EXIT_FAIL


def cmd_solve_lee(args) -> int:
    entry, suite, out = _resolve_entry_config(args)
    if "Omega" not in entry.forms:
        raise ValueError("entry %r has no 2-form to solve against"
                         % entry.name)
    omega = entry.forms["Omega"]
    tol = vf._auto_tolerance(omega) if suite.tol is None else suite.tol
    pts = annulus_points(entry.ambient_dim, suite.points, suite.seed)
    try:
        coeffs, residual, reality = vf._solve_lee_arrays(omega, pts)
    except vf.DegenerateOmega as err:
        _emit({"command": "solve-lee", "entry": entry.name,
               "error": str(err)}, out)
        print("solve-lee: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    # Python's max over Python floats keeps or drops a NaN by the same rule
    # as a max over LeeSolveResult fields.
    max_residual = max(residual.tolist(), default=0.0)
    ok = max_residual < tol
    payload = {**_entry_payload("solve-lee", entry, suite),
               "tolerance": tol,
               "max_residual": max_residual,
               "max_reality_defect": max(reality.tolist(), default=0.0),
               "status": "pass" if ok else "fail",
               "results": _RESULTS_MARKER}
    head, tail = _render(payload).split(json.dumps(_RESULTS_MARKER))
    # One row per record, in the template's order of values.
    table = np.concatenate([pts.view(np.float64), reality[:, None],
                            residual[:, None], coeffs.view(np.float64)],
                           axis=1)
    finite = np.isfinite(table)
    if not finite.all():
        # allow_nan=False rejects the value with json's own ValueError.
        _render(float(table[~finite][0]))
    template = _lee_record_template(entry.ambient_dim)
    records = ",\n".join([template % tuple(row) for row in table.tolist()])
    text = "".join((head, "[\n", records, "\n  ]", tail))
    _write(text, out)
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_entry_options(sub):
    sub.add_argument("--entry", help="catalog entry name (%s)"
                     % ", ".join(hopf.ENTRY_NAMES))
    sub.add_argument("--file", help="JSON config file naming the entry")
    sub.add_argument("--points", type=int, default=None,
                     help="number of sample points (default 1000)")
    sub.add_argument("--seed", type=int, default=None,
                     help="sampling seed (default 42)")
    sub.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (default per entry)")
    sub.add_argument("--out", default=None, help="write JSON here instead "
                     "of standard output")
    for flag in ("--mu-re", "--mu-im", "--alpha-re", "--alpha-im"):
        sub.add_argument(flag, type=float, default=None)
    sub.add_argument("--t", type=complex, default=None)
    for flag in ("--r1", "--r2", "--p1", "--p2"):
        sub.add_argument(flag, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflck",
        description="verify locally conformally Kähler structures on Hopf "
                    "manifolds and deform their covering automorphisms")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run the verification suite")
    _add_entry_options(verify)
    verify.set_defaults(func=cmd_verify)

    deform = subs.add_parser("deform", help="scaling-family conjugation")
    deform.add_argument("--file", required=True,
                        help="JSON map ('components') or matrix ('matrix')")
    deform.add_argument("--family", required=True,
                        choices=("linearize", "diagonalize"))
    deform.add_argument("--t", type=complex, default=None,
                        help="family parameter (default 1)")
    deform.add_argument("--out", default=None)
    deform.set_defaults(func=cmd_deform)

    jordan = subs.add_parser("jordan", help="numerical Jordan normal form")
    jordan.add_argument("--file", required=True, help="JSON matrix file")
    jordan.add_argument("--out", default=None)
    jordan.set_defaults(func=cmd_jordan)

    contraction = subs.add_parser("contraction",
                                  help="certify the contraction property")
    contraction.add_argument("--file", required=True, help="JSON map file")
    contraction.add_argument("--radius", type=float, default=1.0)
    contraction.add_argument("--eps", type=float, default=1e-6)
    contraction.add_argument("--out", default=None)
    contraction.set_defaults(func=cmd_contraction)

    lee = subs.add_parser("solve-lee", help="pointwise Lee-form recovery")
    _add_entry_options(lee)
    lee.set_defaults(func=cmd_solve_lee)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    # The evaluation errors subclass ValueError, so they are caught first.
    except (ex.EvaluationError, fm.FormEvaluationError, mp.IllConditioned,
            mp.IterationDiverged) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_FAIL
    except (hopf.UnknownEntry, hopf.BadParameter, hopf.NotJordan,
            ValueError) as err:
        msg = err.args[0] if err.args else str(err)
        print("error: %s" % msg, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
