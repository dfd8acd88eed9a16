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
    defaults = _catalog_parameters()
    for k, v in params.items():
        # An integer past the float range is no value of any kind.
        if (k in defaults and type(v) is int
                and not abs(v) <= sys.float_info.max):
            raise ValueError(
                "parameter %s: the catalog needs %s %s in the float range, "
                "got %s" % (k, hopf._NUMBER_KINDS[type(defaults[k])][1], k,
                            mp._brief(v)))
    obj["parameters"] = {
        k: mp._json_complex(v, "parameter %s =" % k) if isinstance(v, list)
        else ex._json_number("parameter %s" % k, v) for k, v in params.items()}
    # A value of another JSON type is a configuration error (exit 2).
    for key in ("entry", "out"):
        value = obj.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError("config %r must be a string, got %r"
                             % (key, value))
    for key, kind in (("points", int), ("seed", int), ("tol", float)):
        if obj.get(key) is not None:
            obj[key] = ex._json_number("config %r" % key, obj[key], kind,
                                       mp._shown)
    return obj


def _render(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(payload, out_path: str | None) -> None:
    _write([_render(payload)], out_path)


def _write(pieces, out_path: str | None) -> None:
    """Write the strings of ``pieces`` in order to ``out_path`` or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# Stands in for the results list while the header is rendered; json writes
# it as "\u0000results", which no header value can contain.
_RESULTS_MARKER = "\0results"


def _lee_record_template(n: int) -> str:
    """One solve-lee result as _render lays it out, with a %r per float.

    The values go in the order point (re, im pairs), reality_defect,
    residual, theta_coeffs (re, im pairs): sorted keys, at the depth of an
    item of the report's results list.  _lee_text writes the text
    between the %r's as it stands and each value as repr writes it.
    """
    pair = "        [\n          %r,\n          %r\n        ]"
    return ('    {\n      "point": [\n%s\n      ],\n'
            '      "reality_defect": %%r,\n      "residual": %%r,\n'
            '      "theta_coeffs": [\n%s\n      ]\n    }'
            % (",\n".join([pair] * n), ",\n".join([pair] * (2 * n))))


# ---------------------------------------------------------------------------
# solve-lee's records: repr of every float at once
# ---------------------------------------------------------------------------
#
# repr(x) is the shortest decimal that reads back as x, the closest one when
# several are shortest.  Schubfach computes that decimal with a few 64 x 64
# -> 128-bit products (R. Giulietti, "The Schubfach way to render doubles",
# 2020; the paper's figures and the names below follow its Java
# implementation), here on uint64 arrays in 32-bit limbs.  The digits then
# go into byte slots in repr's layout, NUL where a slot shows nothing, and
# bytes.translate squeezes the NULs out.  Every uint64 operation below has
# a non-negative Python int or a uint64/bool array as its other operand.

# Records written per chunk.
_WRITE_CHUNK = 1024
# Schubfach's k = floor(log10 2^q) over the normal doubles, q = -1074 ... 971.
_K_MIN, _K_MAX = -324, 292
# Each value's slots: 6 words of 8 bytes, in the order of the text.
#   word 0: sign, "0." and up to 3 zeros (0 < |x| < 1e-4 is exponential),
#           a NUL, the first digit;
#   words 1-4: digits 2-17, each after a slot for the decimal point;
#   word 5: the exponent ("e-05", "e+16", "e-308").
_FIELD_WORDS = 6
_M32 = 0xFFFFFFFF
_ASCII_ZEROS = 0x3030303030303030


def _schubfach_table():
    """g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for _K_MIN <= k
    <= _K_MAX, as uint64 arrays (g1, g0) with g = g1 2^63 + g0."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k > 0:  # floor(log2 10^-k) = -bitlength(10^k)
            g.append((1 << 125 + p.bit_length()) // p + 1)
        else:
            e = p.bit_length() - 1
            g.append((p << 125 - e if e <= 125 else p >> e - 125) + 1)
    return (np.array([x >> 63 for x in g], np.uint64),
            np.array([x & (1 << 63) - 1 for x in g], np.uint64))


def _layout_table():
    """repr's layout as small arrays.

    Indexed by the row of the point position d = _K_MIN + 16 ... _K_MAX +
    17, where x = 0.(digits) 10^d: word 0's "0." and zeros, word 5, the
    digit the point goes before (0: the point is in word 0 or absent) and
    the fewest digits shown (1000.0 shows five).  Indexed by words 1 ... 4
    (rows 0 ... 3) and then by p or n: that word's point before digit p,
    and its mask of the first n digits.  repr is exponential unless -4 < d
    <= 16.
    """
    lead, expo, point, least = [], [], [], []
    for d in range(_K_MIN + 16, _K_MAX + 18):
        fixed = -4 < d <= 16
        lead.append(b"\0" + b"0." + b"0" * -d if fixed and d <= 0 else b"")
        expo.append(b"" if fixed else b"e%+03d" % (d - 1))
        point.append(d if fixed and d > 0 else 0 if fixed else 1)
        least.append(d + 1 if fixed and d > 0 else 0)
    lead, expo = (np.frombuffer(b"".join(w.ljust(8, b"\0") for w in col),
                                "<u8") for col in (lead, expo))
    dots = np.array([[0x2E << 16 * (p - 1 - 4 * w) if 0 <= p - 1 - 4 * w < 4
                      else 0 for p in range(17)] for w in range(4)], np.uint64)
    masks = np.array([[(1 << 16 * min(max(n - 1 - 4 * w, 0), 4)) - 1
                       for n in range(18)] for w in range(4)], np.uint64)
    return (lead, expo, np.array(point), np.array(least), dots, masks)


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of a b from 32-bit limbs, a < 2^63, b < 2^59."""
    mid = a1 * b0 + a0 * b1 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32)


def _rop(g, cp):
    """Schubfach's rop: g cp 2^-127 rounded to odd (the paper's figure 8)."""
    g1, g11, g10, g01, g00 = g
    c1, c0 = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g01, g00, c1, c0)
    sticky = ((z & (1 << 63) - 1) + (1 << 63) - 1) >> 63
    return (_mulhi(g11, g10, c1, c0) + (z >> 63)) | sticky


def _shortest(bits, table):
    """(f, k) for the normal doubles with bits ``bits`` (sign bit clear):
    f 10^k is the shortest decimal in the double's rounding interval, the
    closest one if several are, the even one of a tie.  f has 16 or 17
    digits, trailing zeros included."""
    bq = bits >> 52
    t = bits & (1 << 52) - 1
    c = t | 1 << 52
    odd = c & 1  # an odd c leaves out the ends of the interval
    cb = c << 2
    irregular = (t == 0) & (bq > 1)  # at 2^e the gap below is half as wide
    q = bq.astype(np.int64) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = (column.take(k - _K_MIN) for column in table)
    g = (g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - 2 + irregular << h) + odd
    vbr = _rop(g, cb + 2 << h) - odd
    s = vb >> 2
    # s or s + 1, whichever alone lies in the interval, else the closer,
    # else the even one.
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    rest = vb & 3
    f = s + np.where(uin == win, (rest > 2) | (rest == 2) & (s & 1 == 1), win)
    # The multiple of ten below or above, when just one of them lies in it.
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    np.copyto(f, sp10, where=upin & ~wpin)
    np.copyto(f, sp10 + 10, where=wpin & ~upin)
    return f, k


def _digit_bytes(x):
    """The 8 digits of each x < 10^8 (uint64), one per byte, the first in
    the lowest byte: halves, then quarters, then digits, in parallel lanes."""
    hi = x // 10000
    v = hi | x - hi * 10000 << 32
    q = v * 5243 >> 19 & 0x0000007F0000007F  # each 32-bit lane // 100
    v = q | v - q * 100 << 16
    q = v * 103 >> 10 & 0x000F000F000F000F  # each 16-bit lane // 10
    return q | v - q * 10 << 8


def _spread(v):
    """The 4 bytes of each v < 2^32 at the odd bytes of a uint64."""
    v = (v | v << 16) & 0x0000FFFF0000FFFF
    return ((v | v << 8) & 0x00FF00FF00FF00FF) << 8


def _top_byte(w):
    """The index of the highest nonzero byte of each w (uint64, every byte
    at most 9), or -128 where w = 0: the exponent of w as a double, which
    rounding cannot carry past the top byte."""
    return ((w.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3


def _repr_words(x, table, layout):
    """repr of each float64 of the finite ``x`` as a (_FIELD_WORDS, len(x))
    uint64 array: the slots of x[i] are the bytes of column i."""
    lead, expo, point, least, dots, masks = layout
    bits = x.view(np.uint64)
    mag = bits & (1 << 63) - 1
    # Zeros and subnormals go through as the least normal and are set below.
    f, k = _shortest(np.maximum(mag, 1 << 52), table)
    longer = f >= 10 ** 16
    digits = np.where(longer, f, f * 10)  # 17 digits
    at = k + 16 + longer - (_K_MIN + 16)  # row of the point position
    zero = mag == 0
    np.copyto(digits, 0, where=zero)
    np.copyto(at, 1 - (_K_MIN + 16), where=zero)  # "0.0"
    hi = digits // 10 ** 8
    first = hi // 10 ** 8
    wa = _digit_bytes(hi - first * 10 ** 8)  # digits 2-9
    wb = _digit_bytes(digits - hi * 10 ** 8)  # digits 10-17
    count = 1 + np.maximum(np.maximum(9 + _top_byte(wb), 1 + _top_byte(wa)), 0)
    shown = np.maximum(count, least.take(at))
    pos = point.take(at)
    words = np.empty((_FIELD_WORDS, len(x)), np.uint64)
    words[0] = (bits >> 63) * 0x2D | lead.take(at) | first + 0x30 << 56
    wa += _ASCII_ZEROS
    wb += _ASCII_ZEROS
    for w, quad in enumerate((wa & _M32, wa >> 32, wb & _M32, wb >> 32)):
        words[w + 1] = ((_spread(quad) | dots[w].take(pos))
                        & masks[w].take(shown))
    words[5] = expo.take(at)
    for i in np.flatnonzero((mag < 1 << 52) & ~zero):  # subnormals
        words[:, i] = np.frombuffer(
            repr(float(x[i])).encode().ljust(8 * _FIELD_WORDS, b"\0"), "<u8")
    return words


def _lee_text(head, table, template, tail):
    """The pieces of ``head + ",\\n".join(template % tuple(row) for row in
    table) + tail``, one per _WRITE_CHUNK records, for a finite float64
    ``table`` of shape (records, values)."""
    rows, width = table.shape
    # One record's words: each piece of text NUL-padded to whole words,
    # then a value's slots.
    pieces = template.split("%r")
    pieces[-1] += ",\n"
    record, cols = [], []
    for v, text in enumerate(pieces):
        record.append(text.encode().ljust(-(-len(text) // 8) * 8, b"\0"))
        if v < width:
            at = sum(map(len, record)) // 8
            cols.append(range(at, at + _FIELD_WORDS))
            record.append(bytes(8 * _FIELD_WORDS))
    record = np.frombuffer(b"".join(record), "<u8")
    cols = np.array(cols)
    schubfach, layout = _schubfach_table(), _layout_table()
    yield head
    for start in range(0, rows, _WRITE_CHUNK):
        chunk = table[start:start + _WRITE_CHUNK]
        words = _repr_words(chunk.reshape(-1), schubfach, layout)
        block = np.broadcast_to(record, (len(chunk), len(record))).copy()
        block[:, cols] = words.reshape(_FIELD_WORDS, len(chunk),
                                       width).transpose(1, 2, 0)
        text = block.tobytes().translate(None, b"\0").decode("ascii")
        # The last record has no ",\n".
        yield text[:-2] if start + _WRITE_CHUNK >= rows else text
    yield tail


# Complex parameters, each set by one flag per part: --mu-re, --mu-im.
_BY_PARTS = ("mu", "alpha")


def _catalog_parameters() -> dict:
    """Every catalog parameter and its default, in catalog order."""
    return {key: default for spec in hopf._CATALOG.values()
            for key, default in spec.defaults.items()}


def _cli_parameters(args) -> dict:
    params = {}
    for key in _catalog_parameters():
        if key in _BY_PARTS:
            real, imag = getattr(args, key + "_re"), getattr(args, key + "_im")
            if real is not None or imag is not None:
                params[key] = complex(real or 0.0, imag or 0.0)
        elif getattr(args, key) is not None:
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
    params = {**file_conf.get("parameters", {}), **_cli_parameters(args)}
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
    _write(_lee_text(head + "[\n", table,
                     _lee_record_template(entry.ambient_dim), "\n  ]" + tail),
           out)
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
                     help="residual tolerance (default per entry); an "
                     "identity proven exactly has residual 0")
    sub.add_argument("--out", default=None, help="write JSON here instead "
                     "of standard output")
    # A part's type is that of the default's real part: float.
    for key, default in _catalog_parameters().items():
        for part in ("-re", "-im") if key in _BY_PARTS else ("",):
            sub.add_argument("--" + key + part, default=None,
                             type=type(default.real if part else default))


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
