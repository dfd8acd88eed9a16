"""Known answers for every request the benchmark issues.

Each expectation is derived from the mathematics of the request, never from
the program under test: the catalog identities hold exactly, so every
admissible suite must pass with the checks its forms call for; the Lee form
of the standard Hopf surface has a closed form; the implicit radial
coordinate is the root of a monotone scalar equation that plain bisection
finds; and the Jordan, deformation and contraction inputs are built from
matrices whose answers are known by construction.

:func:`check` compares one request's exit code and standard output with its
expectation and returns the list of mismatches (empty when it agrees).
"""

from __future__ import annotations

import json

import numpy as np

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2

# Checks run_suite must report, in order, for each catalog entry: the lcK
# pair needs Omega and theta, definiteness needs Omega, the homothety check
# needs a potential, invariance runs for theta and psi where they exist, and
# every entry has a deck group.
SUITE_CHECKS = {
    "vaisman": ("lck_residual", "lee_closedness", "definiteness",
                "invariance_theta", "invariance_psi", "fixed_point_free",
                "contraction"),
    "example1": ("lck_residual", "lee_closedness", "definiteness",
                 "invariance_theta", "invariance_psi", "fixed_point_free",
                 "contraction"),
    "example2": ("lck_residual", "lee_closedness", "definiteness",
                 "potential_homothety", "invariance_theta",
                 "fixed_point_free", "contraction"),
    "kodaira": ("fixed_point_free", "contraction"),
}

ANNULUS = (0.5, 2.0)
THETA_TOL = 1e-12      # measured agreement is ~7e-16
IMPLICIT_T_TOL = 1e-10  # Newton stops at |f| < 1e-12 and f' >= 1 here
SPECTRAL_TOL = 1e-12
EIGENVALUE_TOL = 1e-9
COEFF_RTOL = 1e-12


def pair(c: complex) -> list:
    """The program's JSON encoding of a complex number."""
    c = complex(c)
    return [c.real, c.imag]


def unpair(value) -> np.ndarray:
    """[re, im] pairs (any nesting) to a complex array."""
    arr = np.asarray(value, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------------------
# Closed forms and independent solvers
# ---------------------------------------------------------------------------


def example1_theta(points) -> np.ndarray:
    """theta = -d log|z|^2 on C^2 in the basis (dz1, dz2, dzbar1, dzbar2)."""
    z = np.asarray(points, dtype=complex)
    rho = np.sum(np.abs(z) ** 2, axis=1)
    return np.concatenate([-np.conj(z), -z], axis=1) / rho[:, None]


def implicit_t_bisection(points, weights, width: float = 1e-13) -> np.ndarray:
    """Root t of sum_i |w_i|^2 exp(2 r_i t) = 1, by bisection.

    The left side increases in t.  With S = sum |w_i|^2, the root lies
    between -log(S) / (2 r_max) and -log(S) / (2 r_min): at one end every
    exponential is bounded below by the slowest rate, at the other above by
    the fastest.
    """
    s = np.abs(np.asarray(points, dtype=complex)) ** 2
    r = np.asarray(weights, dtype=float)
    log_total = np.log(s.sum(axis=1))
    ends = np.stack([-log_total / (2 * r.max()), -log_total / (2 * r.min())])
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    while np.max(hi - lo) > width:
        mid = 0.5 * (lo + hi)
        above = (s * np.exp(2.0 * mid[:, None] * r[None, :])).sum(axis=1) > 1.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def implicit_t_mismatches(points, weights, values) -> list:
    """Compare probed values of t with the bisection root."""
    want = implicit_t_bisection(points, weights)
    err = float(np.max(np.abs(np.asarray(values, dtype=float) - want)))
    if not err <= IMPLICIT_T_TOL:
        return ["implicit t differs from bisection by %.3g" % err]
    return []


# ---------------------------------------------------------------------------
# Per-command output checks
# ---------------------------------------------------------------------------


def _suite(out, expect):
    bad = []
    for key in ("entry", "points", "seed", "parameters"):
        if out.get(key) != expect[key]:
            bad.append("%s is %r, expected %r" % (key, out.get(key), expect[key]))
    if out.get("status") != "pass":
        bad.append("status %r" % out.get("status"))
    names = tuple(r.get("check_name") for r in out.get("reports", ()))
    want = SUITE_CHECKS[expect["entry"]]
    if names != want:
        bad.append("checks %r, expected %r" % (names, want))
    bad += ["check %s failed" % r.get("check_name")
            for r in out.get("reports", ()) if r.get("status") != "pass"]
    return bad


def _lee(out, expect):
    bad = []
    for key in ("entry", "points", "seed"):
        if out.get(key) != expect[key]:
            bad.append("%s is %r, expected %r" % (key, out.get(key), expect[key]))
    if out.get("status") != "pass":
        bad.append("status %r" % out.get("status"))
    results = out.get("results", [])
    if len(results) != expect["points"]:
        return bad + ["%d results for %d points" % (len(results), expect["points"])]
    pts = unpair([r["point"] for r in results])
    theta = unpair([r["theta_coeffs"] for r in results])
    norms = np.linalg.norm(pts, axis=1)
    lo, hi = ANNULUS
    if not np.all((norms >= lo * (1 - 1e-12)) & (norms <= hi * (1 + 1e-12))):
        bad.append("sample point outside the annulus")
    return bad + theta_mismatches(pts, theta)


def theta_mismatches(points, theta) -> list:
    """Recovered Lee coefficients against the closed form of example1."""
    err = float(np.max(np.abs(np.asarray(theta) - example1_theta(points))))
    if not err <= THETA_TOL:
        return ["theta differs from -d log|z|^2 by %.3g" % err]
    return []


def _jordan(out, expect):
    def key(block):
        return (block[0].real, block[0].imag, block[1])
    got = sorted(((complex(*b["eigenvalue"]), b["size"]) for b in out["blocks"]),
                 key=key)
    want = sorted(expect["blocks"], key=key)
    if len(got) != len(want) or any(
            gs != ws or abs(gl - wl) > EIGENVALUE_TOL
            for (gl, gs), (wl, ws) in zip(got, want)):
        return ["Jordan blocks %r, expected %r" % (got, want)]
    if not out["reconstruction_residual"] < 1e-8:
        return ["reconstruction residual %r" % out["reconstruction_residual"]]
    return []


def _close(got, want, what):
    got = unpair(got)
    if got.shape != want.shape or not np.allclose(got, want, rtol=COEFF_RTOL,
                                                  atol=1e-15):
        return ["%s differs from the known answer" % what]
    return []


def _diagonalize(out, expect):
    return (_close(out["matrix_at_t"], expect["at_t"], "matrix_at_t")
            + _close(out["limit0"], expect["limit0"], "limit0"))


def _tables(map_json):
    return [{tuple(term["monomial"]): complex(*term["coeff"]) for term in comp}
            for comp in map_json["components"]]


def _same_tables(got, want, what):
    for g, w in zip(got, want):
        if set(g) != set(w) or any(
                abs(g[m] - w[m]) > COEFF_RTOL * max(1.0, abs(w[m])) for m in w):
            return ["%s differs from the known answer" % what]
    if len(got) != len(want):
        return ["%s has %d components" % (what, len(got))]
    return []


def _linearize(out, expect):
    bad = []
    if out["at_one_equals_input"] is not True:
        bad.append("family at t = 1 is not the input map")
    if out["limit_equals_linear_part"] is not True:
        bad.append("limit at t = 0 is not the linear part")
    return (bad + _same_tables(_tables(out["map_at_t"]), expect["at_t"],
                               "map_at_t")
            + _same_tables(_tables(out["limit0"]), expect["limit0"], "limit0"))


def _contraction(out, expect):
    bad = []
    if out["is_contraction"] is not expect["is_contraction"]:
        bad.append("is_contraction %r" % out["is_contraction"])
    if abs(out["spectral_radius"] - expect["spectral_radius"]) > SPECTRAL_TOL:
        bad.append("spectral radius %r, expected %r"
                   % (out["spectral_radius"], expect["spectral_radius"]))
    return bad


_CHECKERS = {
    "suite": _suite,
    "lee": _lee,
    "jordan": _jordan,
    "diagonalize": _diagonalize,
    "linearize": _linearize,
    "contraction": _contraction,
}


def check(expect: dict, exit_code: int, stdout: str) -> list:
    """Mismatches between one request's result and its known answer.

    ``expect`` holds the expected exit code under ``exit`` and, for
    requests that succeed or fail with a report, the name of the output
    check under ``kind``; refused requests (exit code 2) must print nothing
    to standard output.
    """
    if exit_code != expect["exit"]:
        return ["exit code %r, expected %r" % (exit_code, expect["exit"])]
    if expect["kind"] == "refused":
        return ["refused request wrote to stdout"] if stdout else []
    try:
        out = json.loads(stdout)
        return _CHECKERS[expect["kind"]](out, expect)
    except (ValueError, KeyError, TypeError) as err:
        return ["malformed output: %s: %s" % (type(err).__name__, err)]
