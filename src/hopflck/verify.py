"""Residual certification of locally conformally Kähler identities.

Checks are sampling-based: each one evaluates symbolic identities at seeded
annulus points and reports the worst residual against a tolerance.  Reports
are plain dataclasses with a fixed JSON shape so that identical inputs
produce byte-identical output.

The exception is run_suite's identities, the lcK pair d Omega = theta ^
Omega, d theta = 0 and the invariance of theta and psi under each deck
generator: each suite first tests them exactly, by evaluating their
coefficients at random residues modulo a prime (ex._Tape.prove).  A proven
identity is no longer sampled at every point: its report carries residual
0.0, the false-pass bound FALSE_PASS_BOUND, and the float residual at the
first CROSS_CHECK_POINTS points as a cross-check, while every point is
still checked for the evaluation errors that sampling would raise.  Where
that float residual reaches the tolerance the proof is not trusted and the
identity is sampled at every point after all.  The tape that runs at every
sample point is value-numbered (ex.value_number): values proven equal, each
merge on draws of its own, are computed once, unless the merges' summed
false-merge bound exceeds FALSE_PASS_BOUND.  The cross-check's tape is not,
so that it evaluates each identity as written, and neither are the Lee
solve and the library functions (verify_lck, verify_invariance,
max_form_residual, ...), which stay sampled.

Two conventions used throughout:

* Pass/fail is always ``max_residual < tolerance``.  Checks that are
  naturally boolean (definiteness, fixed-point freeness, contraction) encode
  a signed margin as the residual — negative means pass — with tolerance 0.
* Default tolerances: 1e-10 for identities with rational-function
  coefficients, 1e-8 for identities routed through the Newton-based
  implicit radial coordinate (the Newton residual is ~1e-12 and implicit
  differentiation amplifies it).
"""

from __future__ import annotations

import itertools
import sys
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import forms as fm
from .hopf import HopfSurfaceCatalogEntry
from .maps import (FIXED_POINT_TOL, PolyAutomorphism, _brief,
                   contraction_test, fixed_point_free_check)
from .sampling import annulus_points

__all__ = [
    "VerificationReport", "LeeSolveResult", "SuiteConfig",
    "solve_lee_pointwise", "solve_lee_many",
    "verify_lck", "verify_potential", "verify_invariance",
    "run_suite", "suite_passed", "reports_to_json", "jsonify",
    "DegenerateOmega", "NonPositivePotential",
    "RATIONAL_TOL", "IMPLICIT_TOL", "LEE_RCOND", "LEE_BAND",
    "POTENTIAL_IMAG_RTOL",
    "SUITE_CACHE_SIZE", "MAX_POINTS", "CROSS_CHECK_POINTS",
    "FALSE_PASS_BOUND",
]

RATIONAL_TOL = 1e-10
IMPLICIT_TOL = 1e-8
LEE_RCOND = 1e-10
# On C^2, where the closed-form sigma_min/sigma_max of Omega's coefficient
# array lies within LEE_BAND * LEE_RCOND of LEE_RCOND, LAPACK's SVD decides
# degeneracy.  Both ratios are within a few ulps of 1 of the exact one,
# about 1e-6 of LEE_RCOND, so the band is wide enough and almost never
# entered.
LEE_BAND = 2.0 ** -10
# A potential counts as real where |Im Phi| <= POTENTIAL_IMAG_RTOL |Re Phi|.
POTENTIAL_IMAG_RTOL = 1e-12
WORST_POINTS = 3
# Compiled suites run_suite keeps, one per catalog template; the least
# recently used goes first.
SUITE_CACHE_SIZE = 8
# Most sample points a suite or a Lee solve takes.  At this size verify on
# vaisman peaks at 91 MB in a fresh process (263 MB while definiteness was
# classified over whole arrays), and solve-lee prints about 630 MB of JSON.
MAX_POINTS = 10 ** 6
# A suite's identity proven exactly still has its float residual computed,
# as a cross-check, at the first CROSS_CHECK_POINTS sample points.
CROSS_CHECK_POINTS = 256
# An identity counts as proven only if the chance that it is not one and
# still vanished in every trial is at most FALSE_PASS_BOUND; its report
# gives this bound, which is the same for a template and for an entry built
# by hand from the template's numbers.  The catalog's own bounds, 1e-46 and
# below, are each suite's ``proofs``.
FALSE_PASS_BOUND = 1e-40


class DegenerateOmega(ValueError):
    """The 2-form is (near) degenerate at the requested point."""


class NonPositivePotential(ValueError):
    """A candidate potential fails to be real and positive on the samples."""


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """One named check: status is pass exactly when max_residual < tolerance.

    run_suite's lck_residual, lee_closedness and invariance reports name
    their ``method`` in ``details``.  "sampled": ``max_residual`` is the
    largest residual over the sample points, whose worst are
    ``worst_points`` (lcK) or which each generator's ``residual`` gives
    (invariance).  "exact-modular": the identity vanished at ``trials``
    random points modulo ``prime`` (ex.MODULAR_TRIALS, ex.MODULAR_PRIME),
    with every param, exp, log and implicit time an unknown, so
    ``max_residual`` is 0.0; ``false_pass_bound`` (FALSE_PASS_BOUND) bounds
    the chance that a nonzero identity passes so, and ``float_residual``
    with ``worst_points`` (lcK) or each generator's ``float_residual``
    (invariance) come from the float residual at the first
    CROSS_CHECK_POINTS sample points, which is below the tolerance.  A
    proven identity whose float residual there is not below the tolerance
    is reported "sampled".
    """

    check_name: str
    status: str
    max_residual: float
    tolerance: float
    num_points: int
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return jsonify({
            "check_name": self.check_name,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "num_points": self.num_points,
            "seed": self.seed,
            "details": self.details,
        })


@dataclass(frozen=True)
class LeeSolveResult:
    """Pointwise Lee-form recovery: theta solving d Omega = theta ^ Omega."""

    point: tuple
    theta_coeffs: tuple  # 2n coefficients in the basis (dz_i, dzbar_i)
    residual: float
    reality_defect: float

    def to_json(self) -> dict:
        return jsonify({
            "point": list(self.point),
            "theta_coeffs": list(self.theta_coeffs),
            "residual": self.residual,
            "reality_defect": self.reality_defect,
        })


def jsonify(obj):
    """Recursively coerce reports to JSON-safe values; complex -> [re, im]."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    raise TypeError("cannot serialize %r" % type(obj))


def _status(max_residual: float, tolerance: float) -> str:
    return "pass" if max_residual < tolerance else "fail"


def _auto_tolerance(*objects) -> float:
    """IMPLICIT_TOL if any object contains the implicit radial coordinate."""
    implicit = any(getattr(obj, "has_implicit", False) for obj in objects)
    return IMPLICIT_TOL if implicit else RATIONAL_TOL


def _worst_points(pts, residuals):
    order = np.argsort(residuals)[::-1][:WORST_POINTS]
    return [{"point": [complex(c) for c in pts[k]],
             "residual": float(residuals[k])} for k in order]


def _worst(residuals) -> float:
    """The largest of ``residuals``, or NaN if one is NaN, so that the check
    fails: Python's max keeps a NaN only in first place."""
    return float(np.max(residuals))


def _report(check_name, worst, tolerance, num_points, seed, details):
    worst = float(worst)
    return VerificationReport(check_name, _status(worst, tolerance), worst,
                              tolerance, num_points, seed, details)


# Each check's forms are requests for fm._evaluate_forms, so that run_suite
# evaluates all of them at its points through one tape; a check then reduces
# the values, which it takes in request order.


def _lck_requests(Omega, theta):
    """d Omega - theta ^ Omega and d theta, for their per-point residuals."""
    return [(fm.exterior_d(Omega) - fm.wedge(theta, Omega), fm._Residual),
            (fm.exterior_d(theta), fm._Residual)]


def _definiteness_summary(form, pts, evaluation, k) -> dict:
    """Sign classification of a (1,1)-form, or the reason it has none, from
    its fm._definiteness_requests values at ``evaluation[k]`` on."""
    try:
        rep = fm._classify(form, pts, evaluation, k)
    except (fm.NotType11, fm.NonHermitian) as err:
        return {"error": str(err)}
    return {"is_definite": rep.is_definite,
            "is_semidefinite": rep.is_semidefinite,
            "sign": rep.sign,
            "min_abs_eigenvalue": rep.min_abs_eigenvalue}


def _invariance_request(a, g_exprs, fold):
    """pullback(g, a) - a, for its residual by ``fold``; g as expressions."""
    return fm.pullback(g_exprs, a) - a, fold


# ---------------------------------------------------------------------------
# Lee-form recovery
# ---------------------------------------------------------------------------


def _solve_lee_arrays(Omega: fm.ExteriorForm, points):
    """The Lee solve as arrays: coeffs (m, 2n), residual (m,), reality (m,).

    ``coeffs`` holds theta's coefficients at each point, ``residual`` the
    largest entry of |theta ^ Omega - d Omega| and ``reality`` the largest
    |theta_zbar_i - conj(theta_z_i)|.  See solve_lee_pointwise.
    """
    if Omega.degree != 2:
        raise ValueError("Lee solve expects a 2-form")
    n = Omega.ambient_dim
    pts = np.asarray(points, dtype=complex)
    m = pts.shape[0]
    both = fm._evaluate_forms(
        [(Omega, fm._Full), (fm.exterior_d(Omega), fm._Full)], pts)
    # Omega's W_ij for i < j and d Omega's V_abc for a < b < c, one row each.
    w, v = (np.array([vals.get(key, np.zeros(m)) for key in
                      itertools.combinations(range(2 * n), k)], dtype=complex)
            for vals, k in ((both[0], 2), (both[1], 3)))
    return _lee_solve(w, v, n)


def _lee_solve(w, v, n):
    """_solve_lee_arrays from the (pairs, m) array ``w`` of Omega's W_ij,
    i < j, and the (triples, m) array ``v`` of d Omega's V_abc, a < b < c,
    rows in lexicographic order.

    theta ^ Omega = V gives theta_a = sum_{b<c} C_cb V_abc / d (Lefschetz),
    C and d from _lee_inverse, and one step of iterative refinement follows
    (theta minus the solution for theta ^ Omega - V).  W and each right-hand
    side are scaled at each point by powers of two (see _scaled), so nothing
    overflows or underflows before theta is scaled back.  A non-finite W_ij
    is refused before any solve, naming its first point.
    """
    finite = np.isfinite(w).all(axis=0)
    if not finite.all():
        raise DegenerateOmega("2-form has a non-finite coefficient at point %d"
                              % np.argmin(finite))
    nn = 2 * n
    ws, ew = _scaled(w)
    c, signs, d = _lee_inverse(w, ws, nn)
    terms = _contraction_terms(nn, signs)

    def solve(v):
        vs, ev = _scaled(v)
        theta = np.empty((nn, v.shape[1]), dtype=complex)
        for row, ((t, k, negated), *rest) in zip(theta, terms):
            np.multiply(c[k], vs[t], out=row)
            if negated:
                np.negative(row, out=row)
            for t, k, negated in rest:
                (np.subtract if negated else np.add)(row, c[k] * vs[t], row)
        theta /= d
        parts = theta.view(np.float64)
        np.ldexp(parts, np.repeat(ev - ew, 2), out=parts)
        return theta

    theta = solve(v)
    theta -= solve(_wedge(theta, w, nn) - v)
    residual = np.abs(_wedge(theta, w, nn) - v).max(axis=0)
    coeffs = theta.T.copy()
    reality = np.abs(coeffs[:, n:] - np.conj(coeffs[:, :n])).max(axis=1)
    return coeffs, residual, reality


def _wedge_rows(nn):
    """(theta ^ Omega)_abc = theta_a W_bc - theta_b W_ac + theta_c W_ab: the
    arrays a, b, c over the triples a < b < c, and the rows of W_bc, W_ac
    and W_ab among the pairs."""
    pair = {ij: k for k, ij in enumerate(itertools.combinations(range(nn), 2))}
    a, b, c = np.array(list(itertools.combinations(range(nn), 3))).T
    return (a, b, c) + tuple(np.array([pair[ij] for ij in zip(x, y)], int)
                             for x, y in ((b, c), (a, c), (a, b)))


def _wedge(theta, w, nn):
    """theta ^ Omega as a (triples, m) array, theta as (nn, m)."""
    a, b, c, bc, ac, ab = _wedge_rows(nn)
    return theta[a] * w[bc] - theta[b] * w[ac] + theta[c] * w[ab]


def _contraction_terms(nn, signs):
    """For each a, the terms (triple, pair k, negated) of sum_{b<c} C_cb
    V_abc, C_cb = signs[k] C[k]: _wedge transposed, over the triples
    last-first, so that on C^2 each sum is that of -W *V term by term."""
    a, b, c, bc, ac, ab = _wedge_rows(nn)
    rows = [[] for _ in range(nn)]
    for t in reversed(range(len(a))):
        for x, pair, sign in ((a, bc, 1), (b, ac, -1), (c, ab, 1)):
            rows[x[t]].append((t, pair[t], sign * signs[pair[t]] < 0))
    return rows


# On C^2 the (c, b) entry of Pf W W^-1, b < c, is W of the complementary
# pair times this sign, pairs in lexicographic order.  The sign is applied
# by adding or subtracting a product, never to a factor, which keeps the
# bits of -W *V: (-x) y and -(x y) can differ in the sign of a zero.
_COMPLEMENT_SIGNS = (1, -1, 1, 1, -1, 1)


def _lee_inverse(w, ws, nn):
    """(C, signs, d) with C_cb = signs[k] C[k] for the k-th pair b < c, from
    W and its scaled ``ws``, once W passes the degeneracy gate.

    For n >= 3, C = W^-1 by one batched inverse, after LAPACK's gate at
    every point, and d = n - 1.  On C^2, C = Pf W W^-1, whose entries are
    W's, and d = Pf W.  W's singular values are s1, s1, s2, s2 with s1 s2 =
    |Pf W| and s1^2 + s2^2 = sum_{i<j} |W_ij|^2 = S, so s2/s1 = |Pf W| /
    s1^2: LAPACK decides only where that is within LEE_BAND of the gate or
    not a number (see _gate_degeneracy).
    """
    if nn != 4:
        _gate_degeneracy(w, nn, np.arange(w.shape[1]), [])
        i, j = np.array(list(itertools.combinations(range(nn), 2))).T
        inverse = np.linalg.inv(_antisymmetric(ws, nn))
        return inverse[:, j, i].T, (1,) * len(i), nn // 2 - 1
    w01, w02, w03, w12, w13, w23 = ws
    with np.errstate(invalid="ignore"):  # NaN where W is 0
        pf = w01 * w23 - w02 * w13 + w03 * w12
        p = np.abs(pf)
        s = (ws.real ** 2 + ws.imag ** 2).sum(axis=0)
        # s1^2 = (S + sqrt(S^2 - 4 |Pf W|^2)) / 2, where S^2 >= 4 |Pf W|^2
        # but for rounding.
        ratio = 2 * p / (s + np.sqrt(np.maximum(s * s - 4 * p * p, 0.0)))
        decided = np.abs(ratio - LEE_RCOND) > LEE_BAND * LEE_RCOND
    _gate_degeneracy(w, 4, np.flatnonzero(~decided),
                     np.flatnonzero(decided & (ratio <= LEE_RCOND)))
    return ws[::-1], _COMPLEMENT_SIGNS, pf


def _gate_degeneracy(w, nn, rows, clear):
    """Raise DegenerateOmega at the first point where W is degenerate.

    LAPACK's singular values decide at the points ``rows`` of the (pairs,
    m) array ``w``, whose values are finite: degenerate where sigma_min <=
    LEE_RCOND sigma_max.  ``clear`` holds points
    known to be degenerate without them.  The message gives LAPACK's
    sigma_min/sigma_max at the first point.
    """
    sv = np.linalg.svd(_antisymmetric(w[:, rows], nn), compute_uv=False)
    bad = np.concatenate([rows[~(sv[:, -1] > LEE_RCOND * sv[:, 0])], clear])
    if bad.size:
        k = int(bad.min())
        sv = np.linalg.svd(_antisymmetric(w[:, [k]], nn), compute_uv=False)[0]
        ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
        raise DegenerateOmega(
            "2-form degenerate at point %d (sigma_min/sigma_max = %.3g)"
            % (k, ratio))


def _antisymmetric(w, nn):
    """The (m, nn, nn) matrices W from the (pairs, m) array of W_ij, i < j."""
    mats = np.zeros((w.shape[1], nn, nn), dtype=complex)
    for k, (i, j) in enumerate(itertools.combinations(range(nn), 2)):
        mats[:, i, j] = w[k]
        mats[:, j, i] = -w[k]
    return mats


def _scaled(x):
    """The complex (k, m) array ``x`` with column j times 2^-e_j, and e: the
    power of two that brings the column's largest real or imaginary part
    into [0.5, 1), so the scaling is exact (e_j = 0 on a zero column)."""
    parts = x.view(np.float64)
    big = np.abs(parts).max(axis=0, initial=0.0)
    e = np.frexp(np.maximum(big[0::2], big[1::2]))[1]
    return np.ldexp(parts, np.repeat(-e, 2)).view(complex), e


def solve_lee_many(Omega: fm.ExteriorForm, points):
    """The Lee form at all points at once; see solve_lee_pointwise."""
    pts = np.asarray(points, dtype=complex)
    coeffs, residual, reality = _solve_lee_arrays(Omega, pts)
    return [LeeSolveResult(tuple(p), tuple(th), res, real)
            for p, th, res, real in zip(pts.tolist(), coeffs.tolist(),
                                        residual.tolist(), reality.tolist())]


def solve_lee_pointwise(Omega: fm.ExteriorForm, point) -> LeeSolveResult:
    """Solve d Omega = theta ^ Omega for theta at a single point.

    For a nondegenerate Omega in complex dimension n >= 2 the 2n
    coefficients of theta in the covector basis are unique: theta_a =
    sum_{b<c} (W^-1)_cb V_abc / (n - 1), W Omega's antisymmetric coefficient
    matrix and V d Omega's (see _lee_solve), which on C^2 is -W *V / Pf W.
    ``residual`` is the largest |theta ^ Omega - d Omega|.  Raises
    DegenerateOmega when a coefficient of Omega is not finite, and when W is
    near singular: LAPACK's smallest singular value is at most LEE_RCOND
    times its largest, a test that does not depend on the scale of Omega.
    On C^2 LAPACK is asked only where the closed-form ratio is within
    LEE_BAND of that threshold, with the same verdict.
    """
    return solve_lee_many(Omega, [tuple(point)])[0]


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def verify_lck(Omega: fm.ExteriorForm, theta: fm.ExteriorForm, points,
               tolerance: float | None = None,
               seed: int = 0) -> VerificationReport:
    """Check d Omega = theta ^ Omega and d theta = 0 over the samples.

    Pass requires both residuals under the tolerance.  The report also
    carries the definiteness classification of the (1,1) part of Omega —
    the sign is recorded, not asserted.
    """
    if Omega.ambient_dim != theta.ambient_dim:
        raise ex.DimensionMismatch("forms live in different dimensions")
    tol = _auto_tolerance(Omega, theta) if tolerance is None else float(tolerance)
    pts = np.asarray(points, dtype=complex)
    omega11 = fm.bidegree_part(Omega, 1, 1)
    values = fm._evaluate_forms(
        _lck_requests(Omega, theta) + fm._definiteness_requests(omega11), pts)
    lck_res, closed_res = values[0], values[1]
    details = {
        "lck_residual": float(lck_res.max(initial=0.0)),
        "lee_closedness_residual": float(closed_res.max(initial=0.0)),
        "worst_points": _worst_points(pts, np.maximum(lck_res, closed_res)),
        "definiteness": _definiteness_summary(omega11, pts, values, 2),
    }
    worst = _worst([details["lck_residual"],
                    details["lee_closedness_residual"]])
    return _report("lck", worst, tol, int(pts.shape[0]), seed, details)


def _generator_list(group):
    """Named generators: the cyclic one plus non-identity finite elements."""
    gens = [("cyclic", group.cyclic_generator)]
    for k, u in group.non_identity_elements():
        gens.append(("finite[%d]" % k, PolyAutomorphism.from_matrix(u)))
    return gens


def verify_potential(Phi: ex.Expression, group, points,
                     tolerance: float | None = None,
                     seed: int = 0) -> VerificationReport:
    """Check that the group acts on the potential by pointwise-constant ratios.

    The coordinate axis points are always appended to the samples, so the
    directional dependence of a non-homothetic action (the negative control)
    is witnessed deterministically.  Builds omega = -i del delbar Phi, checks
    it is closed, records its definiteness, and for every generator reports
    the mean ratio Phi(g z)/Phi(z) and the spread (max - min) across points;
    pass requires every spread under the tolerance and every ratio positive.
    """
    tol = _auto_tolerance(Phi) if tolerance is None else float(tolerance)
    return _PotentialCheck(Phi, group.dim).run(group, points, tol, seed)


class _PotentialCheck:
    """verify_potential with its symbolic part built and compiled once.

    That part is Phi, and d omega~ with the definiteness requests of
    omega~ = -i del delbar Phi; :meth:`run` binds the params of Phi.
    """

    def __init__(self, Phi, n):
        ex._check_dimension((Phi,), n)
        self.phi = ex._Tape([Phi])
        self.omega_tilde = fm.kaehler_form(n, Phi)
        self.forms = fm._RequestTape(
            [(fm.exterior_d(self.omega_tilde), fm._Max)]
            + fm._definiteness_requests(self.omega_tilde), n)

    def run(self, group, points, tol, seed, binding=None):
        n = group.dim
        pts = np.concatenate([np.eye(n, dtype=complex),
                              np.asarray(points, dtype=complex)])
        vals = self.phi.values(pts, binding)[0]
        imag = np.abs(vals.imag)
        if (np.any(~(imag <= POTENTIAL_IMAG_RTOL * np.abs(vals.real)))
                or float(vals.real.min()) <= 0):
            raise NonPositivePotential(
                "potential must be real and positive on the samples "
                "(worst imaginary part %.3g, min real part %.3g)"
                % (float(np.max(imag)), float(vals.real.min())))

        values = self.forms.run(pts, binding)
        closed = values[0]
        definiteness = _definiteness_summary(self.omega_tilde, pts, values, 1)
        definiteness.pop("is_semidefinite", None)
        details = {"closedness_residual": closed, "generators": [],
                   "definiteness": definiteness}

        worst = [closed]
        for name, gen in _generator_list(group):
            moved = self.phi.values(gen.eval_many(pts), binding)[0]
            ratios = (moved / vals).real
            rho = float(ratios.mean())
            spread = float(ratios.max() - ratios.min())
            details["generators"].append(
                {"generator": name, "rho": rho, "deviation": spread})
            worst.append(spread)
            if rho <= 0:
                worst.append(1.0)
                details["nonpositive_ratio"] = True
        return _report("potential_homothety", _worst(worst), tol,
                       int(pts.shape[0]), seed, details)


def verify_invariance(a: fm.ExteriorForm, g: PolyAutomorphism, points,
                      tolerance: float | None = None,
                      seed: int = 0) -> VerificationReport:
    """Max residual of pullback(g, a) - a over the samples."""
    tol = _auto_tolerance(a) if tolerance is None else float(tolerance)
    pts = np.asarray(points, dtype=complex)
    res = fm._evaluate_forms(
        [_invariance_request(a, g.as_expressions(), fm._Residual)], pts)[0]
    return _report("invariance", res.max(initial=0.0), tol, int(pts.shape[0]),
                   seed, {"worst_points": _worst_points(pts, res)})


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Sampling parameters and tolerance override for run_suite; a message
    shows an integer past the float range as ~10^e."""

    points: int = 1000
    seed: int = 42
    tol: float | None = None

    def __post_init__(self):
        def shown(k):
            return _brief(int(k), sys.float_info.max)
        if self.points < 1:
            raise ValueError("points must be >= 1, got %s" % shown(self.points))
        if self.points > MAX_POINTS:
            raise ValueError("points must be <= %d, got %s"
                             % (MAX_POINTS, shown(self.points)))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %s" % shown(self.seed))
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive, got %r" % (self.tol,))


def _orientations(gen):
    """The generator, then its inverse when it is linear (computed lazily)."""
    yield "generator", gen
    if gen.is_linear():
        yield "generator_inverse", gen.inverse_linear()


def _proofs(requests, dim):
    """Each request's exact test: the Schwartz-Zippel bound of its proof, or
    None where it is not proven, and the tape of every request it proved
    them on.

    A request is proven when every coefficient vanished in each trial of
    ex._Tape.prove, params included as unknowns, so that it vanishes for
    every binding, and the bound on the chance that a coefficient that is
    not identically zero vanished in each trial, summed over the
    coefficients, is at most FALSE_PASS_BOUND.
    """
    tape = fm._RequestTape(requests, dim)
    vanished, degrees = tape.tape.prove()
    proofs = []
    for k in range(len(requests)):
        roots = [j for j, (i, _) in enumerate(tape.where) if i == k]
        bound = sum((ex._false_pass(degrees[j]) for j in roots), 0.0)
        proven = (k < tape.failed_at and bound <= FALSE_PASS_BOUND
                  and all(vanished[j] for j in roots))
        proofs.append(bound if proven else None)
    return proofs, tape


class _Suite:
    """What run_suite evaluates, built and compiled once.

    ``forms``, ``potential`` and the generators' expressions ``deck`` may
    hold params; each run binds them.  ``requests`` holds every form a check
    evaluates at the sample points, in check order, as one tape.  The
    identities, the lcK pair (``lck``) and each invariance under each
    generator (``invariance``, per form), are tested exactly first
    (``proofs``, each proof's false-pass bound or None): a proven one is
    only checked for errors there, and its float residual comes from its
    proof's tape ``cross_check``, which runs at the first CROSS_CHECK_POINTS
    points, and at every point where that residual reaches the tolerance.
    Identity i is request ``at[i]``.  ``requests`` is value-numbered
    within FALSE_PASS_BOUND (its ``merge_bound``), ``cross_check`` is not.
    """

    def __init__(self, dim, forms, potential, deck):
        self.tolerance = _auto_tolerance(*forms.values(), potential)
        lck, definite, invariance, self.omega11 = [], [], [], None
        if "Omega" in forms and "theta" in forms:
            lck = _lck_requests(forms["Omega"], forms["theta"])
        if "Omega" in forms:
            self.omega11 = fm.bidegree_part(forms["Omega"], 1, 1)
            definite = fm._definiteness_requests(self.omega11)
        self.lck, self.invariance = list(range(len(lck))), []
        for key in ("theta", "psi"):
            if key in forms:
                first = len(lck) + len(invariance)
                self.invariance.append(
                    (key, list(range(first, first + len(deck)))))
                invariance += [_invariance_request(forms[key], g, fm._Max)
                               for g in deck]
        self.proofs, self.cross_check = _proofs(lck + invariance, dim)
        self.at = self.lck + [len(definite) + i
                              for _, ids in self.invariance for i in ids]
        self.requests = fm._RequestTape(
            lck + definite + invariance, dim,
            {k for k, proof in zip(self.at, self.proofs) if proof is not None},
            FALSE_PASS_BOUND)
        self.potential = (None if potential is None
                          else _PotentialCheck(potential, dim))


_SUITES: OrderedDict = OrderedDict()


def _suite(entry, generators):
    """The compiled suite of ``entry`` and the binding to run it with.

    A catalog entry's suite is its template's, forms, potential and deck
    generator all written over params; it is built on the first run of its
    template (entry and fixed shape, such as the dimension) and then kept,
    up to SUITE_CACHE_SIZE suites, for every binding of those params.  The
    binding takes the template's inputs from the entry.  An entry built from
    its own forms, or whose group is not its template's generator alone,
    gets a fresh suite of its generators' numbers and no binding.
    """
    template = entry.template
    if template is None or [gen for _, gen in generators] != [
            template.generator]:
        deck = [gen.as_expressions() for _, gen in generators]
        return _Suite(entry.ambient_dim, entry.forms, entry.potential,
                      deck), {}
    key = (template.write, template.fixed)
    suite = _SUITES.pop(key, None)
    if suite is None:
        forms, potential, generator = template.write(
            *template.fixed, **template.arguments(symbolic=True))
        suite = _Suite(entry.ambient_dim, forms, potential, [generator])
    _SUITES[key] = suite
    while len(_SUITES) > SUITE_CACHE_SIZE:
        _SUITES.popitem(last=False)
    return suite, template.binding()


_EXACT = {"method": "exact-modular", "prime": ex.MODULAR_PRIME,
          "trials": ex.MODULAR_TRIALS, "false_pass_bound": FALSE_PASS_BOUND}


def run_suite(entry: HopfSurfaceCatalogEntry,
              config: SuiteConfig | None = None):
    """Run every applicable check on a catalog entry, in a fixed order.

    Order: lcK residual, Lee closedness, definiteness of Omega, potential
    homothety (entries with a potential), invariance of theta and psi under
    all group generators, fixed-point freeness of the finite part, and the
    contraction property of the cyclic generator.  A generator that is not
    itself a contraction but is linear is retried through its inverse, since
    either orientation of the deck action presents the same quotient.

    A catalog entry's forms are not built: its compiled template is run
    with the entry's numbers bound (see _suite).
    """
    config = config or SuiteConfig()
    pts = annulus_points(entry.ambient_dim, config.points, config.seed)
    npts, seed = config.points, config.seed
    generators = _generator_list(entry.group)
    suite, binding = _suite(entry, generators)
    tol = suite.tolerance if config.tol is None else config.tol
    values = suite.requests.run(pts, binding)
    head, runs, reports = pts[:CROSS_CHECK_POINTS], {}, []

    def cross_check(at):
        if len(at) not in runs:
            runs[len(at)] = suite.cross_check.run(at, binding)
        return runs[len(at)]

    def identities(ids):
        """Whether the identities ``ids`` are reported proven, and their
        values: each proven one's from its proof's tape at the first
        points, or, where a float residual there reaches the tolerance
        (rounding, or an identity that holds only modulo the prime), every
        one's at every point."""
        got = [values[suite.at[i]] for i in ids]  # raises their errors
        if all(suite.proofs[i] is not None for i in ids):
            checked = [cross_check(head)[i] for i in ids]
            if all(float(np.max(v, initial=0.0)) < tol for v in checked):
                return True, checked
        return False, [v if suite.proofs[i] is None else cross_check(pts)[i]
                       for i, v in zip(ids, got)]

    for name, i in zip(("lck_residual", "lee_closedness"), suite.lck):
        proven, (res,) = identities([i])
        residual = float(res.max(initial=0.0))
        details = ({**_EXACT, "float_residual": residual} if proven
                   else {"method": "sampled"})
        details["worst_points"] = _worst_points(head if proven else pts, res)
        reports.append(_report(name, 0.0 if proven else residual, tol, npts,
                               seed, details))

    if suite.omega11 is not None:
        details = _definiteness_summary(suite.omega11, pts, values,
                                        len(suite.lck))
        ok = details.get("is_definite") and details["sign"] is not None
        margin = -details["min_abs_eigenvalue"] if ok else 1.0
        reports.append(_report("definiteness", margin, 0.0, npts, seed,
                               details))

    if suite.potential is not None:
        reports.append(suite.potential.run(entry.group, pts, tol, seed,
                                           binding))

    for key, ids in suite.invariance:
        proven, res = identities(ids)
        worst = _worst([0.0] + res)
        details = ({**_EXACT, "float_residual": worst} if proven
                   else {"method": "sampled"})
        field = "float_residual" if proven else "residual"
        details["generators"] = [{"generator": name, field: r}
                                 for (name, _), r in zip(generators, res)]
        reports.append(_report("invariance_%s" % key, 0.0 if proven else worst,
                               tol, npts, seed, details))

    fpf = fixed_point_free_check(entry.group)
    margin = FIXED_POINT_TOL - fpf.min_distance if fpf.distances else -1.0
    reports.append(_report(
        "fixed_point_free", margin, 0.0, len(entry.group.finite_part), seed,
        {"is_free": fpf.is_free,
         "min_distance": fpf.min_distance if fpf.distances else None,
         "distances": [{"element": k, "distance": d}
                       for k, d in fpf.distances]}))

    own = None
    for which, g in _orientations(entry.group.cyclic_generator):
        res = contraction_test(g)
        own = own or res  # the generator's own result
        if res.is_contraction:
            break
    else:
        res, which = own, None
    margin = res.spectral_radius - 1.0 if res.is_contraction else 1.0
    reports.append(_report(
        "contraction", margin, 0.0, res.num_points, seed,
        {"certified_map": which, "is_contraction": res.is_contraction,
         "spectral_radius": res.spectral_radius,
         "iterations_needed": res.iterations_needed,
         "radius": res.radius, "eps": res.eps, "reason": res.reason}))
    return reports


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports) -> list:
    return [r.to_json() for r in reports]
