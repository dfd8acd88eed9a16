"""Residual certification of locally conformally Kähler identities.

Checks evaluate symbolic identities at seeded annulus points and report the
worst residual against a tolerance, as plain dataclasses with a fixed JSON
shape, so that identical inputs produce byte-identical output.

run_suite first tests its identities exactly, by evaluating their
coefficients' DAGs at random residues modulo a prime (ex._prove): the lcK
pair d Omega = theta ^ Omega, d theta = 0, the invariance of theta and psi
under each deck generator, and for a potential Phi the closedness of omega~
= -i del delbar Phi and the constancy of each ratio g*Phi/Phi.  A proven
identity reports residual 0.0, the false-pass bound FALSE_PASS_BOUND and its
float residual at the first CROSS_CHECK_POINTS points, a cross-check: where
that reaches the tolerance it is sampled at every point after all.  The
proofs and the cross-check run on one tape whose identities keep their two
sides, each side value-numbered apart (ex.value_number), so that the float
residual still compares two computations.  Every point is checked for the
evaluation errors sampling would raise, on one tape that is value-numbered
as a whole.  verify_potential runs the potential's part of such a suite,
built by hand; the Lee solve and the other library functions (verify_lck,
verify_invariance, ...) stay sampled.

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
import math
import numbers
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
# classified over whole arrays), on example2 at about 92 MB (149 MB while
# every point of its constant form was kept), and solve-lee prints about
# 630 MB of JSON.
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

    run_suite's identity reports (lck_residual, lee_closedness, the
    invariances, potential_homothety) name their ``method`` in ``details``:
    "exact-modular" when the identity vanished at ``trials`` random points
    modulo ``prime``, every param, exp, log and implicit time an unknown, so
    ``max_residual`` is 0.0, ``false_pass_bound`` bounds the chance that a
    nonzero identity passes so, and the float residual at the first
    CROSS_CHECK_POINTS points, its cross-check, is below the tolerance;
    "sampled" otherwise, ``max_residual`` being the worst over every point.
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
    """d Omega - theta ^ Omega, as its sides, and d theta, for their
    per-point residuals."""
    return [((fm.exterior_d(Omega), fm.wedge(theta, Omega)), fm._Residual),
            ((fm.exterior_d(theta), None), fm._Residual)]


def _definiteness_summary(definite, pts) -> dict:
    """Sign classification of a (1,1)-form at ``pts``, or the reason it has
    none, from its fm._Definite fold ``definite``."""
    try:
        rep = definite.report(pts)
    except fm.NonHermitian as err:
        return {"error": str(err)}
    return {"is_definite": rep.is_definite,
            "is_semidefinite": rep.is_semidefinite,
            "sign": rep.sign,
            "min_abs_eigenvalue": rep.min_abs_eigenvalue}


def _invariance_request(a, g_exprs, fold):
    """pullback(g, a) - a, as its sides, for its residual by ``fold``; g as
    expressions."""
    return (fm.pullback(g_exprs, a), a), fold


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
    """Solve d Omega = theta ^ Omega for theta at a single point (see
    _lee_solve); ``residual`` is the largest |theta ^ Omega - d Omega|.
    Raises DegenerateOmega when a coefficient of Omega is not finite, and
    where LAPACK's smallest singular value of Omega's coefficient matrix is
    at most LEE_RCOND times its largest (see _lee_inverse).
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
    tol = _auto_tolerance(Omega, theta) if tolerance is None else float(tolerance)
    pts = np.asarray(points, dtype=complex)
    values = fm._evaluate_forms(_lck_requests(Omega, theta) + [
        (fm.bidegree_part(Omega, 1, 1), fm._Definite)], pts)
    lck_res, closed_res = values[0], values[1]
    details = {
        "lck_residual": float(lck_res.max(initial=0.0)),
        "lee_closedness_residual": float(closed_res.max(initial=0.0)),
        "worst_points": _worst_points(pts, np.maximum(lck_res, closed_res)),
        "definiteness": _definiteness_summary(values[2], pts),
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
    """Check that omega~ = -i del delbar Phi is closed and that each
    generator g moves Phi by a constant ratio g*Phi/Phi (mean rho, spread
    max - min and spread relative to |rho|), through the potential's part
    of a suite built by hand, uncached, as run_suite does."""
    if Phi is None:
        raise ValueError("verify_potential needs a potential Phi, got None")
    generators = _generator_list(group)
    suite = _Suite(group.dim, {}, Phi,
                   [gen.as_expressions() for _, gen in generators])
    tol = suite.tolerance if tolerance is None else float(tolerance)
    return _potential_report(_Run(suite, ex._points(points), {}, tol),
                             generators, seed)


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
    """Sampling parameters and tolerance override for run_suite, refused
    with a ValueError that names the key; a message shows an integer past
    the float range as ~10^e."""

    points: int = 1000
    seed: int = 42
    tol: float | None = None

    def __post_init__(self):
        def shown(k):
            return _brief(int(k), sys.float_info.max)
        for key in ("points", "seed"):
            value = getattr(self, key)
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer, got %r"
                                 % (key, value))
        if self.points < 1:
            raise ValueError("points must be >= 1, got %s" % shown(self.points))
        if self.points > MAX_POINTS:
            raise ValueError("points must be <= %d, got %s"
                             % (MAX_POINTS, shown(self.points)))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %s" % shown(self.seed))
        if self.tol is None:
            return
        if type(self.tol) is bool or not isinstance(self.tol, numbers.Real):
            raise ValueError("tol must be a real number, got %r" % (self.tol,))
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite, got %r"
                             % (self.tol,))


def _orientations(gen):
    """The generator, then its inverse's matrix when it is linear (computed
    lazily)."""
    yield "generator", gen
    if gen.is_linear():
        yield "generator_inverse", gen.inverse_matrix()


def _proofs(requests, dim):
    """Each request's Schwartz-Zippel bound, or None where it is not
    proven, and the tape of every request it proved them on, whose sides
    are value-numbered apart (see fm._RequestTape): proven when every
    coefficient vanished in each trial of ex._prove, params included as
    unknowns, and the bounds summed over the coefficients, plus the sides'
    merge bound, are at most FALSE_PASS_BOUND."""
    tape = fm._RequestTape(requests, dim, merges_within=FALSE_PASS_BOUND)
    vanished, bounds = ex._prove(tape.roots)
    merged, proofs = tape.merge_bound or 0.0, []
    for k in range(len(requests)):
        roots = [j for j, (i, _) in enumerate(tape.where) if i == k]
        bound = sum((bounds[j] for j in roots), merged)
        proven = bound <= FALSE_PASS_BOUND and all(vanished[j] for j in roots)
        proofs.append(bound if proven else None)
    return proofs, tape


class _Suite:
    """What run_suite evaluates, built and compiled once.

    ``forms``, ``potential`` and the generators' expressions ``deck`` may
    hold params; each run binds them.  ``requests`` holds every form a check
    evaluates at the sample points, in check order, as one value-numbered
    tape (within FALSE_PASS_BOUND, its ``merge_bound``).  The identities, in
    check order the lcK pair (``lck``), the potential's and each invariance
    under each generator (``invariance``, per form), are tested exactly
    first (``proofs``, each bound or None), on the tape ``cross_check``,
    which keeps each identity's two sides and value-numbers each side apart
    (see _proofs and _Run.identities); a sampled identity i is request
    ``at[i]``.  d theta and the potential's closedness are one form each.

    ``definite`` is Omega^(1,1)'s classification request, or None;
    ``potential`` is None or the requests of Phi, of each ratio g*Phi/Phi
    and of omega~ = -i del delbar Phi's classification, the closedness
    identity and each generator's ratio identity, which is only proven.
    """

    def __init__(self, dim, forms, potential, deck):
        self.tolerance = _auto_tolerance(*forms.values(), potential)
        samples, identities, self.at = [], [], {}

        def request(form, fold):
            """Append a sample request; its index."""
            samples.append((form, fold))
            return len(samples) - 1

        def declare(requests, sampled=True):
            """Append identities, sampled unless only proven; their ids."""
            for identity in requests:
                if sampled:
                    self.at[len(identities)] = request(*identity)
                identities.append(identity)
            return range(len(identities) - len(requests), len(identities))

        self.definite, self.potential, omega11 = None, None, None
        self.lck = declare(_lck_requests(forms["Omega"], forms["theta"])
                           if "Omega" in forms and "theta" in forms else [])
        if "Omega" in forms:
            omega11 = fm.bidegree_part(forms["Omega"], 1, 1)
            self.definite = request(omega11, fm._Definite)
        if potential is not None:
            phi = fm.scalar_form(dim, potential)
            omega = fm.kaehler_form(dim, potential)
            moved = [fm.pullback(g, phi) for g in deck]
            phi_at = request(phi, fm._Range)
            ratios = [request(fm.scalar_form(
                dim, ex.div(h.terms.get((), 0.0), potential)), fm._Range)
                for h in moved]
            # Where Omega is omega~, as on example2, one classification
            # serves both.
            classified = (self.definite if omega == omega11
                          else request(omega, fm._Definite))
            # d omega~ / Phi is d Omega - theta ^ Omega for the lcK structure
            # Omega = omega~ / Phi, theta = -d log Phi of the potential, so
            # its float residual does not depend on the scale of Phi.  Where
            # Phi > 0, Phi d(g*Phi) - (g*Phi) d Phi = 0 says that g*Phi/Phi
            # is constant, with no divisor to guard.
            (closed,) = declare([((fm.exterior_d(omega).scale(
                ex.div(1.0, potential)), None), fm._Max)])
            ratio_ids = declare([((fm.wedge(phi, fm.exterior_d(h)),
                                   fm.wedge(h, fm.exterior_d(phi))), fm._Max)
                                 for h in moved], sampled=False)
            self.potential = (phi_at, ratios, classified, closed, ratio_ids)
        self.invariance = [
            (key, declare([_invariance_request(forms[key], g, fm._Max)
                           for g in deck]))
            for key in ("theta", "psi") if key in forms]
        self.proofs, self.cross_check = _proofs(identities, dim)
        self.requests = fm._RequestTape(
            [(fm._whole(form), fold) for form, fold in samples], dim,
            {k for i, k in self.at.items() if self.proofs[i] is not None},
            FALSE_PASS_BOUND)


_SUITES: OrderedDict = OrderedDict()


def _suite(entry, generators):
    """The compiled suite of ``entry`` and the binding to run it with.

    A catalog entry's suite is its template's, written over params, built on
    the first run of its template (entry and fixed shape, such as the
    dimension) and kept, up to SUITE_CACHE_SIZE suites, for every binding of
    the entry's numbers.  An entry built from its own forms, or whose group
    is not its template's generator alone, gets a fresh suite of its
    generators' numbers and no binding.
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


class _Run:
    """A suite's sample tape run at ``pts`` (``values``), and its proofs'
    tape run there or at the first CROSS_CHECK_POINTS (``head``) on use."""

    def __init__(self, suite, pts, binding, tol):
        self.suite, self.pts, self.binding, self.tol = suite, pts, binding, tol
        self.head, self.runs = pts[:CROSS_CHECK_POINTS], {}
        self.values = suite.requests.run(pts, binding)

    def cross_check(self, at):
        if len(at) not in self.runs:
            self.runs[len(at)] = self.suite.cross_check.run(at, self.binding)
        return self.runs[len(at)]

    def identities(self, ids):
        """Whether the identities ``ids`` are reported proven, and their
        values: each proven one's from its proof's tape at ``head``, or,
        where a float residual there reaches the tolerance (rounding, or an
        identity that holds only modulo the prime), at every point."""
        at, bounds, cross = self.suite.at, self.suite.proofs, self.cross_check
        got = [self.values[at[i]] for i in ids]  # raises their errors
        if all(bounds[i] is not None for i in ids):
            checked = [cross(self.head)[i] for i in ids]
            if all(float(np.max(v, initial=0.0)) < self.tol for v in checked):
                return True, checked
        return False, [v if bounds[i] is None else cross(self.pts)[i]
                       for i, v in zip(ids, got)]


def _potential_report(run, generators, seed):
    """The potential_homothety report of a suite ``run`` (see
    verify_potential); NonPositivePotential unless Phi is real, |Im Phi| <=
    POTENTIAL_IMAG_RTOL |Re Phi|, and positive at every point."""
    suite, values, m = run.suite, run.values, run.pts.shape[0]
    phi_at, ratios, classified, closed, ratio_ids = suite.potential
    phi = values[phi_at]
    if not (phi.imag <= POTENTIAL_IMAG_RTOL and phi.low > 0):
        raise NonPositivePotential(
            "potential must be real and positive on the samples "
            "(worst |Im|/|Re| %.3g, min real part %.3g)" % (phi.imag, phi.low))
    rows = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for (name, _), k in zip(generators, ratios):
            ratio = values[k]
            rho, spread = ratio.total / m, ratio.high - ratio.low
            rows.append({"generator": name, "rho": rho, "deviation": spread,
                         "relative_deviation": spread / abs(rho)})
    summary = _definiteness_summary(values[classified], run.pts)
    summary.pop("is_semidefinite", None)
    # The check is exact when the closedness is (see _Run.identities) and
    # every ratio identity is proven with each ratio's spread relative to
    # |rho| below the tolerance; the closedness is 0.0 wherever it is
    # proven so, and rho and its sign are always sampled.
    closed_proven, (residual,) = run.identities([closed])
    ratios_proven = all(suite.proofs[i] is not None
                        and row["relative_deviation"] < run.tol
                        for i, row in zip(ratio_ids, rows))
    details = (dict(_EXACT) if closed_proven and ratios_proven
               else {"method": "sampled"})
    details.update(closedness_residual=0.0 if closed_proven else residual,
                   definiteness=summary, generators=rows)
    if closed_proven:
        details["float_residual"] = residual
    worst = [details["closedness_residual"]] + (
        [] if ratios_proven else [row["relative_deviation"] for row in rows])
    if any(row["rho"] <= 0 for row in rows):
        worst.append(1.0)
        details["nonpositive_ratio"] = True
    return _report("potential_homothety", _worst(worst), run.tol, m, seed,
                   details)


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
    with the entry's numbers bound (see _suite).  A suite without sample
    requests (kodaira's) draws no points.
    """
    config = config or SuiteConfig()
    npts, seed = config.points, config.seed
    generators = _generator_list(entry.group)
    suite, binding = _suite(entry, generators)
    pts = (annulus_points(entry.ambient_dim, npts, seed) if suite.requests.folds
           else np.empty((0, entry.ambient_dim), dtype=complex))
    tol = suite.tolerance if config.tol is None else config.tol
    run = _Run(suite, pts, binding, tol)
    values, head, reports = run.values, run.head, []

    for name, i in zip(("lck_residual", "lee_closedness"), suite.lck):
        proven, (res,) = run.identities([i])
        residual = float(res.max(initial=0.0))
        details = ({**_EXACT, "float_residual": residual} if proven
                   else {"method": "sampled"})
        details["worst_points"] = _worst_points(head if proven else pts, res)
        reports.append(_report(name, 0.0 if proven else residual, tol, npts,
                               seed, details))

    if suite.definite is not None:
        details = _definiteness_summary(values[suite.definite], pts)
        ok = details.get("is_definite") and details["sign"] is not None
        margin = -details["min_abs_eigenvalue"] if ok else 1.0
        reports.append(_report("definiteness", margin, 0.0, npts, seed,
                               details))

    if suite.potential is not None:
        reports.append(_potential_report(run, generators, seed))

    for key, ids in suite.invariance:
        proven, res = run.identities(ids)
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
