"""Residual certification of locally conformally Kähler identities.

Checks are sampling-based: each one evaluates symbolic identities at seeded
annulus points and reports the worst residual against a tolerance.  Reports
are plain dataclasses with a fixed JSON shape so that identical inputs
produce byte-identical output.

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
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import forms as fm
from .hopf import HopfSurfaceCatalogEntry
from .maps import (FIXED_POINT_TOL, PolyAutomorphism, contraction_test,
                   fixed_point_free_check, _monomial_sum)
from .sampling import annulus_points

__all__ = [
    "VerificationReport", "LeeSolveResult", "SuiteConfig",
    "solve_lee_pointwise", "solve_lee_many",
    "verify_lck", "verify_potential", "verify_invariance",
    "run_suite", "suite_passed", "reports_to_json", "jsonify",
    "DegenerateOmega", "NonPositivePotential",
    "RATIONAL_TOL", "IMPLICIT_TOL", "LEE_RCOND", "POTENTIAL_IMAG_RTOL",
    "SUITE_CACHE_SIZE", "MAX_POINTS",
]

RATIONAL_TOL = 1e-10
IMPLICIT_TOL = 1e-8
LEE_RCOND = 1e-10
# A potential counts as real where |Im Phi| <= POTENTIAL_IMAG_RTOL |Re Phi|.
POTENTIAL_IMAG_RTOL = 1e-12
WORST_POINTS = 3
# Compiled suites run_suite keeps, one per catalog template; the least
# recently used goes first.
SUITE_CACHE_SIZE = 8
# Most sample points a suite or a Lee solve takes.  At this size verify on
# vaisman peaks at about 320 MB and solve-lee prints about 630 MB of JSON.
MAX_POINTS = 10 ** 6


class DegenerateOmega(ValueError):
    """The 2-form is (near) degenerate at the requested point."""


class NonPositivePotential(ValueError):
    """A candidate potential fails to be real and positive on the samples."""


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """One named check: status is pass exactly when max_residual < tolerance."""

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


def _report(check_name, worst, tolerance, num_points, seed, details):
    worst = float(worst)
    return VerificationReport(check_name, _status(worst, tolerance), worst,
                              tolerance, num_points, seed, details)


# Each check's forms are requests for fm._evaluate_forms, so that run_suite
# evaluates all of them at its points through one tape; a check then reduces
# the values, which it takes in request order.


def _lck_requests(Omega, theta):
    """d Omega - theta ^ Omega and d theta, for their per-point residuals."""
    return [(fm.exterior_d(Omega) - fm.wedge(theta, Omega), False),
            (fm.exterior_d(theta), False)]


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


def _invariance_request(a, g_exprs):
    """pullback(g, a) - a, for its per-point residual; g as expressions."""
    return fm.pullback(g_exprs, a) - a, False


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
    nn = 2 * n
    pts = np.asarray(points, dtype=complex)
    m = pts.shape[0]
    both = fm._evaluate_forms([(Omega, True), (fm.exterior_d(Omega), True)],
                              pts)
    omega_vals, dom_vals = both[0], both[1]

    mats = np.zeros((m, nn, nn), dtype=complex)
    for (i, j), arr in omega_vals.items():
        mats[:, i, j] = arr
        mats[:, j, i] = -arr
    sv = np.linalg.svd(mats, compute_uv=False)
    degenerate = np.flatnonzero(~(sv[:, -1] > LEE_RCOND * sv[:, 0]))
    if degenerate.size:
        k = int(degenerate[0])
        ratio = sv[k, -1] / sv[k, 0] if sv[k, 0] > 0 else 0.0
        raise DegenerateOmega(
            "2-form degenerate at point %d (sigma_min/sigma_max = %.3g)"
            % (k, ratio))

    # (theta ^ Omega)_abc = theta_a W_bc - theta_b W_ac + theta_c W_ab for
    # a < b < c, so each point's design matrix is read off W = mats.
    triples = list(itertools.combinations(range(nn), 3))
    a, b, c = np.array(triples).T
    rows = np.arange(len(triples))
    design = np.zeros((m, len(triples), nn), dtype=complex)
    design[:, rows, a] = mats[:, b, c]
    design[:, rows, b] = -mats[:, a, c]
    design[:, rows, c] = mats[:, a, b]
    zero = np.zeros(m, dtype=complex)
    target = np.stack([dom_vals.get(t, zero) for t in triples],
                      axis=1)[:, :, None]

    # One batched QR solve; the gate above guarantees full column rank.
    q, r = np.linalg.qr(design)
    coeffs = np.linalg.solve(r, np.conj(q.swapaxes(1, 2)) @ target)
    residual = np.abs(design @ coeffs - target).max(axis=(1, 2))
    coeffs = coeffs[..., 0]
    reality = np.abs(coeffs[:, n:] - np.conj(coeffs[:, :n])).max(axis=1)
    return coeffs, residual, reality


def solve_lee_many(Omega: fm.ExteriorForm, points):
    """Least-squares Lee form at all points at once; see solve_lee_pointwise."""
    pts = np.asarray(points, dtype=complex)
    coeffs, residual, reality = _solve_lee_arrays(Omega, pts)
    return [LeeSolveResult(tuple(p), tuple(th), res, real)
            for p, th, res, real in zip(pts.tolist(), coeffs.tolist(),
                                        residual.tolist(), reality.tolist())]


def solve_lee_pointwise(Omega: fm.ExteriorForm, point) -> LeeSolveResult:
    """Solve d Omega = theta ^ Omega for theta at a single point.

    The 2n unknown coefficients of theta in the covector basis are fitted by
    least squares against the 3-form d Omega; for a nondegenerate Omega in
    complex dimension >= 2 the solution is unique.  Raises DegenerateOmega
    when the antisymmetric coefficient matrix of Omega is near singular:
    its smallest singular value is at most LEE_RCOND times its largest, a
    test that does not depend on the scale of Omega.
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
    worst = max(details["lck_residual"], details["lee_closedness_residual"])
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
            [(fm.exterior_d(self.omega_tilde), False)]
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
        closed = float(values[0].max(initial=0.0))
        definiteness = _definiteness_summary(self.omega_tilde, pts, values, 1)
        definiteness.pop("is_semidefinite", None)
        details = {"closedness_residual": closed, "generators": [],
                   "definiteness": definiteness}

        worst = closed
        for name, gen in _generator_list(group):
            moved = self.phi.values(gen.eval_many(pts), binding)[0]
            ratios = (moved / vals).real
            rho = float(ratios.mean())
            spread = float(ratios.max() - ratios.min())
            details["generators"].append(
                {"generator": name, "rho": rho, "deviation": spread})
            worst = max(worst, spread)
            if rho <= 0:
                worst = max(worst, 1.0)
                details["nonpositive_ratio"] = True
        return _report("potential_homothety", worst, tol, int(pts.shape[0]),
                       seed, details)


def verify_invariance(a: fm.ExteriorForm, g: PolyAutomorphism, points,
                      tolerance: float | None = None,
                      seed: int = 0) -> VerificationReport:
    """Max residual of pullback(g, a) - a over the samples."""
    tol = _auto_tolerance(a) if tolerance is None else float(tolerance)
    pts = np.asarray(points, dtype=complex)
    res = fm._evaluate_forms([_invariance_request(a, g.as_expressions())],
                             pts)[0]
    return _report("invariance", res.max(initial=0.0), tol, int(pts.shape[0]),
                   seed, {"worst_points": _worst_points(pts, res)})


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Sampling parameters and tolerance override for run_suite."""

    points: int = 1000
    seed: int = 42
    tol: float | None = None

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be >= 1, got %d" % self.points)
        if self.points > MAX_POINTS:
            raise ValueError("points must be <= %d, got %d"
                             % (MAX_POINTS, self.points))
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive, got %r" % (self.tol,))


def _orientations(gen):
    """The generator, then its inverse when it is linear (computed lazily)."""
    yield "generator", gen
    if gen.is_linear():
        yield "generator_inverse", gen.inverse_linear()


class _Suite:
    """What run_suite evaluates, built and compiled once.

    ``forms``, ``potential`` and the generators' expressions ``deck`` may
    hold params; each run binds them.  ``requests`` holds every form a check
    evaluates at the sample points, in check order, as one tape.
    """

    def __init__(self, dim, forms, potential, deck):
        self.tolerance = _auto_tolerance(*forms.values(), potential)
        self.lck = "Omega" in forms and "theta" in forms
        self.invariant = [key for key in ("theta", "psi") if key in forms]
        self.omega11 = None
        requests = []
        if self.lck:
            requests += _lck_requests(forms["Omega"], forms["theta"])
        if "Omega" in forms:
            self.omega11 = fm.bidegree_part(forms["Omega"], 1, 1)
            requests += fm._definiteness_requests(self.omega11)
        for key in self.invariant:
            requests += [_invariance_request(forms[key], g) for g in deck]
        self.requests = fm._RequestTape(requests, dim)
        self.potential = (None if potential is None
                          else _PotentialCheck(potential, dim))


_SUITES: OrderedDict = OrderedDict()


def _coefficient_name(k, i, mono):
    """Name of the coefficient of z^mono in component i of generator k."""
    return "g%d[%d]%s" % (k, i, mono)


def _deck_template(support):
    """Generator expressions with the given monomials per component, each
    coefficient the re/im pair of params named after it."""
    deck = []
    for k, comps in enumerate(support):
        exprs = []
        for i, monos in enumerate(comps):
            terms = []
            for mono in monos:
                name = _coefficient_name(k, i, mono)
                terms.append((mono, ex.add(
                    ex.param(name + ".re"),
                    ex.mul(ex.const(1j), ex.param(name + ".im")))))
            exprs.append(_monomial_sum(terms))
        deck.append(tuple(exprs))
    return deck


def _suite(entry, generators):
    """The compiled suite of ``entry`` and the binding to run it with.

    A catalog entry's suite is its template's, with every generator
    coefficient a param; it is built on the first run of its template
    (entry and dimension) and generator monomial support, and then kept, up
    to SUITE_CACHE_SIZE suites.  The binding takes the template's inputs from
    the entry and each coefficient from its generator, as the group has it.
    An entry built from its own forms gets a fresh suite and no binding.
    """
    template = entry.template
    if template is None:
        deck = [gen.as_expressions() for _, gen in generators]
        return _Suite(entry.ambient_dim, entry.forms, entry.potential,
                      deck), {}
    binding = dict(template.inputs)
    support = []
    for k, (_, gen) in enumerate(generators):
        support.append(tuple(tuple(sorted(c.coeffs)) for c in gen.components))
        for i, comp in enumerate(gen.components):
            for mono, c in comp.coeffs.items():
                name = _coefficient_name(k, i, mono)
                binding[name + ".re"], binding[name + ".im"] = c.real, c.imag
    key = (template.write, template.fixed, tuple(support))
    suite = _SUITES.pop(key, None)
    if suite is None:
        forms, potential = template.build(symbolic=True)
        suite = _Suite(entry.ambient_dim, forms, potential,
                       _deck_template(support))
    _SUITES[key] = suite
    while len(_SUITES) > SUITE_CACHE_SIZE:
        _SUITES.popitem(last=False)
    return suite, binding


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
    k = 0  # where the next check's values start
    reports = []

    if suite.lck:
        for name in ("lck_residual", "lee_closedness"):
            res = values[k]
            k += 1
            reports.append(_report(name, res.max(initial=0.0), tol, npts,
                                   seed,
                                   {"worst_points": _worst_points(pts, res)}))

    if suite.omega11 is not None:
        details = _definiteness_summary(suite.omega11, pts, values, k)
        k += 3
        ok = details.get("is_definite") and details["sign"] is not None
        margin = -details["min_abs_eigenvalue"] if ok else 1.0
        reports.append(_report("definiteness", margin, 0.0, npts, seed,
                               details))

    if suite.potential is not None:
        reports.append(suite.potential.run(entry.group, pts, tol, seed,
                                           binding))

    for key in suite.invariant:
        residuals = []
        for name, _ in generators:
            residuals.append({"generator": name,
                              "residual": float(values[k].max(initial=0.0))})
            k += 1
        worst = max([0.0] + [g["residual"] for g in residuals])
        reports.append(_report("invariance_%s" % key, worst, tol, npts, seed,
                               {"generators": residuals}))

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
