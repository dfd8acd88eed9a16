"""Catalog of explicit locally conformally Kähler data on Hopf manifolds.

Each entry packages, on the punctured space W = C^n \\ {0}, the symbolic
differential forms of a classical construction together with the deck group
of the quotient Hopf manifold:

* ``example1``  — the standard Hopf surface with Omega = omega / |z|^2, its
  Lee form theta = -d log |z|^2, the contact-type 1-form psi, and the
  rank-one 2-form d psi (the pullback of the Fubini-Study form under the
  Hopf fibration, stored here with the normalization that makes it equal
  d psi coefficientwise).
* ``example2``  — the Kähler potential Phi = |z_1|^2 + ... + |z_n|^2 on W,
  on which the diagonal deck group acts by homotheties.
* ``kodaira``   — the non-diagonal contraction (z1, z2) -> (a z1 + t z2,
  a z2); a map/group entry with no displayed forms.
* ``vaisman``   — the weighted Vaisman structure Omega = -theta ^ psi + d psi
  on a diagonal Hopf surface with weights (r1, r2) and phases (p1, p2).

The module also builds the two deformation families, both
:class:`~hopflck.maps.ScalingFamily` curves t -> T_t^{-1} g T_t: uniform
weights interpolate a polynomial contraction with its linear part, and the
graded weights (0, 1, ..., n-1) melt the superdiagonal of a Jordan matrix.

Each entry writes its forms and potential once, in a function whose inputs
may be numbers or :func:`~hopflck.expr.param` leaves (an
:class:`EntryTemplate`).  With the entry's numbers it gives the entry's
forms, built on first access of ``forms``; with params it gives the template
that :func:`hopflck.verify.run_suite` compiles once and binds per entry.

On the Vaisman entry: the raw weighted 1-form returned by
:func:`weighted_sasaki` is invariant under the deck group only when the two
weights agree.  The entry therefore uses :func:`weighted_sasaki_invariant`,
the transport of the same spherical form along the radial trivialization
w = e^{-r t} z; it coincides with the raw form on the unit sphere and for
equal weights, and is deck-invariant for all weights.
"""

from __future__ import annotations

import cmath
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from . import forms as fm
from .maps import (GroupSpec, NotJordan, PolyAutomorphism, ScalingFamily)

__all__ = [
    "HopfSurfaceCatalogEntry", "EntryTemplate", "BadParameter", "UnknownEntry",
    "example1_entry", "example2_potential", "example2_entry",
    "kodaira_family", "kodaira_entry", "vaisman_entry",
    "family_to_linear", "family_to_diagonal",
    "weighted_sasaki", "weighted_sasaki_invariant", "implicit_time",
    "ENTRY_NAMES", "build_entry", "JORDAN_SNAP_TOL",
]

# family_to_diagonal snaps off-diagonal entries this close to 0 or 1.
JORDAN_SNAP_TOL = 1e-12


class BadParameter(ValueError):
    """A catalog parameter violates its admissibility constraint."""


class UnknownEntry(KeyError):
    """No catalog entry with the requested name."""


class EntryTemplate(NamedTuple):
    """How a catalog entry writes its forms and potential.

    ``write(*fixed, **inputs)`` returns (forms, potential).  ``fixed`` sets
    the shape, such as the dimension.  Each input may be a number or the
    ex.param of its name: with the entry's numbers, ``inputs``, it gives the
    entry's forms; with params it gives the template, over which the
    entry's numbers are a binding.
    """

    write: Callable
    inputs: dict
    fixed: tuple = ()

    def build(self, symbolic: bool = False):
        inputs = self.inputs
        if symbolic:
            inputs = {key: ex.param(key) for key in inputs}
        return self.write(*self.fixed, **inputs)


class HopfSurfaceCatalogEntry:
    """Immutable bundle of named forms, deck group, and parameters.

    A catalog entry carries a ``template`` in place of its forms and
    potential, which are then built from it on first access.
    """

    __slots__ = ("name", "ambient_dim", "group", "parameters", "template",
                 "_built")

    def __init__(self, name, ambient_dim, forms, group, parameters,
                 potential=None, template=None):
        if template is not None and (forms or potential is not None):
            raise ValueError("give an entry its forms or a template, not both")
        for key, value in (("name", name), ("ambient_dim", ambient_dim),
                           ("group", group), ("template", template),
                           ("parameters", MappingProxyType(dict(parameters))),
                           ("_built", None)):
            object.__setattr__(self, key, value)
        if template is None:
            self._check(forms or {}, potential)

    def __setattr__(self, name, value):
        raise AttributeError("catalog entries are immutable")

    def __repr__(self):
        return "HopfSurfaceCatalogEntry(name=%r, ambient_dim=%r, parameters=%r)" % (
            self.name, self.ambient_dim, dict(self.parameters))

    @property
    def forms(self) -> MappingProxyType:
        return (self._built or self._check(*self.template.build()))[0]

    @property
    def potential(self) -> ex.Expression | None:
        return (self._built or self._check(*self.template.build()))[1]

    def _check(self, forms, potential):
        forms = MappingProxyType(dict(forms))
        for key, form in forms.items():
            if form.ambient_dim != self.ambient_dim:
                raise ex.DimensionMismatch(
                    "form %r has ambient dimension %d, entry expects %d"
                    % (key, form.ambient_dim, self.ambient_dim))
        object.__setattr__(self, "_built", (forms, potential))
        return self._built


# ---------------------------------------------------------------------------
# example1: the standard Hopf surface
# ---------------------------------------------------------------------------


def _norm_squared(n: int) -> ex.Expression:
    total = ex.const(0.0)
    for i in range(1, n + 1):
        total = ex.add(total, ex.mul(ex.z(i), ex.zbar(i)))
    return total


def example1_entry(mu: complex = 2.0) -> HopfSurfaceCatalogEntry:
    """Standard Hopf surface: Omega = omega / |z|^2 with Lee form -d log |z|^2.

    The entry carries Omega, theta, psi, and ``fubini_study`` := d psi, the
    degenerate rank-one 2-form pulled back from the projective line.  The
    deck group is generated by z -> mu z with |mu| > 1 (so the inverse of
    the generator is the contraction).
    """
    mu = complex(mu)
    if not abs(mu) > 1:
        raise BadParameter("example1 needs |mu| > 1, got |mu| = %g" % abs(mu))
    group = GroupSpec((np.eye(2, dtype=complex),),
                      PolyAutomorphism.diagonal([mu] * 2))
    return HopfSurfaceCatalogEntry("example1", 2, None, group, {"mu": mu},
                                   template=EntryTemplate(_example1_forms, {}))


def _example1_forms():
    n = 2
    rho = _norm_squared(n)
    rho2 = ex.mul(rho, rho)
    mi = ex.const(-1j)
    pi_ = ex.const(1j)

    omega_terms = {(0, 2): ex.div(mi, rho), (1, 3): ex.div(mi, rho)}
    theta_terms = {
        (0,): ex.div(ex.mul(ex.const(-1.0), ex.zbar(1)), rho),
        (1,): ex.div(ex.mul(ex.const(-1.0), ex.zbar(2)), rho),
        (2,): ex.div(ex.mul(ex.const(-1.0), ex.z(1)), rho),
        (3,): ex.div(ex.mul(ex.const(-1.0), ex.z(2)), rho),
    }
    psi_terms = {
        (0,): ex.div(ex.mul(mi, ex.zbar(1)), rho),
        (1,): ex.div(ex.mul(mi, ex.zbar(2)), rho),
        (2,): ex.div(ex.mul(pi_, ex.z(1)), rho),
        (3,): ex.div(ex.mul(pi_, ex.z(2)), rho),
    }
    two_i = ex.const(2j)
    fs_terms = {
        (0, 2): ex.div(ex.mul(two_i, ex.mul(ex.z(2), ex.zbar(2))), rho2),
        (1, 3): ex.div(ex.mul(two_i, ex.mul(ex.z(1), ex.zbar(1))), rho2),
        (0, 3): ex.div(ex.mul(ex.const(-2j), ex.mul(ex.zbar(1), ex.z(2))), rho2),
        (1, 2): ex.div(ex.mul(ex.const(-2j), ex.mul(ex.zbar(2), ex.z(1))), rho2),
    }
    forms = {
        "Omega": fm.form_from_terms(n, 2, omega_terms),
        "theta": fm.form_from_terms(n, 1, theta_terms),
        "psi": fm.form_from_terms(n, 1, psi_terms),
        "fubini_study": fm.form_from_terms(n, 2, fs_terms),
    }
    return forms, None


# ---------------------------------------------------------------------------
# example2: the Kähler potential on the punctured space
# ---------------------------------------------------------------------------


def example2_potential(n: int = 2, mu: complex = 2.0):
    """Potential Phi = sum |z_i|^2 with the diagonal deck group z -> mu z.

    The group acts on Phi by the homothety factor |mu|^2; n = 2 is the
    surface case, larger n is provided on the same pattern.
    """
    group = _example2_group(n, mu)
    return _norm_squared(group.dim), group


def _example2_group(n, mu) -> GroupSpec:
    mu = complex(mu)
    try:
        integral = int(n) == n
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise BadParameter("example2 needs an integer dimension n, got %r"
                           % (n,))
    n = int(n)
    if not abs(mu) > 1:
        raise BadParameter("example2 needs |mu| > 1, got |mu| = %g" % abs(mu))
    if n < 2:
        raise BadParameter("example2 needs dimension >= 2, got %d" % n)
    return GroupSpec((np.eye(n, dtype=complex),),
                     PolyAutomorphism.diagonal([mu] * n))


def example2_entry(n: int = 2, mu: complex = 2.0) -> HopfSurfaceCatalogEntry:
    """Entry form of the potential: Omega = -i del delbar Phi, theta = 0."""
    group = _example2_group(n, mu)
    n = group.dim
    return HopfSurfaceCatalogEntry(
        "example2", n, None, group, {"mu": complex(mu), "n": n},
        template=EntryTemplate(_example2_forms, {}, (n,)))


def _example2_forms(n):
    phi = _norm_squared(n)
    forms = {
        "Omega": fm.kaehler_form(n, phi),
        "theta": fm.ExteriorForm(n, 1, {}),
    }
    return forms, phi


# ---------------------------------------------------------------------------
# kodaira: the non-diagonal contraction, and the deformation families
# ---------------------------------------------------------------------------


def kodaira_family(alpha: complex = 0.5, t: complex = 1.0) -> PolyAutomorphism:
    """The non-diagonal contraction (z1, z2) -> (alpha z1 + t z2, alpha z2)."""
    alpha = complex(alpha)
    t = complex(t)
    if not 0 < abs(alpha) < 1:
        raise BadParameter("kodaira needs 0 < |alpha| < 1, got |alpha| = %g"
                           % abs(alpha))
    return PolyAutomorphism.from_tables([
        {(1, 0): alpha, (0, 1): t},
        {(0, 1): alpha},
    ])


def kodaira_entry(alpha: complex = 0.5, t: complex = 1.0) -> HopfSurfaceCatalogEntry:
    """Map/group entry for the non-diagonal Hopf surface; no displayed forms."""
    gen = kodaira_family(alpha, t)
    group = GroupSpec((np.eye(2, dtype=complex),), gen)
    params = {"alpha": complex(alpha), "t": complex(t)}
    return HopfSurfaceCatalogEntry("kodaira", 2, None, group, params,
                                   template=EntryTemplate(_no_forms, {}))


def _no_forms():
    return {}, None


def family_to_linear(g: PolyAutomorphism) -> ScalingFamily:
    """Uniform-weight scaling family t -> T_t^{-1} g T_t.

    At t = 1 this is g coefficient for coefficient; the degree-k part
    carries the exact factor t^(k-1), so the t -> 0 limit is the linear
    part of g embedded as a linear automorphism.
    """
    return ScalingFamily(g, (1,) * g.dim)


def _snapped_jordan(matrix) -> np.ndarray:
    """The Jordan matrix within JORDAN_SNAP_TOL of ``matrix``, or NotJordan.

    Off-diagonal entries snap to exact 0, superdiagonal ones to exact 0 or
    1, and a superdiagonal 1 must join equal diagonal values.  The
    comparisons are written so that a NaN entry fails them.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NotJordan("matrix must be square")
    snapped = np.diag(np.diag(a))
    for (i, j), s in np.ndenumerate(a):
        if i == j or abs(s) <= JORDAN_SNAP_TOL:
            continue
        if j != i + 1:
            raise NotJordan("entry (%d, %d) = %s breaks Jordan structure"
                            % (i, j, s))
        if not abs(s - 1.0) <= JORDAN_SNAP_TOL:
            raise NotJordan("superdiagonal entry (%d, %d) = %s is neither 0 "
                            "nor 1" % (i, j, s))
        if not abs(a[i, i] - a[j, j]) <= JORDAN_SNAP_TOL:
            raise NotJordan("superdiagonal 1 at (%d, %d) joins distinct "
                            "diagonal values" % (i, j))
        snapped[i, j] = 1.0
    return snapped


def family_to_diagonal(matrix) -> ScalingFamily:
    """Graded scaling family t -> T_t^{-1} J T_t of a Jordan matrix J.

    The weights (0, 1, ..., n-1) multiply entry (i, j) by t^(j-i); on a
    Jordan matrix only the superdiagonal moves, so ``at(t).linear_part()``
    has each unit there replaced by exactly t and ``limit0().linear_part()``
    is the diagonal of eigenvalues.  Raises NotJordan before any map is
    built, and SingularLinearPart for an eigenvalue 0.
    """
    j = _snapped_jordan(matrix)
    return ScalingFamily(PolyAutomorphism.from_matrix(j), range(len(j)))


# ---------------------------------------------------------------------------
# vaisman: weighted structures on the diagonal Hopf surface
# ---------------------------------------------------------------------------


def _check_weights(r) -> tuple:
    r = tuple(float(x) for x in r)
    if len(r) != 2:
        raise BadParameter("weighted structures are built for two weights, "
                           "got %d" % len(r))
    if any(x <= 0 for x in r):
        raise BadParameter("weights must be positive, got %r" % (r,))
    return r


def _contact_form(r, e) -> fm.ExteriorForm:
    """i (sum_j r_j |z_j|^2 E_j)^-1 sum_i E_i (z_i dzbar_i - zbar_i dz_i).

    The weights r_j may be numbers or params.
    """
    (r1, r2), (e1, e2) = r, e
    den = ex.add(
        ex.mul(r1, ex.mul(ex.mul(ex.z(1), ex.zbar(1)), e1)),
        ex.mul(r2, ex.mul(ex.mul(ex.z(2), ex.zbar(2)), e2)))
    mi = ex.const(-1j)
    pi_ = ex.const(1j)
    terms = {
        (0,): ex.div(ex.mul(mi, ex.mul(ex.zbar(1), e1)), den),
        (1,): ex.div(ex.mul(mi, ex.mul(ex.zbar(2), e2)), den),
        (2,): ex.div(ex.mul(pi_, ex.mul(ex.z(1), e1)), den),
        (3,): ex.div(ex.mul(pi_, ex.mul(ex.z(2), e2)), den),
    }
    return fm.form_from_terms(2, 1, terms)


def weighted_sasaki(r=(1.0, 1.0)) -> fm.ExteriorForm:
    """The weighted contact 1-form i (sum r_i |z_i|^2)^-1 (z dzbar - zbar dz).

    With equal unit weights this is coefficientwise the psi of example1.
    """
    one = ex.const(1.0)
    return _contact_form(_check_weights(r), (one, one))


def implicit_time(r=(1.0, 1.0)) -> ex.Expression:
    """The radial coordinate t(w) solving sum_i |w_i|^2 e^{2 r_i t} = 1."""
    r1, r2 = _check_weights(r)
    return ex.implicit_t((r1, r2))


def weighted_sasaki_invariant(r=(1.0, 1.0)) -> fm.ExteriorForm:
    """Deck-invariant transport of the weighted contact form off the sphere.

    Substituting z_i = e^{r_i t(w)} w_i into the spherical form gives

        i (sum_j r_j |w_j|^2 e^{2 r_j t})^-1
          sum_i e^{2 r_i t} (w_i dwbar_i - wbar_i dw_i)

    (the dt contributions cancel in each numerator term).  On the unit
    sphere t = 0 and for equal weights the exponentials drop out, so this
    agrees with :func:`weighted_sasaki` there; unlike the raw form it is
    invariant under diag(e^{-r_1 + i p_1}, e^{-r_2 + i p_2}) for all weights
    because t picks up exactly +1 under the deck generator.
    """
    return _transported_contact_form(*_check_weights(r))


def _transported_contact_form(r1, r2) -> fm.ExteriorForm:
    """weighted_sasaki_invariant for weights that may be numbers or params."""
    t = ex.implicit_t((r1, r2))
    # 2 r folds to a constant for a numeric weight.
    e1 = ex.exp(ex.mul(ex.mul(2.0, r1), t))
    e2 = ex.exp(ex.mul(ex.mul(2.0, r2), t))
    return _contact_form((r1, r2), (e1, e2))


def vaisman_entry(r=(1.0, 1.5), p=(1.0, 2.0)) -> HopfSurfaceCatalogEntry:
    """Weighted Vaisman structure Omega = -theta ^ psi + d psi.

    theta = dt is the differential of the implicit radial coordinate
    (closed by construction), psi is the deck-invariant weighted contact
    form, and the deck group is generated by diag(lambda_1, lambda_2) with
    lambda_i = e^{-r_i + i p_i}, a genuine contraction.
    """
    r1, r2 = _check_weights(r)
    p = tuple(float(x) for x in p)
    if len(p) != 2:
        raise BadParameter("need two phases, got %d" % len(p))
    if any(x == 0 for x in p):
        raise BadParameter("phases must be nonzero, got %r" % (p,))
    lam = [cmath.exp(complex(-r1, p[0])), cmath.exp(complex(-r2, p[1]))]
    group = GroupSpec((np.eye(2, dtype=complex),),
                      PolyAutomorphism.diagonal(lam))
    params = {"r1": r1, "r2": r2, "p1": p[0], "p2": p[1]}
    template = EntryTemplate(_vaisman_forms, {"r1": r1, "r2": r2})
    return HopfSurfaceCatalogEntry("vaisman", 2, None, group, params,
                                   template=template)


def _vaisman_forms(r1, r2):
    """Omega, theta and psi of vaisman_entry; weights numbers or params."""
    t = ex.implicit_t((r1, r2))
    theta = fm.exterior_d(fm.scalar_form(2, t))
    psi = _transported_contact_form(r1, r2)
    omega = fm.exterior_d(psi) - fm.wedge(theta, psi)
    return {"Omega": omega, "theta": theta, "psi": psi}, None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


# name -> (constructor, default parameters).  The defaults name every key an
# entry accepts; build_entry merges the given values over them.
_CATALOG = {
    "example1": (example1_entry, {"mu": 2.0}),
    "example2": (example2_entry, {"mu": 2.0, "n": 2}),
    "kodaira": (kodaira_entry, {"alpha": 0.5, "t": 1.0}),
    "vaisman": (lambda r1, r2, p1, p2: vaisman_entry(r=(r1, r2), p=(p1, p2)),
                {"r1": 1.0, "r2": 1.5, "p1": 1.0, "p2": 2.0}),
}

ENTRY_NAMES = tuple(sorted(_CATALOG))


def build_entry(name: str, parameters=None) -> HopfSurfaceCatalogEntry:
    """Build a catalog entry by name; unused and non-finite parameters are
    rejected."""
    if name not in _CATALOG:
        raise UnknownEntry("unknown entry %r; known entries: %s"
                           % (name, ", ".join(ENTRY_NAMES)))
    constructor, defaults = _CATALOG[name]
    params = dict(parameters or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadParameter("entry %r does not accept parameter(s): %s"
                           % (name, ", ".join(unknown)))
    for key, value in params.items():
        if (isinstance(value, (int, float, complex))
                and not cmath.isfinite(value)):
            raise BadParameter("entry %r needs finite parameters, got %s = %r"
                               % (name, key, value))
    return constructor(**{**defaults, **params})
