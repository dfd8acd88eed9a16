"""Catalog of explicit locally conformally Kähler data on Hopf manifolds.

Each entry packages, on the punctured space W = C^n \\ {0}, the symbolic
differential forms of a classical construction together with the deck group
of the quotient Hopf manifold:

* ``example1``  — the standard Hopf surface with Omega = omega / |z|^2, its
  Lee form theta = -d log |z|^2, the contact-type 1-form psi = J theta, and
  the rank-one 2-form d psi (the pullback of the Fubini-Study form under the
  Hopf fibration).
* ``example2``  — the Kähler potential Phi = |z_1|^2 + ... + |z_n|^2 on W,
  on which the diagonal deck group acts by homotheties.
* ``kodaira``   — the non-diagonal contraction (z1, z2) -> (a z1 + t z2,
  a z2); a map/group entry with no displayed forms.
* ``vaisman``   — the weighted Vaisman structure on a diagonal Hopf surface
  with weights (r1, r2) and phases (p1, p2), of the potential Phi = e^{-t}
  of its implicit radial coordinate t; Omega = -4 omega~ / Phi equals
  d psi - theta ^ psi.

example1 and vaisman are lcK with potential (Ornea-Verbitsky), and one
writer gives both from their potentials Phi: Omega = k_omega omega~ / Phi
with omega~ = -i del delbar Phi, its Lee form theta = -d log Phi, and
psi = k_psi J theta, J the complex structure on 1-forms.

The module also builds the two deformation families, both
:class:`~hopflck.maps.ScalingFamily` curves t -> T_t^{-1} g T_t: uniform
weights interpolate a polynomial contraction with its linear part, and the
graded weights (0, 1, ..., n-1) melt the superdiagonal of a Jordan matrix.

The table ``_CATALOG`` gives each entry's parameters (a default's type is
its parameter's kind), its deck generator and its :class:`EntryTemplate`:
forms, potential and deck generator written once over numbers or
:func:`~hopflck.expr.param` leaves, built from the entry's numbers on first
access of ``forms`` and compiled (and proven) over params once by
:func:`hopflck.verify.run_suite`.
:func:`build_entry` and the command-line flags read their parameters there.
"""

from __future__ import annotations

import cmath
import numbers
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from . import forms as fm
from .maps import (GroupSpec, NotJordan, PolyAutomorphism, ScalingFamily,
                   _shown)
from .sampling import ANNULUS_OUTER

__all__ = [
    "HopfSurfaceCatalogEntry", "EntryTemplate", "BadParameter", "UnknownEntry",
    "example1_entry", "example2_potential", "example2_entry",
    "kodaira_family", "kodaira_entry", "vaisman_entry",
    "family_to_linear", "family_to_diagonal",
    "weighted_sasaki", "weighted_sasaki_invariant", "implicit_time",
    "ENTRY_NAMES", "build_entry", "JORDAN_SNAP_TOL", "MAX_DIMENSION",
]

# family_to_diagonal snaps off-diagonal entries this close to 0 or 1.
JORDAN_SNAP_TOL = 1e-12
# The largest dimension n of example2, refused above before any n x n
# array is built.  verify on 200 points takes 1.0 s and peaks at 90 MB at
# n = 64, and 50 s and 2.1 GB at n = 256 (2-vCPU Xeon), its peak growing
# about as n^2.3: about 10 GB at this bound.
MAX_DIMENSION = 512


class BadParameter(ValueError):
    """A catalog parameter violates its admissibility constraint."""


class UnknownEntry(KeyError):
    """No catalog entry with the requested name."""


class EntryTemplate(NamedTuple):
    """How a catalog entry writes its forms, potential and deck generator.

    ``write(*fixed, **inputs)`` returns (forms, potential, generator), the
    generator as the expressions of its components.  ``fixed`` sets the
    shape, such as the dimension.  Each input may be a number or stand for
    the params of its name, ``key`` for a real input and ``key.re`` + i
    ``key.im`` for a complex one: with the entry's numbers, ``inputs``, it
    gives the entry's forms; with params it gives the template, over which
    the entry's numbers are a binding.  ``generator`` is the entry's deck
    generator, the map that ``write`` gives at ``inputs``.
    """

    write: Callable
    inputs: dict
    fixed: tuple = ()
    generator: PolyAutomorphism | None = None

    def arguments(self, symbolic: bool = False) -> dict:
        """The inputs ``write`` takes: the entry's numbers, or their params."""
        if not symbolic:
            return self.inputs
        return {key: ex.add(ex.param(key + ".re"),
                            ex.mul(1j, ex.param(key + ".im")))
                if isinstance(value, complex) else ex.param(key)
                for key, value in self.inputs.items()}

    def binding(self) -> dict:
        """Each param of the symbolic arguments bound to its number."""
        binding = {}
        for key, value in self.inputs.items():
            if isinstance(value, complex):
                binding[key + ".re"], binding[key + ".im"] = (value.real,
                                                              value.imag)
            else:
                binding[key] = value
        return binding

    def build(self, symbolic: bool = False):
        """(forms, potential) as ``write`` gives them."""
        return self.write(*self.fixed, **self.arguments(symbolic))[:2]


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


def _from_potential(n, phi, k_omega, k_psi, t=None):
    """Omega = k_omega omega~ / Phi, theta = -d log Phi and psi = k_psi J theta
    of an lcK potential Phi on C^n, where omega~ = -i del delbar Phi.

    theta is dt where t = -log Phi is given, and -d Phi / Phi otherwise.
    """
    # Written -d Phi / Phi, vaisman's theta would have its pullback g*theta
    # value-numbered into theta's own nodes, whose parts d Omega holds, and
    # its cross-check would stay unmerged (726 operations against 461).
    theta = (fm.exterior_d(fm.scalar_form(n, t)) if t is not None else
             fm.exterior_d(fm.scalar_form(n, phi)).scale(ex.div(-1.0, phi)))
    return {"Omega": fm.kaehler_form(n, phi).scale(ex.div(k_omega, phi)),
            "theta": theta, "psi": fm.complex_structure(theta).scale(k_psi)}


def _example1_forms(mu):
    n = 2
    forms = _from_potential(n, _norm_squared(n), 1.0, 1.0)
    forms["fubini_study"] = fm.exterior_d(forms["psi"])
    return forms, None, _scaled_coordinates(mu, n)


# ---------------------------------------------------------------------------
# example2: the Kähler potential on the punctured space; the deck
# generator z -> mu z of both examples
# ---------------------------------------------------------------------------


def _scaled_coordinates(mu, n):
    """(mu z_1, ..., mu z_n), mu a number or an expression."""
    return tuple(ex.mul(mu, ex.z(k)) for k in range(1, n + 1))


def _homothety(name, mu, n) -> PolyAutomorphism:
    """z -> mu z on C^n, the deck generator of example1 and example2."""
    if not abs(mu) > 1:
        raise BadParameter("%s needs |mu| > 1, got |mu| = %g"
                           % (name, abs(mu)))
    outer = abs(mu) * ANNULUS_OUTER  # |mu z| on the sampling annulus
    if np.isinf(outer * outer):
        raise BadParameter("%s needs |mu z|^2 finite for |z| <= %g, got "
                           "mu = %s" % (name, ANNULUS_OUTER, _shown(mu)))
    if not 2 <= n <= MAX_DIMENSION:
        raise BadParameter("%s needs dimension 2 <= n <= %d, got n = %d"
                           % (name, MAX_DIMENSION, n))
    matrix = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(matrix, mu)
    return PolyAutomorphism.from_matrix(matrix)


def _example2_forms(n, mu):
    phi = _norm_squared(n)
    forms = {"Omega": fm.kaehler_form(n, phi),
             "theta": fm.ExteriorForm(n, 1, {})}
    return forms, phi, _scaled_coordinates(mu, n)


# ---------------------------------------------------------------------------
# kodaira, which displays no forms, and the deformation families
# ---------------------------------------------------------------------------


def _kodaira_forms(alpha, t):
    """No forms; the generator (alpha z1 + t z2, alpha z2)."""
    z1, z2 = ex.z(1), ex.z(2)
    return {}, None, (ex.add(ex.mul(alpha, z1), ex.mul(t, z2)),
                      ex.mul(alpha, z2))


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


def weighted_sasaki(r=(1.0, 1.0)) -> fm.ExteriorForm:
    """The weighted contact 1-form i (sum r_i |z_i|^2)^-1 (z dzbar - zbar dz).

    With equal unit weights this is the psi of example1.
    """
    r1, r2 = _check_weights(r)
    den = ex.add(ex.mul(r1, ex.mul(ex.z(1), ex.zbar(1))),
                 ex.mul(r2, ex.mul(ex.z(2), ex.zbar(2))))
    coords = (ex.zbar(1), ex.zbar(2), ex.z(1), ex.z(2))
    return fm.form_from_terms(2, 1, {
        (k,): ex.div(ex.mul(ex.const(-1j if k < 2 else 1j), c), den)
        for k, c in enumerate(coords)})


def implicit_time(r=(1.0, 1.0)) -> ex.Expression:
    """The radial coordinate t(w) solving sum_i |w_i|^2 e^{2 r_i t} = 1."""
    return ex.implicit_t(_check_weights(r))


def weighted_sasaki_invariant(r=(1.0, 1.0)) -> fm.ExteriorForm:
    """2 J dt, the deck-invariant weighted contact form: vaisman's psi.

    t(w) = implicit_time(r) is the radial coordinate, so 2 J dt is the
    weighted contact form transported off the unit sphere along w =
    e^{-r t} z,

        i (sum_j r_j |w_j|^2 e^{2 r_j t})^-1
          sum_i e^{2 r_i t} (w_i dwbar_i - wbar_i dw_i).

    On the unit sphere t = 0 and for equal weights the exponentials drop
    out, so this agrees with :func:`weighted_sasaki` there; unlike the raw
    form it is invariant under diag(e^{-r_1 + i p_1}, e^{-r_2 + i p_2}) for
    all weights because t picks up exactly +1 under the deck generator.
    """
    dt = fm.exterior_d(fm.scalar_form(2, implicit_time(r)))
    return fm.complex_structure(dt).scale(2.0)


def _vaisman_deck(r1, r2, p1, p2) -> PolyAutomorphism:
    """diag(e^{-r_1 + i p_1}, e^{-r_2 + i p_2}), a genuine contraction for
    positive weights; the phases must be nonzero."""
    _check_weights((r1, r2))
    if p1 == 0 or p2 == 0:
        raise BadParameter("phases must be nonzero, got %r" % ((p1, p2),))
    return PolyAutomorphism.diagonal(
        [cmath.exp(complex(-r1, p1)), cmath.exp(complex(-r2, p2))])


def _vaisman_forms(r1, r2, p1, p2):
    """Omega, theta and psi of vaisman_entry and its generator z_k ->
    exp(-r_k + i p_k) z_k; weights and phases numbers or params."""
    t = ex.implicit_t((r1, r2))
    forms = _from_potential(2, ex.exp(ex.mul(-1.0, t)), -4.0, 2.0, t)
    generator = tuple(ex.mul(ex.exp(ex.sub(ex.mul(1j, p), r)), ex.z(k))
                      for k, (r, p) in enumerate(((r1, p1), (r2, p2)), 1))
    return forms, None, generator


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class _Entry(NamedTuple):
    """A catalog entry: every key it takes, with a default of the key's
    type; ``deck(**parameters)``, its generator, which raises BadParameter
    for inadmissible values; and its template's ``write``, run with the
    keys ``fixed`` as its shape and every other key as its inputs."""

    defaults: dict
    deck: Callable
    write: Callable
    fixed: tuple = ()


_CATALOG = {
    "example1": _Entry({"mu": 2 + 0j},
                       lambda mu: _homothety("example1", mu, 2),
                       _example1_forms),
    "example2": _Entry({"mu": 2 + 0j, "n": 2},
                       lambda mu, n: _homothety("example2", mu, n),
                       _example2_forms, fixed=("n",)),
    # kodaira_family is defined below, its defaults read from this table.
    "kodaira": _Entry({"alpha": 0.5 + 0j, "t": 1 + 0j},
                      lambda alpha, t: kodaira_family(alpha, t),
                      _kodaira_forms),
    "vaisman": _Entry({"r1": 1.0, "r2": 1.5, "p1": 1.0, "p2": 2.0},
                      _vaisman_deck, _vaisman_forms),
}

ENTRY_NAMES = tuple(sorted(_CATALOG))

# Each parameter kind: the numbers it takes, and what a message calls it.
# The catalog's int parameters are dimensions.
_NUMBER_KINDS = {complex: (numbers.Complex, "a complex number for"),
                 float: (numbers.Real, "a real number for"),
                 int: (numbers.Real, "an integer dimension")}


def _parameter(name, key, value, kind):
    """``value`` as ``kind``, the type of the key's default; BadParameter
    unless it is a number of that kind (integral for int), not a boolean,
    and finite."""
    accepted, noun = _NUMBER_KINDS[kind]
    try:
        number = (kind(value) if isinstance(value, accepted)
                  and not isinstance(value, bool) else None)
    except (ValueError, OverflowError):  # int(nan), float(10**400)
        number = None
    if number is None or kind is int and number != value:
        raise BadParameter("entry %r needs %s %s, got %s"
                           % (name, noun, key, _shown(value)))
    if kind is not int and not cmath.isfinite(number):
        raise BadParameter("entry %r needs finite parameters, got %s = %r"
                           % (name, key, value))
    return number


def build_entry(name: str, parameters=None) -> HopfSurfaceCatalogEntry:
    """Build a catalog entry by name.

    Each given value takes the type of its key's default; an unknown key, a
    value of another kind or a non-finite one raises BadParameter, and so
    does a value the entry's deck generator does not admit.
    """
    if name not in _CATALOG:
        raise UnknownEntry("unknown entry %r; known entries: %s"
                           % (name, ", ".join(ENTRY_NAMES)))
    spec = _CATALOG[name]
    given = dict(parameters or {})
    unknown = sorted(set(given) - set(spec.defaults))
    if unknown:
        raise BadParameter("entry %r does not accept parameter(s): %s"
                           % (name, ", ".join(unknown)))
    params = {**spec.defaults, **{
        key: _parameter(name, key, value, type(spec.defaults[key]))
        for key, value in given.items()}}
    generator = spec.deck(**params)
    group = GroupSpec((np.eye(generator.dim, dtype=complex),), generator)
    template = EntryTemplate(
        spec.write, {k: v for k, v in params.items() if k not in spec.fixed},
        tuple(params[k] for k in spec.fixed), generator)
    return HopfSurfaceCatalogEntry(name, generator.dim, None, group, params,
                                   template=template)


# ---------------------------------------------------------------------------
# The entries by name, with the catalog's defaults
# ---------------------------------------------------------------------------

_EXAMPLE1, _EXAMPLE2, _KODAIRA, _VAISMAN = (
    spec.defaults for spec in _CATALOG.values())


def example1_entry(mu: complex = _EXAMPLE1["mu"]) -> HopfSurfaceCatalogEntry:
    """Standard Hopf surface: Omega = omega / |z|^2 with Lee form -d log |z|^2.

    Omega and theta are those of the potential Phi = |z|^2, whose omega~ is
    omega; the entry also carries psi = J theta and ``fubini_study`` :=
    d psi, the degenerate rank-one 2-form pulled back from the projective
    line.  The deck group is generated by z -> mu z with |mu| > 1 (so the
    inverse of the generator is the contraction).
    """
    return build_entry("example1", {"mu": mu})


def example2_potential(n: int = _EXAMPLE2["n"], mu: complex = _EXAMPLE2["mu"]):
    """Potential Phi = sum |z_i|^2 with the diagonal deck group z -> mu z.

    The group acts on Phi by the homothety factor |mu|^2; n = 2 is the
    surface case, larger n is provided on the same pattern.
    """
    entry = example2_entry(n, mu)
    return _norm_squared(entry.ambient_dim), entry.group


def example2_entry(n: int = _EXAMPLE2["n"],
                   mu: complex = _EXAMPLE2["mu"]) -> HopfSurfaceCatalogEntry:
    """Entry form of the potential: Omega = -i del delbar Phi, theta = 0."""
    return build_entry("example2", {"mu": mu, "n": n})


def kodaira_family(alpha: complex = _KODAIRA["alpha"],
                   t: complex = _KODAIRA["t"]) -> PolyAutomorphism:
    """The non-diagonal contraction (z1, z2) -> (alpha z1 + t z2, alpha z2)."""
    if not 0 < abs(alpha) < 1:
        raise BadParameter("kodaira needs 0 < |alpha| < 1, got |alpha| = %g"
                           % abs(alpha))
    return PolyAutomorphism.from_tables([{(1, 0): alpha, (0, 1): t},
                                         {(0, 1): alpha}])


def kodaira_entry(alpha: complex = _KODAIRA["alpha"],
                  t: complex = _KODAIRA["t"]) -> HopfSurfaceCatalogEntry:
    """Map/group entry for the non-diagonal Hopf surface; no displayed forms."""
    return build_entry("kodaira", {"alpha": alpha, "t": t})


def vaisman_entry(r=(_VAISMAN["r1"], _VAISMAN["r2"]),
                  p=(_VAISMAN["p1"], _VAISMAN["p2"])
                  ) -> HopfSurfaceCatalogEntry:
    """Weighted Vaisman structure of the potential Phi = e^{-t}.

    t is the implicit radial coordinate, so theta = -d log Phi = dt (closed
    by construction), Omega = -4 omega~ / Phi with omega~ = -i del delbar
    Phi, and psi = 2 J dt is the deck-invariant weighted contact form
    (:func:`weighted_sasaki_invariant`); Omega = d psi - theta ^ psi.  The
    deck group is generated by diag(lambda_1, lambda_2) with lambda_i =
    e^{-r_i + i p_i}, a genuine contraction, which moves t by 1 and so
    multiplies Phi by e^{-1}.
    """
    r, p = tuple(r), tuple(p)
    for what, pair in (("weights", r), ("phases", p)):
        if len(pair) != 2:
            raise BadParameter("need two %s, got %d" % (what, len(pair)))
    return build_entry("vaisman", dict(zip(("r1", "r2", "p1", "p2"), r + p)))
