"""Exterior forms on C^n \\ {0} with symbolic scalar coefficients.

The covector basis is ordered dz_1, ..., dz_n, dzbar_1, ..., dzbar_n and
indexed 0..2n-1; a form of degree d stores a map from strictly increasing
d-tuples of basis ids to :class:`hopflck.expr.Expression` coefficients.
Terms whose coefficient folds to the structural zero are pruned, but no
deeper normalization is attempted: coefficients that merely evaluate to zero
stay in the table and are handled by the numeric comparisons.

Provided operations: graded-commutative wedge, exterior derivative through
exact Wirtinger partials, the (1,0)/(0,1) split of d, bidegree projection,
the complex structure J on 1-forms, pullback along holomorphic maps,
pointwise evaluation, and eigenvalue-based definiteness of (1,1)-forms via
the Hermitian coefficient matrix H = i C.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = [
    "ExteriorForm", "scalar_form", "d_z", "d_zbar", "form_from_terms",
    "wedge", "exterior_d", "del_and_delbar", "bidegree_part", "pullback",
    "evaluate_form", "evaluate_form_many", "max_form_residual",
    "pointwise_residual", "kaehler_form", "complex_structure",
    "definiteness", "DefinitenessReport", "HermitianMatrixSample",
    "form_to_json", "form_from_json",
    "NonHolomorphicMap", "NotType11", "NonHermitian", "FormEvaluationError",
    "HERMITIAN_RTOL", "TYPE11_TOL", "ZERO_EIGENVALUE_RTOL",
]

HERMITIAN_RTOL = 1e-10
TYPE11_TOL = 1e-8
# An eigenvalue counts as zero where |lambda| <= ZERO_EIGENVALUE_RTOL times
# the largest |eigenvalue| at its point, so a sign does not depend on scale.
ZERO_EIGENVALUE_RTOL = 1e-9


class NonHolomorphicMap(ValueError):
    """Pullback was given a map component involving conjugate variables."""


class NotType11(ValueError):
    """Definiteness was asked of a form with nonvanishing (2,0)/(0,2) part."""


class NonHermitian(ValueError):
    """The extracted coefficient matrix was not Hermitian within tolerance,
    or not finite."""


class FormEvaluationError(ValueError):
    """Evaluation of one coefficient failed; records which term."""

    def __init__(self, index, cause):
        self.index = tuple(index)
        self.cause = cause
        super().__init__("term %r: %s" % (self.index, cause))


class ExteriorForm:
    """Immutable exterior form of fixed degree on C^ambient_dim."""

    __slots__ = ("ambient_dim", "degree", "terms")

    def __init__(self, ambient_dim: int, degree: int, terms=None):
        if ambient_dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not 0 <= degree <= 2 * ambient_dim:
            raise ValueError("degree %d out of range for dimension %d"
                             % (degree, ambient_dim))
        clean = {}
        for index, coeff in (terms or {}).items():
            index = tuple(int(i) for i in index)
            coeff = ex._coerce(coeff)
            if len(index) != degree:
                raise ValueError("index %r has wrong length for degree %d"
                                 % (index, degree))
            if any(not 0 <= i < 2 * ambient_dim for i in index):
                raise ValueError("index %r out of range" % (index,))
            if any(index[k] >= index[k + 1] for k in range(len(index) - 1)):
                raise ValueError("index %r is not strictly increasing" % (index,))
            if coeff.max_index > ambient_dim:
                raise ex.DimensionMismatch(
                    "coefficient uses z_%d beyond dimension %d"
                    % (coeff.max_index, ambient_dim))
            if coeff is ex._ZERO:
                continue
            if index in clean:
                raise ValueError("duplicate index %r" % (index,))
            clean[index] = coeff
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("exterior forms are immutable")

    # -- structural helpers -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_implicit(self) -> bool:
        return any(c.has_implicit for c in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, ExteriorForm)
                and self.ambient_dim == other.ambient_dim
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ambient_dim, self.degree,
                     tuple(sorted((i, id(c)) for i, c in self.terms.items()))))

    def __repr__(self):
        return "<%d-form on C^%d, %d terms>" % (self.degree, self.ambient_dim,
                                                len(self.terms))

    # -- linear structure ---------------------------------------------------

    def _check_like(self, other):
        if not isinstance(other, ExteriorForm):
            raise TypeError("expected an exterior form")
        if other.ambient_dim != self.ambient_dim or other.degree != self.degree:
            raise ex.DimensionMismatch("form mismatch: (%d, deg %d) vs (%d, deg %d)"
                             % (self.ambient_dim, self.degree,
                                other.ambient_dim, other.degree))

    def __add__(self, other):
        self._check_like(other)
        terms = dict(self.terms)
        for index, coeff in other.terms.items():
            terms[index] = ex.add(terms[index], coeff) if index in terms else coeff
        return ExteriorForm(self.ambient_dim, self.degree, terms)

    def __sub__(self, other):
        self._check_like(other)
        terms = dict(self.terms)
        for index, coeff in other.terms.items():
            terms[index] = (ex.sub(terms[index], coeff) if index in terms
                            else ex.mul(ex.const(-1.0), coeff))
        return ExteriorForm(self.ambient_dim, self.degree, terms)

    def __neg__(self):
        return self.scale(ex.const(-1.0))

    def scale(self, factor):
        """Multiply every coefficient by a scalar expression or number."""
        factor = ex._coerce(factor)
        return ExteriorForm(self.ambient_dim, self.degree,
                            {i: ex.mul(factor, c) for i, c in self.terms.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    def __rmul__(self, factor):
        return self.scale(factor)


def scalar_form(ambient_dim: int, value) -> ExteriorForm:
    """Degree-0 form holding a single scalar expression."""
    return ExteriorForm(ambient_dim, 0, {(): ex._coerce(value)})


def d_z(ambient_dim: int, i: int) -> ExteriorForm:
    """The basis covector dz_i (1-based i)."""
    if not 1 <= i <= ambient_dim:
        raise ValueError("dz index out of range")
    return ExteriorForm(ambient_dim, 1, {(i - 1,): ex.const(1.0)})


def d_zbar(ambient_dim: int, i: int) -> ExteriorForm:
    """The basis covector dzbar_i (1-based i)."""
    if not 1 <= i <= ambient_dim:
        raise ValueError("dzbar index out of range")
    return ExteriorForm(ambient_dim, 1, {(ambient_dim + i - 1,): ex.const(1.0)})


def form_from_terms(ambient_dim: int, degree: int, terms) -> ExteriorForm:
    return ExteriorForm(ambient_dim, degree, terms)


# ---------------------------------------------------------------------------
# Wedge product and exterior derivative
# ---------------------------------------------------------------------------


def _merge_indices(left, right):
    """Sorted merge of two disjoint increasing tuples with permutation sign."""
    inversions = 0
    j = 0
    for a in left:
        while j < len(right) and right[j] < a:
            j += 1
        inversions += j
    merged = tuple(sorted(left + right))
    return merged, (-1 if inversions % 2 else 1)


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Graded-commutative product; signs come from sorting the merged index."""
    if a.ambient_dim != b.ambient_dim:
        raise ex.DimensionMismatch("wedge needs matching ambient dimensions")
    degree = a.degree + b.degree
    if degree > 2 * a.ambient_dim:
        return ExteriorForm(a.ambient_dim, min(degree, 2 * a.ambient_dim), {})
    terms: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            if set(ia) & set(ib):
                continue
            merged, sign = _merge_indices(ia, ib)
            contrib = ex.mul(ca, cb)
            if sign < 0:
                contrib = ex.mul(ex.const(-1.0), contrib)
            terms[merged] = (ex.add(terms[merged], contrib)
                             if merged in terms else contrib)
    return ExteriorForm(a.ambient_dim, degree, terms)


def _d_split(a: ExteriorForm, which: str) -> ExteriorForm:
    n = a.ambient_dim
    lo, hi = (0, n) if which == "del" else ((n, 2 * n) if which == "delbar"
                                            else (0, 2 * n))
    terms: dict = {}
    for index, coeff in a.terms.items():
        in_index = set(index)
        for b in range(lo, hi):
            if b in in_index:
                continue
            dc = ex.wirtinger_d(coeff, b % n + 1, b >= n)
            if dc is ex._ZERO:
                continue
            pos = sum(1 for i in index if i < b)
            if pos % 2:
                dc = ex.mul(ex.const(-1.0), dc)
            new_index = tuple(sorted(index + (b,)))
            terms[new_index] = (ex.add(terms[new_index], dc)
                                if new_index in terms else dc)
    return ExteriorForm(n, a.degree + 1, terms)


def exterior_d(a: ExteriorForm) -> ExteriorForm:
    """Exterior derivative d = del + delbar via exact Wirtinger partials."""
    return _d_split(a, "d")


def del_and_delbar(a: ExteriorForm):
    """The (del a, delbar a) pair; their sum has exactly the terms of d a."""
    return _d_split(a, "del"), _d_split(a, "delbar")


def kaehler_form(ambient_dim: int, potential) -> ExteriorForm:
    """The (1,1)-form -i del delbar Phi of a potential Phi."""
    dbar = _d_split(scalar_form(ambient_dim, potential), "delbar")
    return _d_split(dbar, "del").scale(-1j)


def complex_structure(a: ExteriorForm) -> ExteriorForm:
    """J on 1-forms: dz_i -> i dz_i and dzbar_i -> -i dzbar_i."""
    if a.degree != 1:
        raise ValueError("J acts on 1-forms, got a %d-form" % a.degree)
    return ExteriorForm(a.ambient_dim, 1, {
        (b,): ex.mul(1j if b < a.ambient_dim else -1j, c)
        for (b,), c in a.terms.items()})


def bidegree_part(a: ExteriorForm, p: int, q: int) -> ExteriorForm:
    """Keep the terms with p unbarred and q barred covectors."""
    if p + q != a.degree:
        return ExteriorForm(a.ambient_dim, max(p + q, 0), {})
    n = a.ambient_dim
    terms = {i: c for i, c in a.terms.items()
             if sum(1 for b in i if b < n) == p}
    return ExteriorForm(n, a.degree, terms)


# ---------------------------------------------------------------------------
# Pullback along holomorphic maps
# ---------------------------------------------------------------------------


def pullback(map_exprs, a: ExteriorForm) -> ExteriorForm:
    """Pull ``a`` back along z -> (f_1(z), ..., f_n(z)).

    The components must be holomorphic: any conjugate variable or implicit
    time inside them is rejected, since then dz_i would no longer pull back
    to a (1,0)-form.  Coefficients transform by substitution and covectors
    by the holomorphic Jacobian (conjugated for the barred family).
    """
    n = a.ambient_dim
    comps = tuple(ex._coerce(f) for f in map_exprs)
    if len(comps) != n:
        raise ex.DimensionMismatch("map has %d components, form lives on C^%d"
                                   % (len(comps), n))
    for k, f in enumerate(comps):
        if f.has_conj or f.has_implicit:
            raise NonHolomorphicMap(
                "component %d contains conjugate variables" % (k + 1,))
        if f.max_index > n:
            raise ex.DimensionMismatch("component %d uses z_%d beyond C^%d"
                                       % (k + 1, f.max_index, n))
    conj_comps = tuple(ex.formal_conjugate(f) for f in comps)
    if a.degree == 0:
        return ExteriorForm(n, 0, {
            (): ex.substitute(c, comps, conj_comps) for (), c in a.terms.items()})

    jac = [[ex.wirtinger_d(f, j + 1, False) for j in range(n)] for f in comps]
    cov = {}
    for b in range(2 * n):
        if b < n:
            row = {(j,): jac[b][j] for j in range(n)}
        else:
            row = {(n + j,): ex.formal_conjugate(jac[b - n][j]) for j in range(n)}
        cov[b] = ExteriorForm(n, 1, row)

    result = ExteriorForm(n, a.degree, {})
    for index, coeff in a.terms.items():
        pulled = scalar_form(n, ex.substitute(coeff, comps, conj_comps))
        for b in index:
            pulled = wedge(pulled, cov[b])
        result = result + pulled
    return result


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_form(a: ExteriorForm, point):
    """Coefficients of ``a`` at one point, as {index: complex}."""
    pts = np.asarray([list(point)], dtype=complex)
    many = evaluate_form_many(a, pts)
    return {index: complex(vals[0]) for index, vals in many.items()}


def evaluate_form_many(a: ExteriorForm, points):
    """Coefficients over an (m, n) point array, as {index: (m,) array},
    through one tape for the whole form; a failure names the first failing
    coefficient in sorted order."""
    return _evaluate_forms([(a, _Full)], points)[0]


def pointwise_residual(a: ExteriorForm, points) -> np.ndarray:
    """Per-point max |coefficient| of ``a`` (0 where it has no terms)."""
    return _evaluate_forms([(a, _Residual)], points)[0]


def max_form_residual(a: ExteriorForm, points) -> float:
    """max |coefficient| of ``a`` over the sample points (0.0 if no terms)."""
    return _evaluate_forms([(a, _Max)], points)[0]


# How a request keeps its form's coefficients.  A fold is made per run as
# fold(form, m, scratch), with ``scratch`` a float buffer of one chunk that
# all folds of the run share; the tape hands it each term's values of each
# chunk, in root order, as add(lo, index, value), where ``value`` is an array
# of the chunk's points or a scalar; result() is what the request gives.


class _Full:
    """Every coefficient at every point: {index: (m,) complex array}."""

    def __init__(self, form, m, scratch):
        self.m, self.values = m, {}

    def add(self, lo, index, value):
        if index not in self.values:
            self.values[index] = np.empty(self.m, dtype=complex)
        self.values[index][lo:lo + ex._CHUNK] = value

    def result(self):
        return self.values


class _Residual:
    """The per-point max |coefficient|, an (m,) array (0 without terms)."""

    def __init__(self, form, m, scratch):
        self.values, self.scratch = np.zeros(m), scratch

    def add(self, lo, index, value):
        seg = self.values[lo:lo + ex._CHUNK]
        np.maximum(seg, np.abs(value, out=self.scratch[:len(seg)]), out=seg)

    def result(self):
        return self.values


class _Max:
    """The max |coefficient| over every point, as a float: 0.0 without
    terms, and NaN once a coefficient is NaN, as ``.max(initial=0.0)`` of
    the per-point residual gives."""

    def __init__(self, form, m, scratch):
        self.value, self.m, self.scratch = 0.0, m, scratch

    def add(self, lo, index, value):
        size = min(ex._CHUNK, self.m - lo)
        magnitude = np.abs(value, out=self.scratch[:size])
        self.value = magnitude.max(initial=self.value)

    def result(self):
        return float(self.value)


class _Range:
    """A 0-form's least, largest and summed real part (``low``, ``high``,
    ``total``) and largest |Im|/|Re| (``imag``), each NaN after a NaN."""

    def __init__(self, form, m, scratch):
        self.m, self.total, self.imag = m, 0.0, 0.0
        # A form without terms is 0 at every point.
        self.low, self.high = (np.inf, -np.inf) if form.terms else (0.0, 0.0)

    def add(self, lo, index, value):
        value = _column(value, min(ex._CHUNK, self.m - lo))
        re = value.real
        # numpy's minimum and maximum keep a NaN.
        self.low = np.minimum(self.low, re.min(initial=np.inf))
        self.high = np.maximum(self.high, re.max(initial=-np.inf))
        self.total += re.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(value.imag) / np.abs(re)
        self.imag = np.maximum(self.imag, ratio.max(initial=0.0))

    def result(self):
        return self


class _Evaluation:
    """The values of :func:`_evaluate_forms`, in request order.

    Indexing at or past the request whose term failed raises its error, so
    a caller that takes the values in request order meets the error where
    evaluating the forms one at a time would have raised it.
    """

    def __init__(self, values, failed_at, error):
        self.values, self.failed_at, self.error = values, failed_at, error

    def __getitem__(self, k):
        if k >= self.failed_at:
            raise self.error
        return self.values[k]


def _evaluate_forms(requests, points) -> _Evaluation:
    """Several forms at one point array, through one tape and one pass.

    ``requests`` is a sequence of (form, fold) pairs (see _RequestTape): the
    fold (_Full, _Residual, _Max, _Range or _Definite) takes the form's
    coefficients chunk by chunk and keeps of them what its request gives.
    Each form's sorted coefficients are the tape's roots, in request order,
    so an error belongs to the first form that fails and names the term
    :func:`evaluate_form_many` would name.  The forms share one ambient
    dimension, and points of another raise DimensionMismatch.
    """
    dim = _whole(requests[0][0]).ambient_dim
    return _RequestTape(requests, dim).run(ex._points(points))


def _whole(form):
    """A request's form: an exterior form, or an identity's sides (see
    _RequestTape) as their difference."""
    if not isinstance(form, tuple):
        return form
    minuend, subtrahend = form
    return minuend if subtrahend is None else minuend - subtrahend


class _RequestTape:
    """:func:`_evaluate_forms` requests compiled once for forms on C^dim,
    whose :meth:`run` refuses points of another dimension.

    A request's form is an exterior form or an identity's sides: a pair
    (minuend, subtrahend) that stands for their difference, or (form, None)
    for an identity that is one form.  Each :meth:`run` binds the params,
    so a template's requests are built and compiled once for every binding.

    A request whose index is in ``proven`` is known to vanish: its terms
    are checked roots of the tape (see ex._Tape), so it gets no values (its
    entry is None), but any error its terms would raise is raised at its
    position, naming the same term and point.

    Given ``merges_within``, the terms are value-numbered (ex.value_number)
    each side apart, the forms and minuends in one DAG and the subtrahends
    in another, so that each value of a side is computed once, and a
    request's terms are the differences of its numbered sides: a minuend
    never merges with a subtrahend, so an identity's float value still
    compares two computations.  An identity of one form is compiled as
    written, since numbering would make one node of the two terms of each
    of its differences (the mixed partials of d theta, say).  The
    numbering is dropped where the chance that some merge is false, the
    sides' bounds summed, exceeds that bound, or where it would make both
    sides of a term one node; ``merge_bound`` is that chance, or None where
    the terms are not value-numbered.
    ``folds`` holds each request's form as compiled and its fold, ``roots``
    the terms and ``where`` the request and index of each.
    """

    def __init__(self, requests, dim, proven=(), merges_within=None):
        self.dim, self.merge_bound = dim, None
        forms = [_whole(form) for form, _ in requests]
        if merges_within is not None:
            numbered, bound = _numbered([form for form, _ in requests], forms)
            if bound <= merges_within:
                forms, self.merge_bound = numbered, bound
        roots, self.where, self.folds, checked = [], [], [], []
        for k, (form, (_, fold)) in enumerate(zip(forms, requests)):
            terms = form.sorted_terms()
            self.folds.append((form, None if k in proven else fold))
            if k in proven:
                checked += range(len(roots), len(roots) + len(terms))
            roots += [c for _, c in terms]
            self.where += [(k, index) for index, _ in terms]
        self.roots, self.tape = roots, ex._Tape(roots, checked)

    def run(self, pts, binding=None) -> _Evaluation:
        """The values of the requests at the complex (m, dim) array ``pts``."""
        if pts.shape[1] != self.dim:
            raise ex.DimensionMismatch("points dimension %d vs form on C^%d"
                                       % (pts.shape[1], self.dim))
        m, where = pts.shape[0], self.where
        scratch = np.empty(min(m, ex._CHUNK))  # one chunk's |value|
        folds = [None if fold is None else fold(form, m, scratch)
                 for form, fold in self.folds]

        def consume(lo, j, value):
            k, index = where[j]
            folds[k].add(lo, index, value)

        failed_at, error = len(folds), None
        failure = self.tape.run(pts, consume, binding)
        if failure is not None:
            failed_at, index = where[failure.root]
            error = FormEvaluationError(index, failure.cause)
            error.__cause__ = failure.cause
        return _Evaluation([None if fold is None or k >= failed_at
                            else fold.result()
                            for k, fold in enumerate(folds)],
                           failed_at, error)


def _numbered(forms, wholes):
    """The request forms ``forms``, written as ``wholes``, value-numbered
    as _RequestTape says, and the sum of both sides' bounds; or None and
    infinity where numbering makes both sides of some term one node.

    Each coefficient keeps its place (see ex.value_number), so that no
    minuend coefficient merges into a node written below the minuends that
    its subtrahend holds too: a pulled-back coefficient of theta, say, into
    the unmoved one that d Omega holds.
    """
    pairs = [form for form in forms
             if isinstance(form, tuple) and form[1] is not None]
    first = [form[0] if isinstance(form, tuple) else form for form in forms
             if not isinstance(form, tuple) or form[1] is not None]
    first, bound = _number_side(first)
    second, more = _number_side([subtrahend for _, subtrahend in pairs])
    first, second = iter(first), iter(second)
    numbered = [next(first) if not isinstance(form, tuple)
                else whole if form[1] is None
                else next(first) - next(second)
                for form, whole in zip(forms, wholes)]
    if any(form.terms.keys() != whole.terms.keys()
           for form, whole in zip(numbered, wholes)):
        return None, math.inf
    return numbered, bound + more


def _number_side(column):
    """The forms ``column`` with their coefficients value-numbered in one
    DAG, and the merges' bound."""
    terms = [form.sorted_terms() for form in column]
    roots = [c for t in terms for _, c in t]
    if not roots:
        return column, 0.0
    merged, bound = ex.value_number(roots)
    coeffs = iter(merged)
    return [ExteriorForm(form.ambient_dim, form.degree,
                         {index: next(coeffs) for index, _ in t})
            for form, t in zip(column, terms)], bound


# ---------------------------------------------------------------------------
# Definiteness of (1,1)-forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HermitianMatrixSample:
    """The Hermitian part (H + H^*)/2 of H = i C at a point of a (1,1)-form
    with coefficients C, its eigenvalues and the hermiticity defect of H."""

    point: tuple
    matrix: np.ndarray
    eigenvalues: np.ndarray
    hermiticity_defect: float


@dataclass(frozen=True, eq=False)
class DefinitenessReport:
    """Joint eigenvalue-sign summary of a (1,1)-form over sample points.

    ``eigenvalues`` holds each point's eigenvalues of (H + H^*)/2 in
    ascending order, as an (m, n) array: for n = 2 from a closed form (see
    :func:`_closed_form_2x2`), for other n from LAPACK's eigvalsh.  Every
    verdict, ``min_abs_eigenvalue`` and ``worst_sample``, the first point
    of least min|lambda|, are read off them.
    """

    is_definite: bool
    is_semidefinite: bool
    sign: int | None
    min_abs_eigenvalue: float
    num_points: int
    eigenvalues: np.ndarray = field(repr=False)
    worst_sample: HermitianMatrixSample | None = field(repr=False, default=None)


def definiteness(a: ExteriorForm, points) -> DefinitenessReport:
    """Classify the sign of a (1,1)-form through H = i C at each point.

    With this extraction the coefficient matrix of -i sum h_ij dz_i dzbar_j
    is exactly h, so forms written in that convention with positive h report
    sign +1.  The common sign is recorded, never assumed: degenerate and
    negative catalog forms are legitimate outputs.  A (2,0) or (0,2) part
    whose largest residual is not below TYPE11_TOL raises NotType11.
    """
    if a.degree != 2:
        raise NotType11("definiteness needs a 2-form, got degree %d" % a.degree)
    pts = np.asarray(points, dtype=complex)
    values = _evaluate_forms(
        [(bidegree_part(a, 2, 0), _Max), (bidegree_part(a, 0, 2), _Max),
         (bidegree_part(a, 1, 1), _Definite)], pts)
    for k, (p, q) in enumerate(((2, 0), (0, 2))):
        if not values[k] < TYPE11_TOL:  # a NaN residual is refused too
            raise NotType11("(%d,%d) part has residual %.3g >= %.3g"
                            % (p, q, values[k], TYPE11_TOL))
    return values[2].report(pts)


def _defect_ratio(c):
    """(rel, |H|_F^2) for H = i C, as in :func:`_hermiticity_defect` but
    without care for over- or underflow."""
    norm2 = np.zeros(len(c[0][0]))
    defect2 = np.zeros_like(norm2)
    for i, row in enumerate(c):
        for j, x in enumerate(row):
            norm2 += x.real * x.real
            norm2 += x.imag * x.imag
            if i == j:
                defect2 += x.real * x.real  # Im H_ii = Re C_ii
            elif i < j:
                # H_ij - conj(H_ji) = i (C_ij + conj(C_ji)) is twice the
                # defect at (i, j) and at (j, i).
                y = c[j][i]
                dre, dim = x.real + y.real, x.imag - y.imag
                dre *= dre
                dim *= dim
                dre += dim
                dre *= 0.5
                defect2 += dre
    defect2 *= 4.0
    rel = np.divide(defect2, norm2, out=defect2, where=norm2 > 0)
    return np.sqrt(rel, out=rel), norm2


# |H|_F^2 in this range leaves the defect ratio unharmed by over- and
# underflow; elsewhere each point is scaled by a power of two first.
_SAFE_NORM2 = (2.0 ** -800, 2.0 ** 800)


def _hermiticity_defect(c):
    """2 |H - (H + H^*)/2|_F / |H|_F for H = i C at each point, with
    ``c[i][j]`` the (m,) column of C_ij; 0 where H is exactly zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel, norm2 = _defect_ratio(c)
    lo, hi = _SAFE_NORM2
    far = np.flatnonzero(~((norm2 >= lo) & (norm2 <= hi)))
    if far.size:
        parts = [x[far].view(np.float64).reshape(-1, 2)
                 for row in c for x in row]
        big = np.max([np.abs(p).max(axis=1) for p in parts], axis=0)
        shift = -np.frexp(big)[1][:, None]
        scaled = iter([np.ldexp(p, shift).view(complex)[:, 0]
                       for p in parts])
        rel[far] = _defect_ratio([[next(scaled) for _ in c] for _ in c])[0]
    return rel


def _hermitian_part(c, rows):
    """(H + H^*)/2 for H = i C at the points ``rows`` (an index array or
    slice), as a (points, n, n) array."""
    n = len(c)
    h = [[x[rows] * 1j for x in row] for row in c]
    sym = np.empty((len(h[0][0]), n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            np.add(np.conjugate(h[j][i]), h[i][j], out=sym[:, i, j])
    sym *= 0.5
    return sym


def _closed_form_2x2(c, eigs):
    """The ascending eigenvalues of each 2x2 (H + H^*)/2 for H = i C, written
    into the (m, 2) array ``eigs``.

    a = H_11, d = H_22 and b, the (2,1) entry of (H + H^*)/2, are scaled at
    each point by the power of two that ``np.frexp`` takes from max(|a|,
    |d|, |Re b|, |Im b|), which is exact.  The eigenvalue of larger modulus
    is then rt1 = (a + d +- hypot(a - d, 2|b|))/2, signed as a + d, and the
    other is det/rt1: the stable formula of LAPACK's dlae2, so both lie
    within a few ulps of the point's max|lambda| of the exact ones.
    """
    (c11, c12), (c21, c22) = c
    # H = i C: Re H = -Im C and Im H = Re C.  The four parts share one
    # (4, m) array, so that one ldexp scales them all.
    parts = np.empty((4, len(c11)))
    a, d, b_re, b_im = parts
    np.negative(c11.imag, out=a)
    np.negative(c22.imag, out=d)
    np.add(c21.imag, c12.imag, out=b_re)
    b_re *= -0.5
    np.subtract(c21.real, c12.real, out=b_im)
    b_im *= 0.5
    e = np.frexp(np.abs(parts).max(axis=0))[1]
    with np.errstate(invalid="ignore", over="ignore"):
        np.ldexp(parts, -e, out=parts)
        bb = b_re * b_re
        bb += b_im * b_im  # |b|^2
        sm = a + d
        rt = a - d
        rt *= rt
        rt += 4.0 * bb
        # rt1 = (sm +- hypot(a - d, 2|b|)) / 2, signed as sm
        rt1 = np.copysign(np.sqrt(rt, out=rt), sm, out=rt)
        rt1 += sm
        rt1 *= 0.5
        det = np.multiply(a, d, out=a)
        det -= bb
        # rt1 = 0 only where S = 0, and there det = 0 already.
        rt2 = np.divide(det, rt1, out=det, where=rt1 != 0)
        np.ldexp(np.minimum(rt1, rt2, out=d), e, out=eigs[:, 0])
        np.ldexp(np.maximum(rt1, rt2, out=d), e, out=eigs[:, 1])


def _column(value, size):
    """A term's values at a chunk of ``size`` points, as a complex array
    (a constant term's one value at each)."""
    value = np.asarray(value, dtype=complex)
    return value if value.ndim else np.full(size, value)


def _point(pts, k):
    return tuple(complex(c) for c in pts[k])


class _Definite:
    """The fold of a (1,1)-form's coefficients C that :meth:`report`
    classifies: the eigenvalues of (H + H^*)/2 for H = i C, chunk by chunk.

    A chunk is classified once the tape has handed over the form's last
    term; an entry without a term is 0.  Its eigenvalues come in closed form
    for n = 2 (see :func:`_closed_form_2x2`) and from LAPACK's eigvalsh of
    the chunk for other n.  Of the chunk's first point of least min|lambda|
    it keeps (H + H^*)/2 and the hermiticity defect, if that point is the
    first of the least so far.  A form of constants, which the tape hands
    over as scalars, or of no terms is classified at its first point alone,
    whose eigenvalues the report gives every point.  It also keeps the
    first point with a non-finite coefficient, after which it classifies
    nothing, and the first point of the largest hermiticity defect.
    Without points it raises ValueError.
    """

    def __init__(self, form, m, scratch):
        if m == 0:
            raise ValueError("definiteness needs at least one sample point")
        self.n, self.m = form.ambient_dim, m
        self.last = max(form.terms, default=None)  # the tape's last term
        self.chunk = {}
        self.eigenvalues = np.empty((m, self.n))
        self.non_finite = None
        self.defect = (0.0, 0)
        self.constant = False
        # (min|lambda|, point, (H + H^*)/2, hermiticity defect) at the first
        # point of the least min|lambda| so far.
        self.least = None

    def add(self, lo, index, value):
        self.chunk[index] = value
        if index == self.last:
            self._classify_chunk(lo)

    def result(self):
        if self.last is None:  # no terms: the constant 0
            self._classify_chunk(0)
        return self

    def _classify_chunk(self, lo):
        n, size = self.n, min(ex._CHUNK, self.m - lo)
        values, self.chunk = self.chunk, {}
        if self.non_finite is not None or self.constant:
            return
        if not any(np.ndim(v) for v in values.values()):
            self.constant, size = True, 1
        c = [[_column(values.get((i, n + j), 0j), size) for j in range(n)]
             for i in range(n)]
        # A NaN would win the argmax below and pass every comparison.
        finite = functools.reduce(np.logical_and,
                                  [np.isfinite(x) for row in c for x in row])
        if not finite.all():
            self.non_finite = lo + int(np.argmin(finite))
            return
        rel = _hermiticity_defect(c)
        worst = int(np.argmax(rel))
        if rel[worst] > self.defect[0]:
            self.defect = (rel[worst], lo + worst)
        eigs = self.eigenvalues[lo:lo + size]
        if n == 2:
            _closed_form_2x2(c, eigs)
        else:
            eigs[:] = np.linalg.eigvalsh(_hermitian_part(c, slice(None)))
        # Columns, not axis 1 of the (size, n) array, along which numpy
        # would run an inner loop of length n per point.
        small = functools.reduce(np.minimum, [np.abs(x) for x in eigs.T])
        k = int(np.argmin(small))
        if self.least is None or small[k] < self.least[0]:
            self.least = (small[k], lo + k, _hermitian_part(c, [k])[0],
                          rel[k])

    def report(self, pts) -> DefinitenessReport:
        """The classification at ``pts``, the points of the run; NonHermitian
        at the first point with a non-finite coefficient, else at the first
        point of the largest hermiticity defect if that reaches
        HERMITIAN_RTOL."""
        if self.non_finite is not None:
            raise NonHermitian("non-finite coefficient at point %r"
                               % (_point(pts, self.non_finite),))
        defect, at = self.defect
        if defect >= HERMITIAN_RTOL:
            raise NonHermitian("hermiticity defect %.3g at point %r"
                               % (defect, _point(pts, at)))
        eigs = self.eigenvalues
        if self.constant:  # one point classified for all
            eigs[1:] = eigs[0]

        # Each point's eigenvalues ascend, so its largest |lambda| and its
        # signs are read off the first and last columns.
        mixed = any_pos = any_neg = False
        all_pos = all_neg = True
        for lo in range(0, self.m, ex._CHUNK):
            cols = eigs[lo:lo + ex._CHUNK].T
            first, last = cols[0], cols[-1]
            zero = np.maximum(np.abs(first), np.abs(last))
            zero *= ZERO_EIGENVALUE_RTOL
            point_pos = last > zero
            all_pos = all_pos and bool((first > zero).all())
            np.negative(zero, out=zero)
            point_neg = first < zero
            all_neg = all_neg and bool((last < zero).all())
            mixed = mixed or bool((point_pos & point_neg).any())
            any_pos = any_pos or bool(point_pos.any())
            any_neg = any_neg or bool(point_neg.any())
        if mixed:
            sign = None
            is_definite = is_semidefinite = False
        elif any_neg and not any_pos:
            sign, is_semidefinite, is_definite = -1, True, all_neg
        elif any_pos and not any_neg:
            sign, is_semidefinite, is_definite = 1, True, all_pos
        else:
            sign, is_semidefinite, is_definite = 0, True, False

        smallest, worst, matrix, rel = self.least
        sample = HermitianMatrixSample(
            point=_point(pts, worst), matrix=matrix,
            eigenvalues=eigs[worst], hermiticity_defect=float(rel))
        return DefinitenessReport(is_definite=is_definite,
                                  is_semidefinite=is_semidefinite,
                                  sign=sign,
                                  min_abs_eigenvalue=float(smallest),
                                  num_points=self.m,
                                  eigenvalues=eigs,
                                  worst_sample=sample)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def form_to_json(a: ExteriorForm):
    return {
        "degree": a.degree,
        "ambient_dim": a.ambient_dim,
        "terms": [{"index": list(index), "coeff": ex.to_json(coeff)}
                  for index, coeff in a.sorted_terms()],
    }


def form_from_json(obj) -> ExteriorForm:
    """Inverse of :func:`form_to_json`; its numbers are read as expression
    JSON reads them (ex._json_number), and anything else raises
    ValueError."""
    try:
        degree, ambient, raw = obj["degree"], obj["ambient_dim"], obj["terms"]
    except (KeyError, TypeError) as err:
        raise ValueError("form JSON needs degree, ambient_dim, terms") from err
    degree = ex._json_number("degree", degree, int)
    ambient = ex._json_number("ambient_dim", ambient, int)
    if not isinstance(raw, list):
        raise ValueError("form JSON 'terms' must be a list")
    terms = {}
    for k, item in enumerate(raw):
        try:
            index = tuple(ex._json_number("index", i, int)
                          for i in item["index"])
            coeff = ex.from_json(item["coeff"])
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError("bad form JSON term %d: %s" % (k, err)) from err
        if index in terms:
            raise ValueError("duplicate index %r in form JSON" % (index,))
        terms[index] = coeff
    return ExteriorForm(ambient, degree, terms)
