"""Exterior forms on C^n \\ {0} with symbolic scalar coefficients.

The covector basis is ordered dz_1, ..., dz_n, dzbar_1, ..., dzbar_n and
indexed 0..2n-1; a form of degree d stores a map from strictly increasing
d-tuples of basis ids to :class:`hopflck.expr.Expression` coefficients.
Terms whose coefficient folds to the structural zero are pruned, but no
deeper normalization is attempted: coefficients that merely evaluate to zero
stay in the table and are handled by the numeric comparisons.

Provided operations: graded-commutative wedge, exterior derivative through
exact Wirtinger partials, the (1,0)/(0,1) split of d, bidegree projection,
pullback along holomorphic maps, pointwise evaluation, and eigenvalue-based
definiteness of (1,1)-forms via the Hermitian coefficient matrix H = i C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = [
    "ExteriorForm", "scalar_form", "d_z", "d_zbar", "form_from_terms",
    "wedge", "exterior_d", "del_and_delbar", "bidegree_part", "pullback",
    "evaluate_form", "evaluate_form_many", "max_form_residual",
    "pointwise_residual", "kaehler_form",
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
    """The extracted coefficient matrix was not Hermitian within tolerance."""


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
    dbar = del_and_delbar(scalar_form(ambient_dim, potential))[1]
    return del_and_delbar(dbar)[0].scale(-1j)


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
    """Coefficients over an (m, n) point array, as {index: (m,) array}.

    All coefficients run through one evaluation tape: the shared DAG is
    compiled once into a post-order list of operations, run over chunks of
    points, and each intermediate is freed after its last use.  Common
    denominators and implicit solves are thus computed once per chunk for
    the whole form.  A failure names the first failing coefficient in sorted
    order.
    """
    return _evaluate_forms([(a, True)], points)[0]


def pointwise_residual(a: ExteriorForm, points) -> np.ndarray:
    """Per-point max |coefficient| of ``a`` (0 where it has no terms)."""
    return _evaluate_forms([(a, False)], points)[0]


def max_form_residual(a: ExteriorForm, points) -> float:
    """max |coefficient| of ``a`` over the sample points (0.0 if no terms)."""
    return float(pointwise_residual(a, points).max(initial=0.0))


class _Evaluation:
    """The values of :func:`_evaluate_forms`, in request order.

    Indexing at or past the first request that failed raises its error, so
    a caller that takes the values in request order meets each error where
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

    ``requests`` is a sequence of (form, full) pairs.  A full form gets its
    coefficients as from :func:`evaluate_form_many`; any other only its
    :func:`pointwise_residual`, folded chunk by chunk so that none of its
    coefficients is kept at every point.  Each form's sorted coefficients
    are the tape's roots, in request order, so an error belongs to the
    first form that fails and names the term :func:`evaluate_form_many`
    would name.
    """
    pts = ex._points(points)
    return _RequestTape(requests, pts.shape[1]).run(pts)


class _RequestTape:
    """:func:`_evaluate_forms` requests compiled once for points in C^dim.

    Each :meth:`run` binds the params and evaluates every request through
    the one compiled tape, so a template's requests are built and compiled
    once however many bindings they are run with.
    """

    def __init__(self, requests, dim):
        roots, self.where, self.full = [], [], []
        self.failed_at, self.error = len(requests), None
        for k, (form, full) in enumerate(requests):
            try:
                ex._check_dimension(form.terms.values(), dim)
            except ex.DimensionMismatch as err:
                self.failed_at, self.error = k, err
                break
            terms = form.sorted_terms()
            self.full.append(full)
            roots += [c for _, c in terms]
            self.where += [(k, index) for index, _ in terms]
        self.tape = ex._Tape(roots)

    def run(self, pts, binding=None) -> _Evaluation:
        """The values of the requests at the complex (m, dim) array ``pts``."""
        m, where = pts.shape[0], self.where
        values = [{} if full else np.zeros(m) for full in self.full]

        def consume(lo, j, value):
            k, index = where[j]
            if self.full[k]:
                if index not in values[k]:
                    values[k][index] = np.empty(m, dtype=complex)
                values[k][index][lo:lo + ex._CHUNK] = value
            else:
                seg = values[k][lo:lo + ex._CHUNK]
                np.maximum(seg, np.abs(value), out=seg)

        failed_at, error = self.failed_at, self.error
        failure = self.tape.run(pts, consume, binding)
        if failure is not None:
            failed_at, index = where[failure.root]
            error = FormEvaluationError(index, failure.cause)
            error.__cause__ = failure.cause
        return _Evaluation(values, failed_at, error)


# ---------------------------------------------------------------------------
# Definiteness of (1,1)-forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HermitianMatrixSample:
    """H = i C extracted at a point from a (1,1)-form with coefficients C."""

    point: tuple
    matrix: np.ndarray
    eigenvalues: np.ndarray
    hermiticity_defect: float


@dataclass(frozen=True, eq=False)
class DefinitenessReport:
    """Joint eigenvalue-sign summary of a (1,1)-form over sample points."""

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
    negative catalog forms are legitimate outputs.
    """
    pts = np.asarray(points, dtype=complex)
    _check_type11_shape(a, pts)
    return _classify(a, pts, _evaluate_forms(_definiteness_requests(a), pts), 0)


def _definiteness_requests(a: ExteriorForm):
    """What :func:`definiteness` evaluates, as :func:`_evaluate_forms`
    requests: the residuals of the (2,0) and (0,2) parts of ``a``, then its
    (1,1) part in full."""
    return [(bidegree_part(a, 2, 0), False), (bidegree_part(a, 0, 2), False),
            (bidegree_part(a, 1, 1), True)]


def _check_type11_shape(a: ExteriorForm, pts):
    if a.degree != 2:
        raise NotType11("definiteness needs a 2-form, got degree %d" % a.degree)
    _, n = pts.shape
    if n != a.ambient_dim:
        raise ex.DimensionMismatch("points dimension %d vs form on C^%d"
                                   % (n, a.ambient_dim))


def _frobenius(mats):
    """Frobenius norm of each matrix in a complex (m, n, n) array, with no
    temporary array of that size."""
    flat = mats.view(np.float64).reshape(mats.shape[0], -1)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _classify(a: ExteriorForm, pts, evaluation, k) -> DefinitenessReport:
    """:func:`definiteness` from the values of its requests, which start at
    ``evaluation[k]``."""
    _check_type11_shape(a, pts)
    m, n = pts.shape
    for j, (p, q) in enumerate(((2, 0), (0, 2))):
        stray = float(evaluation[k + j].max(initial=0.0))
        if stray >= TYPE11_TOL:
            raise NotType11("(%d,%d) part has residual %.3g >= %.3g"
                            % (p, q, stray, TYPE11_TOL))

    # Two (m, n, n) arrays in all: H = i C, and its conjugate transpose,
    # which becomes the symmetrized matrix; H then becomes half its defect.
    hermitian = np.zeros((m, n, n), dtype=complex)
    for (i, j), vals in evaluation[k + 2].items():
        hermitian[:, i, j - n] = vals
    hermitian *= 1j
    scale = np.maximum(_frobenius(hermitian), 1e-30)
    sym = np.conjugate(hermitian.transpose(0, 2, 1))
    np.add(sym, hermitian, out=sym)
    sym *= 0.5
    np.subtract(hermitian, sym, out=hermitian)  # (H - H^*) / 2
    rel = 2.0 * _frobenius(hermitian) / scale
    del hermitian
    worst_h = int(np.argmax(rel))
    if rel[worst_h] >= HERMITIAN_RTOL:
        raise NonHermitian("hermiticity defect %.3g at point %r"
                           % (rel[worst_h],
                              tuple(complex(c) for c in pts[worst_h])))
    eigs = np.linalg.eigvalsh(sym)

    zero = ZERO_EIGENVALUE_RTOL * np.abs(eigs).max(axis=1, keepdims=True)
    pos = eigs > zero
    neg = eigs < -zero
    point_pos = pos.any(axis=1)
    point_neg = neg.any(axis=1)
    mixed = point_pos & point_neg
    if mixed.any():
        sign = None
        is_definite = is_semidefinite = False
    elif point_neg.any() and not point_pos.any():
        sign = -1
        is_semidefinite = True
        is_definite = bool(np.all(neg))
    elif point_pos.any() and not point_neg.any():
        sign = 1
        is_semidefinite = True
        is_definite = bool(np.all(pos))
    else:
        sign = 0
        is_semidefinite = True
        is_definite = False

    min_abs = float(np.min(np.abs(eigs)))
    worst = int(np.argmin(np.abs(eigs).min(axis=1)))
    sample = HermitianMatrixSample(
        point=tuple(complex(c) for c in pts[worst]),
        matrix=sym[worst],
        eigenvalues=eigs[worst],
        hermiticity_defect=float(rel[worst]))
    return DefinitenessReport(is_definite=is_definite,
                              is_semidefinite=is_semidefinite,
                              sign=sign,
                              min_abs_eigenvalue=min_abs,
                              num_points=m,
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
    try:
        degree = int(obj["degree"])
        ambient = int(obj["ambient_dim"])
        raw = obj["terms"]
    except (KeyError, TypeError) as err:
        raise ValueError("form JSON needs degree, ambient_dim, terms") from err
    terms = {}
    for item in raw:
        index = tuple(int(i) for i in item["index"])
        if index in terms:
            raise ValueError("duplicate index %r in form JSON" % (index,))
        terms[index] = ex.from_json(item["coeff"])
    return ExteriorForm(ambient, degree, terms)
