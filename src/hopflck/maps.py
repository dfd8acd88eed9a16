"""Polynomial automorphisms of C^n, scaling conjugation, and group analysis.

Maps are stored as exact monomial tables {exponent tuple: complex coefficient},
so composition, conjugation by diagonal scalings, and the degree-wise scaling
laws hold coefficient by coefficient rather than only up to sampling error.

Conjugation convention: ``ScalingFamily(g, w).at(t)`` returns T^{-1} . g . T,
the expression of g in the coordinates pulled back through T(z)_i = t^{w_i} z_i.
A monomial c z^e in component i therefore picks up the factor t^(<e,w> - w_i);
with uniform weights (1, ..., 1) a degree-k term scales by t^(k-1), so the
family interpolates between the map at t = 1 and its linear part at t = 0.

Invertibility: a PolyAutomorphism needs a finite linear part whose smallest
singular value exceeds LINEAR_RCOND times its largest; otherwise it raises
SingularLinearPart.  The ratio does not change when the map is scaled, so
mu^-1 * I is accepted for every finite mu != 0, while a linear part with
condition number above 1e12 (for example diag(e^-0.01, e^-50)) is refused.

Contraction: contraction_test takes a map or the matrix of a linear one.  A
linear map's orbit is evaluated a block of steps at a time, as start (A^T)^k
from stacked powers of A^T (see _linear_orbit), so a power replaces k
successive products and a norm's last digits can differ from those of the
orbit stepped one product at a time; the first k whose largest norm is below
eps, or else above ORBIT_DIVERGENCE times the radius, ends it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .sampling import sphere_points

__all__ = [
    "Polynomial", "PolyAutomorphism", "ScalingFamily",
    "GroupSpec", "ContractionResult", "JordanDecomposition",
    "FixedPointReport", "contraction_test",
    "jordan_form", "fixed_point_free_check", "equivariance_check",
    "spectral_radius", "map_to_json", "map_from_json",
    "matrix_to_json", "matrix_from_json",
    "SingularLinearPart", "DegreeOverflow", "IterationDiverged",
    "IllConditioned", "NotJordan",
    "DEGREE_CAP", "LINEAR_RCOND", "UNITARY_TOL", "RELATION_TOL",
    "FIXED_POINT_TOL", "ORBIT_DIVERGENCE", "CONTRACTION_MAX_ITER",
    "RANK_RTOL", "CLUSTER_TOL",
]

DEGREE_CAP = 16
LINEAR_RCOND = 1e-12
UNITARY_TOL = 1e-10
RELATION_TOL = 1e-8      # closure of the finite part under products/inverses
FIXED_POINT_TOL = 1e-8   # least |eigenvalue - 1| of a non-identity element
ORBIT_DIVERGENCE = 1e6
CONTRACTION_MAX_ITER = 1000
CONTRACTION_SEED = 1234
ORBIT_BLOCK = 32         # steps in a linear orbit's first block
ORBIT_ENTRIES = 1 << 13  # most points x coordinates x steps evaluated at once
RANK_GRAY_ZONE = 10.0    # factor around a rank threshold that is ambiguous
RANK_RTOL = 1e-8         # singular values of ||A||-scaled powers counted as 0
CLUSTER_TOL = 1e-6       # eigenvalues of A/||A|| this close are identified


class SingularLinearPart(ValueError):
    """The linear part of a would-be automorphism is (near) singular."""


class DegreeOverflow(ValueError):
    """A polynomial's total degree exceeds DEGREE_CAP."""


class IterationDiverged(RuntimeError):
    """An orbit escaped past the divergence guard during iteration."""


class IllConditioned(RuntimeError):
    """Jordan analysis hit a rank or chain ambiguity beyond tolerance."""


class NotJordan(ValueError):
    """A matrix expected in Jordan normal form is not."""


# ---------------------------------------------------------------------------
# Polynomials and polynomial automorphisms
# ---------------------------------------------------------------------------


def _brief(k, limit=10 ** 15):
    """The integer ``k`` as written, or as ~10^e (-~10^e) where |k| reaches
    ``limit``, by default past 15 digits."""
    if k < 0:
        return "-" + _brief(-k, limit)
    return str(k) if k < limit else "~10^%d" % round(math.log10(k))


def _shown(value) -> str:
    """repr(value), but an integer as _brief has it."""
    return _brief(value) if type(value) is int else repr(value)


def _json_text(value) -> str:
    """``value`` as JSON text for a message, each integer as _brief has it."""
    if isinstance(value, list):
        return "[%s]" % ", ".join(map(_json_text, value))
    return _brief(value) if type(value) is int else json.dumps(value)


class Polynomial:
    """Multivariate polynomial over C in n variables, as a monomial table."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        self.dim = int(dim)
        table = {}
        for mono, c in (coeffs or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.dim or any(e < 0 for e in mono):
                raise ValueError("bad monomial %r for dimension %d" % (mono, dim))
            if sum(mono) > DEGREE_CAP:
                shown = ", ".join(map(_brief, mono)) + "," * (len(mono) == 1)
                raise DegreeOverflow("monomial (%s) of degree %s exceeds cap %d"
                                     % (shown, _brief(sum(mono)), DEGREE_CAP))
            c = complex(c)
            if c != 0:
                table[mono] = table.get(mono, 0) + c
        self.coeffs = {m: c for m, c in table.items() if c != 0}

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.dim == other.dim
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return "Polynomial(%d, %r)" % (self.dim, self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.dim, out)

    def scale(self, factor):
        return Polynomial(self.dim, {m: c * factor for m, c in self.coeffs.items()})

    def mul(self, other) -> "Polynomial":
        out: dict = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial(self.dim, out)

    def compose(self, args) -> "Polynomial":
        """Substitute args[j] for variable j; exact coefficient arithmetic."""
        one = Polynomial(self.dim, {(0,) * self.dim: 1.0})
        total = Polynomial(self.dim, {})
        for mono, c in sorted(self.coeffs.items()):
            term = one.scale(c)
            for j, e in enumerate(mono):
                for _ in range(e):
                    term = term.mul(args[j])
            total = total + term
        return total

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        out = np.zeros(pts.shape[0], dtype=complex)
        for mono, c in sorted(self.coeffs.items()):
            term = np.full(pts.shape[0], c, dtype=complex)
            for j, e in enumerate(mono):
                if e:
                    term = term * pts[:, j] ** e
            out = out + term
        return out

    def as_expression(self) -> ex.Expression:
        return _monomial_sum((mono, ex.const(c))
                             for mono, c in sorted(self.coeffs.items()))


def _monomial_sum(terms) -> ex.Expression:
    """sum of coeff * z^mono over (mono, coeff expression) pairs, in order."""
    total = ex.const(0.0)
    for mono, term in terms:
        for j, e in enumerate(mono):
            if e:
                term = ex.mul(term, ex.intpow(ex.z(j + 1), e))
        total = ex.add(total, term)
    return total


def _check_linear_part(lin) -> None:
    """SingularLinearPart unless the square matrix ``lin`` is finite and
    sigma_min > LINEAR_RCOND sigma_max."""
    if not np.isfinite(lin).all():
        raise SingularLinearPart("linear part has a non-finite entry")
    sv = np.linalg.svd(lin, compute_uv=False)
    if not sv[-1] > LINEAR_RCOND * sv[0]:
        ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
        raise SingularLinearPart(
            "linear part near singular (sigma_min/sigma_max = %.3g <= %.3g)"
            % (ratio, LINEAR_RCOND))


class PolyAutomorphism:
    """Polynomial map of C^n in z only, fixing 0, with invertible linear part."""

    __slots__ = ("dim", "components")

    def __init__(self, components):
        comps = []
        for comp in components:
            if not isinstance(comp, Polynomial):
                raise TypeError("components must be Polynomial instances")
            comps.append(comp)
        if not comps:
            raise ValueError("empty component list")
        dim = comps[0].dim
        if any(c.dim != dim for c in comps) or len(comps) != dim:
            raise ex.DimensionMismatch("need n components of n variables each")
        for k, comp in enumerate(comps):
            if (0,) * dim in comp.coeffs:
                raise ValueError("component %d has a constant term" % (k + 1,))
        self.dim = dim
        self.components = tuple(comps)
        _check_linear_part(self.linear_part())

    @classmethod
    def from_tables(cls, tables) -> "PolyAutomorphism":
        dim = len(tables)
        return cls([Polynomial(dim, t) for t in tables])

    @classmethod
    def from_matrix(cls, matrix) -> "PolyAutomorphism":
        a = np.asarray(matrix, dtype=complex)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        tables = []
        for i in range(n):
            row = {}
            for j in range(n):
                if a[i, j] != 0:
                    mono = tuple(1 if k == j else 0 for k in range(n))
                    row[mono] = a[i, j]
            tables.append(row)
        return cls.from_tables(tables)

    @classmethod
    def diagonal(cls, values) -> "PolyAutomorphism":
        return cls.from_matrix(np.diag(np.asarray(list(values), dtype=complex)))

    @classmethod
    def identity(cls, dim: int) -> "PolyAutomorphism":
        return cls.from_matrix(np.eye(dim, dtype=complex))

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def is_linear(self) -> bool:
        return self.degree() <= 1

    def __eq__(self, other):
        return (isinstance(other, PolyAutomorphism)
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "<automorphism of C^%d, degree %d>" % (self.dim, self.degree())

    def linear_part(self) -> np.ndarray:
        """Entry (i, j) is the coefficient of z_j in component i."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for i, comp in enumerate(self.components):
            for mono, c in comp.coeffs.items():
                if sum(mono) == 1:
                    mat[i, mono.index(1)] = c
        return mat

    def compose(self, other: "PolyAutomorphism") -> "PolyAutomorphism":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        if other.dim != self.dim:
            raise ex.DimensionMismatch("composition dimension mismatch")
        comps = [c.compose(other.components) for c in self.components]
        return PolyAutomorphism(comps)

    def inverse_linear(self) -> "PolyAutomorphism":
        return PolyAutomorphism.from_matrix(self.inverse_matrix())

    def inverse_matrix(self) -> np.ndarray:
        """The matrix of a linear map's inverse, as inverse_linear()'s
        linear_part() reads it: each zero +0.0."""
        if not self.is_linear():
            raise ValueError("only linear maps are inverted here")
        return np.linalg.inv(self.linear_part()) + 0

    def eval(self, point):
        pts = np.asarray([list(point)], dtype=complex)
        return tuple(complex(v) for v in self.eval_many(pts)[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        out = np.empty_like(pts)
        for i, comp in enumerate(self.components):
            out[:, i] = comp.eval_many(pts)
        return out

    def as_expressions(self):
        return tuple(c.as_expression() for c in self.components)


# ---------------------------------------------------------------------------
# Scaling conjugation families
# ---------------------------------------------------------------------------


class ScalingFamily:
    """The curve t -> T_t^{-1} . g . T_t with precomputed monomial shifts.

    For t != 0, ``at(t)`` rescales the monomial c z^e of component i to
    c t^(<e,w> - w_i) z^e.  It extends to t = 0 whenever no monomial
    carries a negative shift (then absent monomials simply drop out, e.g.
    the uniform family lands on the linear part).
    """

    def __init__(self, base: PolyAutomorphism, weights):
        self.base = base
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != base.dim:
            raise ex.DimensionMismatch("weights do not match map dimension")
        self._shifts = []
        for i, comp in enumerate(base.components):
            rows = []
            for mono, c in sorted(comp.coeffs.items()):
                shift = (sum(e * wj for e, wj in zip(mono, self.weights))
                         - self.weights[i])
                rows.append((mono, c, shift))
            self._shifts.append(rows)

    def at(self, t) -> PolyAutomorphism:
        """T_t^{-1} . g . T_t; ValueError where a coefficient is not finite."""
        t = complex(t)
        tables = []
        for rows in self._shifts:
            table = {}
            for mono, c, shift in rows:
                if t == 0:
                    if shift < 0:
                        raise ValueError(
                            "family has a pole at t = 0 (shift %d)" % shift)
                    if shift == 0:
                        table[mono] = c
                    continue
                try:
                    value = c * t ** shift
                except (OverflowError, ZeroDivisionError):
                    # Python's complex power signals overflow, or a power of
                    # an underflowed zero, by raising; sometimes it gives nan.
                    value = complex("nan")
                if not np.isfinite(value):
                    raise ValueError(
                        "family coefficient c t^%d is not finite at t = %r"
                        % (shift, t))
                table[mono] = value
            tables.append(table)
        return PolyAutomorphism.from_tables(tables)

    def limit0(self) -> PolyAutomorphism:
        return self.at(0.0)


# ---------------------------------------------------------------------------
# Contraction certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionResult:
    is_contraction: bool
    iterations_needed: int | None
    spectral_radius: float
    num_points: int
    radius: float
    eps: float
    reason: str = ""


def spectral_radius(matrix) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(matrix, complex))).max())


@functools.lru_cache(maxsize=8)
def _orbit_start(n: int, radius: float) -> np.ndarray:
    """The 2 n^2 + 64 points of the radius-sphere in C^n of CONTRACTION_SEED
    that every orbit test starts from, read-only."""
    pts = sphere_points(n, 2 * n * n + 64, radius, CONTRACTION_SEED)
    pts.flags.writeable = False
    return pts


def _linear_orbit(a, start, eps, guard):
    """(k, largest) at the first k <= CONTRACTION_MAX_ITER at which the
    largest row norm of start (A^T)^k is below eps or above ``guard``, or
    (None, None): the orbit of A in blocks of steps.

    The blocks hold ORBIT_BLOCK, twice that, four times that, ... steps.
    The powers (A^T)^k are stacked as rows and doubled as a block needs
    them, each time by one product with the next square (A^T)^(2^i); one
    product of the start points with a block's powers side by side gives
    its orbit, at most ORBIT_ENTRIES orbit entries at a time.
    """
    count, n = start.shape
    last = CONTRACTION_MAX_ITER + 1
    widest = max(1, ORBIT_ENTRIES // (count * n))
    powers = np.empty((last, n, n), dtype=complex)
    powers[0] = np.eye(n)
    rows = powers.reshape(-1, n)  # (A^T)^k is rows n k ... n k + n - 1
    square, filled = a.T, 1
    done, size = 0, ORBIT_BLOCK
    while done < last:
        end = min(done + size, last)
        while filled < end:
            if filled > 1:
                square = square @ square  # (A^T)^filled
            step = min(filled, last - filled)
            np.matmul(rows[:n * step], square,
                      out=rows[n * filled:n * (filled + step)])
            filled += step
        for lo in range(done, end, widest):
            block = powers[lo:min(lo + widest, end)]
            width = len(block)
            # orbit[r, j, k] = (start (A^T)^(lo + k))[r, j]
            orbit = (start @ block.transpose(1, 2, 0).reshape(n, n * width)
                     ).reshape(count, n, width)
            squared = (orbit.conj() * orbit).real
            largest = np.sqrt(squared.sum(axis=1).max(axis=0))
            for k, value in enumerate(largest.tolist(), lo):
                # A NaN is neither below eps nor above the guard.
                if value < eps or value > guard:
                    return k, value
        done, size = end, 2 * size
    return None, None


def _stepped_orbit(step, start, eps, guard):
    """_linear_orbit's (k, largest) for a map stepped one evaluation at a
    time."""
    current = start
    for k in range(CONTRACTION_MAX_ITER + 1):
        largest = float(np.linalg.norm(current, axis=1).max())
        if largest < eps or largest > guard:
            return k, largest
        current = step(current)
    return None, None


def contraction_test(g, radius: float = 1.0,
                     eps: float = 1e-6) -> ContractionResult:
    """Certify that iterates of g send the radius-sphere inside eps.

    ``g`` is a PolyAutomorphism or the square matrix of a linear one, which
    must pass the same finiteness and LINEAR_RCOND test
    (SingularLinearPart).  The necessary spectral condition rho(linear
    part) < 1 is checked first; only then is the point set (2 n^2 + 64
    sphere points of CONTRACTION_SEED) iterated, at most
    CONTRACTION_MAX_ITER times, until every orbit norm drops below eps.  A
    linear map's orbit is a block of matrix powers at a time (see
    _linear_orbit), a nonlinear one's one evaluation at a time.  An orbit
    past ORBIT_DIVERGENCE times the radius raises IterationDiverged.  A
    radius or eps that is not finite and positive raises ValueError, as
    does a radius whose guard squares past the float range.
    """
    for name, value in (("radius", radius), ("eps", eps)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError("contraction %s must be finite and > 0, got %r"
                             % (name, value))
    guard = ORBIT_DIVERGENCE * radius
    if math.isinf(guard * guard):  # the orbit's squared norms must hold it
        raise ValueError("contraction radius %r: its divergence guard %.3g "
                         "squares past the float range" % (radius, guard))
    if isinstance(g, PolyAutomorphism):
        a = g.linear_part()
    else:
        a = np.asarray(g, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise ValueError("matrix must be square and non-empty")
        _check_linear_part(a)
    n = a.shape[0]
    count = 2 * n * n + 64
    rho = spectral_radius(a)
    if rho >= 1.0:
        return ContractionResult(False, None, rho, count, radius, eps,
                                 reason="spectral radius %.17g >= 1" % rho)
    start = _orbit_start(n, radius)
    if isinstance(g, PolyAutomorphism) and not g.is_linear():
        k, largest = _stepped_orbit(g.eval_many, start, eps, guard)
    else:
        k, largest = _linear_orbit(a, start, eps, guard)
    if k is not None and largest < eps:
        return ContractionResult(True, k, rho, count, radius, eps)
    if k is not None:
        raise IterationDiverged("orbit norm %.3g exceeded %.0g after %d steps"
                                % (largest, guard, k))
    return ContractionResult(False, None, rho, count, radius, eps,
                             reason="norms still >= eps after %d iterations"
                             % CONTRACTION_MAX_ITER)


# ---------------------------------------------------------------------------
# Jordan normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JordanDecomposition:
    """Blocks [(eigenvalue, size)], transform P, and ||A - P J P^-1|| / ||A||."""

    blocks: tuple
    transform: np.ndarray = field(repr=False)
    reconstruction_residual: float

    def jordan_matrix(self) -> np.ndarray:
        n = sum(size for _, size in self.blocks)
        j = np.zeros((n, n), dtype=complex)
        pos = 0
        for lam, size in self.blocks:
            for k in range(size):
                j[pos + k, pos + k] = lam
                if k + 1 < size:
                    j[pos + k, pos + k + 1] = 1.0
            pos += size
        return j


def _nullspace(matrix, tol):
    """Orthonormal nullspace basis by SVD, with a gray-zone ambiguity guard."""
    u, s, vh = np.linalg.svd(matrix)
    gray = (s > tol / RANK_GRAY_ZONE) & (s < tol * RANK_GRAY_ZONE)
    if np.any(gray):
        raise IllConditioned(
            "singular value %.3g sits in the rank-decision gray zone around %.3g"
            % (float(s[gray][0]), tol))
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def jordan_form(matrix) -> JordanDecomposition:
    """Numerical Jordan normal form for matrices up to 16 x 16.

    Eigenvalues of A/||A|| closer than CLUSTER_TOL are identified (their
    mean is used); rounding splits a 2-block by about sqrt(1e-16) = 1e-8
    (Golub & Wilkinson, SIAM Review 18, 1976), well inside it.  Block sizes
    come from the nullity chain of the shifted powers, with ranks decided at
    RANK_RTOL, and chains of generalized eigenvectors are picked greedily
    with an independence check.  Rank decisions falling in a gray zone around
    the threshold, and reconstructions worse than 1e-8 relative, raise
    IllConditioned instead of being resolved silently.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 16:
        raise ValueError("jordan_form handles n <= 16, got %d" % n)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ValueError("matrix entry (%d, %d) = %r is not finite"
                         % (i, j, complex(a[i, j])))
    scale = float(np.linalg.norm(a, 2))
    if scale == 0:
        return JordanDecomposition(tuple((0j, 1) for _ in range(n)),
                                   np.eye(n, dtype=complex), 0.0)
    ahat = a / scale

    eigs = np.linalg.eigvals(ahat)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    clusters = []
    for lam in eigs:
        placed = False
        for cl in clusters:
            if any(abs(lam - mu) < CLUSTER_TOL for mu in cl):
                cl.append(lam)
                placed = True
                break
        if not placed:
            clusters.append([lam])
    clusters = [(complex(np.mean(cl)), len(cl)) for cl in clusters]
    clusters.sort(key=lambda item: (item[0].real, item[0].imag))

    blocks = []
    columns = []
    for lam, mult in clusters:
        shifted = ahat - lam * np.eye(n)
        powers = [np.eye(n, dtype=complex)]
        nullities = [0]
        nullspaces = [np.zeros((n, 0), dtype=complex)]
        while nullities[-1] < mult:
            powers.append(powers[-1] @ shifted)
            if len(powers) > n + 1:
                raise IllConditioned(
                    "nullity chain for eigenvalue %s never reaches "
                    "multiplicity %d" % (lam, mult))
            ns = _nullspace(powers[-1], RANK_RTOL)
            nullspaces.append(ns)
            nullities.append(ns.shape[1])
            if nullities[-1] <= nullities[-2] and nullities[-1] < mult:
                raise IllConditioned(
                    "nullity chain stalled at %d < multiplicity %d for "
                    "eigenvalue %s" % (nullities[-1], mult, lam))
        depth = len(nullities) - 1
        jumps = [nullities[k] - nullities[k - 1] for k in range(1, depth + 1)]
        sizes = []
        for k in range(1, depth + 1):
            exact = jumps[k - 1] - (jumps[k] if k < depth else 0)
            sizes.extend([k] * exact)
        sizes.sort(reverse=True)

        used = []
        for size in sizes:
            cand = nullspaces[size]
            small = [nullspaces[size - 1]] if size > 1 else []
            if used:
                small.append(np.column_stack(used))
            if small:
                span = np.column_stack(small)
                q, _ = np.linalg.qr(span)
                resid = cand - q @ (q.conj().T @ cand)
            else:
                resid = cand
            scores = np.linalg.norm(resid, axis=0)
            best = int(np.argmax(scores))
            if scores[best] < 1e-6:
                raise IllConditioned(
                    "generalized eigenvector pick ambiguous for eigenvalue %s"
                    % (lam,))
            v = cand[:, best]
            chain = [v]
            for _ in range(size - 1):
                chain.append(shifted @ chain[-1])
            chain.reverse()
            used.extend(chain)
            # rescale so the original-scale matrix has unit superdiagonal
            for j, vec in enumerate(chain):
                columns.append(vec * scale ** (-j))
            blocks.append((complex(lam * scale), size))

    transform = np.column_stack(columns)
    if np.linalg.cond(transform) > 1e12:
        raise IllConditioned("transform condition number exceeds 1e12")
    decomp = JordanDecomposition(tuple(blocks), transform, 0.0)
    recon = transform @ decomp.jordan_matrix() @ np.linalg.inv(transform)
    residual = float(np.linalg.norm(a - recon) / np.linalg.norm(a))
    if residual >= 1e-8:
        raise IllConditioned("reconstruction residual %.3g >= 1e-8" % residual)
    return JordanDecomposition(decomp.blocks, transform, residual)


# ---------------------------------------------------------------------------
# Group data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Finite unitary part plus an infinite-cyclic polynomial generator.

    Construction validates unitarity of the finite part and its closure under
    products and inverses (within RELATION_TOL).  Whether the cyclic
    generator (or, for expanding presentations, its inverse) is an actual
    contraction is certified separately by :func:`contraction_test`, so that
    deliberately broken groups can still be assembled and reported on.
    """

    finite_part: tuple
    cyclic_generator: PolyAutomorphism

    def __post_init__(self):
        mats = tuple(np.asarray(u, dtype=complex) for u in self.finite_part)
        if not mats:
            raise ValueError("finite part must at least contain the identity")
        n = self.cyclic_generator.dim
        eye = np.eye(n, dtype=complex)
        for k, u in enumerate(mats):
            if u.shape != (n, n):
                raise ex.DimensionMismatch("finite-part matrix %d is not %dx%d"
                                           % (k, n, n))
            defect = float(np.linalg.norm(u.conj().T @ u - eye))
            if defect >= UNITARY_TOL:
                raise ValueError("finite-part matrix %d is not unitary "
                                 "(defect %.3g)" % (k, defect))
        if not any(np.linalg.norm(u - eye) < 1e-12 for u in mats):
            raise ValueError("finite part must contain the identity")

        def member(v):
            return any(np.linalg.norm(v - u) < RELATION_TOL for u in mats)

        for i, u in enumerate(mats):
            if not member(u.conj().T):
                raise ValueError("finite part not closed under inverses "
                                 "(matrix %d)" % i)
            for j, v in enumerate(mats):
                if not member(u @ v):
                    raise ValueError("finite part not closed under products "
                                     "(matrices %d, %d)" % (i, j))
        object.__setattr__(self, "finite_part", mats)

    @property
    def dim(self) -> int:
        return self.cyclic_generator.dim

    def non_identity_elements(self):
        n = self.dim
        eye = np.eye(n, dtype=complex)
        return [(k, u) for k, u in enumerate(self.finite_part)
                if np.linalg.norm(u - eye) >= 1e-12]


@dataclass(frozen=True)
class FixedPointReport:
    """Eigenvalue-1 avoidance for every non-identity finite element."""

    is_free: bool
    min_distance: float
    distances: tuple  # (element index, min |eigenvalue - 1|)


def fixed_point_free_check(group: GroupSpec) -> FixedPointReport:
    """No non-identity finite element may have an eigenvalue at 1.

    Free means every such eigenvalue is farther than FIXED_POINT_TOL from 1.
    """
    distances = []
    worst = float("inf")
    for k, u in group.non_identity_elements():
        dist = float(np.min(np.abs(np.linalg.eigvals(u) - 1.0)))
        distances.append((k, dist))
        worst = min(worst, dist)
    if not distances:
        return FixedPointReport(True, float("inf"), ())
    return FixedPointReport(worst > FIXED_POINT_TOL, worst, tuple(distances))


# ---------------------------------------------------------------------------
# Cylinder equivariance
# ---------------------------------------------------------------------------


def equivariance_check(r, p, k: int, samples) -> float:
    """Residual of the radial trivialization intertwining the two actions.

    Compares Phi(t + k, e^{i p_j k} z_j) with phi^k(Phi(t, z)) where
    Phi(t, z)_j = e^{-r_j t} z_j and phi = diag(e^{-r_j + i p_j}); the max
    componentwise absolute difference over the samples is returned.
    """
    r = np.asarray([float(x) for x in r])
    p = np.asarray([float(x) for x in p])
    if r.shape != p.shape:
        raise ex.DimensionMismatch("rate and phase tuples differ in length")
    lam = np.exp(-r + 1j * p)
    worst = 0.0
    for t, zvec in samples:
        zvec = np.asarray(zvec, dtype=complex)
        lhs = np.exp(-r * (t + k)) * np.exp(1j * p * k) * zvec
        rhs = lam ** k * (np.exp(-r * t) * zvec)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def map_to_json(g: PolyAutomorphism):
    comps = []
    for comp in g.components:
        comps.append([{"monomial": list(m), "coeff": [c.real, c.imag]}
                      for m, c in sorted(comp.coeffs.items())])
    return {"dim": g.dim, "components": comps}


def _json_complex(pair, what) -> complex:
    """The complex number of a JSON [re, im] pair of real numbers."""
    if isinstance(pair, list) and len(pair) == 2:
        try:
            return complex(*(ex._json_number(what, x) for x in pair))
        except ValueError:
            pass
    raise ValueError("%s %s must be a [re, im] pair of real numbers"
                     % (what, _json_text(pair)))


def map_from_json(obj) -> PolyAutomorphism:
    try:
        dim = ex._json_number("map dim", obj["dim"], int)
        comps = obj["components"]
    except (KeyError, TypeError) as err:
        raise ValueError("map JSON needs dim and components") from err
    if not (isinstance(comps, list)
            and all(isinstance(comp, list) for comp in comps)):
        raise ValueError("map JSON components must be a list of term lists")
    if len(comps) != dim:
        raise ex.DimensionMismatch("map JSON has %d components for dim %d"
                                   % (len(comps), dim))
    tables = []
    for comp in comps:
        table = {}
        for item in comp:
            if not (isinstance(item, dict) and isinstance(
                    item.get("monomial"), list) and "coeff" in item):
                raise ValueError("map term %s needs a monomial list and a "
                                 "coeff" % json.dumps(item))
            mono = tuple(ex._json_number("monomial exponent", e, int)
                         for e in item["monomial"])
            c = _json_complex(item["coeff"], "coefficient")
            table[mono] = table.get(mono, 0) + c
        tables.append(table)
    return PolyAutomorphism.from_tables(tables)


def matrix_to_json(matrix):
    a = np.asarray(matrix, dtype=complex)
    return [[[a[i, j].real, a[i, j].imag] for j in range(a.shape[1])]
            for i in range(a.shape[0])]


def matrix_from_json(obj) -> np.ndarray:
    if not (isinstance(obj, list) and obj and all(
            isinstance(row, list) and len(row) == len(obj) for row in obj)):
        raise ValueError("matrix JSON must be a square list of rows")
    return np.array([[_json_complex(entry, "matrix entry") for entry in row]
                     for row in obj], dtype=complex)
