"""Symbolic scalar expressions in the variables z_1..z_n and their conjugates.

Expressions are immutable trees built by the small constructors in this module
(:func:`const`, :func:`z`, :func:`zbar`, :func:`add`, ...).  Wirtinger calculus
treats z_i and zbar_i as independent coordinates, so every node differentiates
exactly with respect to either family.  Construction performs only constant
folding and structural zero/one elimination; there is no general simplifier.

All constructors intern their results: structurally identical expressions are
the *same* Python object.  Equality and hashing therefore coincide with
structural equality, evaluation can memoize on node identity, and repeated
subterms (denominators, implicit solves) are evaluated once per point set.

The one non-algebraic node is :class:`ImplicitT`, the real-valued function
t(w) solving  sum_i |w_i|^2 exp(2 r_i t) = 1  for positive weights r_i.  It
evaluates via a guarded Newton iteration and differentiates via implicit
differentiation, which keeps the whole calculus closed under ``wirtinger_d``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "Expression", "Const", "Var", "ConjVar", "Add", "Sub", "Mul", "Div",
    "IntPow", "Exp", "Log", "ImplicitT",
    "const", "z", "zbar", "add", "sub", "mul", "div", "intpow", "exp", "log",
    "implicit_t", "wirtinger_d", "evaluate", "evaluate_many", "substitute",
    "formal_conjugate", "numerically_equal", "to_json", "from_json",
    "EvaluationError", "DivisionNearZero", "NewtonDivergence",
    "LogBranchError", "DimensionMismatch",
    "DIVISION_EPS", "NEWTON_TOL", "NEWTON_MAX_ITER",
]

DIVISION_EPS = 1e-14
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class EvaluationError(ValueError):
    """Base class for numeric evaluation failures; carries the bad point."""

    def __init__(self, message, point=None):
        self.point = None if point is None else tuple(point)
        if self.point is not None:
            message = "%s at point %r" % (message, self.point)
        super().__init__(message)


class DivisionNearZero(EvaluationError):
    """A divisor (or negative-power base) had magnitude below 1e-14."""


class NewtonDivergence(EvaluationError):
    """The implicit-time Newton iteration failed to converge."""


class LogBranchError(EvaluationError):
    """Log evaluated on the closed negative real axis."""


class DimensionMismatch(ValueError):
    """A point or substitution tuple was shorter than the variables used."""


# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------

_INTERN: dict = {}


class Expression:
    """Base class for all expression nodes.  Instances are interned."""

    __slots__ = ("max_index", "has_conj", "has_implicit")

    op = ""

    def children(self):
        return ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return mul(const(-1.0), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        return intpow(self, k)

    def __repr__(self):
        return "<expr %s>" % _pretty(self)


def _coerce(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, complex)):
        return const(value)
    raise TypeError("cannot interpret %r as an expression" % (value,))


def _finish(node, key, max_index, has_conj, has_implicit):
    node.max_index = max_index
    node.has_conj = has_conj
    node.has_implicit = has_implicit
    _INTERN[key] = node
    return node


class Const(Expression):
    __slots__ = ("value",)
    op = "const"


class Var(Expression):
    __slots__ = ("index",)
    op = "z"


class ConjVar(Expression):
    __slots__ = ("index",)
    op = "zbar"


class _Binary(Expression):
    __slots__ = ("a", "b")

    def children(self):
        return (self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    op = "add"


class Sub(_Binary):
    __slots__ = ()
    op = "sub"


class Mul(_Binary):
    __slots__ = ()
    op = "mul"


class Div(_Binary):
    __slots__ = ()
    op = "div"


class IntPow(Expression):
    __slots__ = ("base", "power")
    op = "pow"

    def children(self):
        return (self.base,)


class Exp(Expression):
    __slots__ = ("arg",)
    op = "exp"

    def children(self):
        return (self.arg,)


class Log(Expression):
    __slots__ = ("arg",)
    op = "log"

    def children(self):
        return (self.arg,)


class ImplicitT(Expression):
    """t(w) with sum_i a_i(w) b_i(w) exp(2 r_i t) = 1, solved by Newton.

    The default arguments a_i = z_i, b_i = zbar_i make a_i b_i = |w_i|^2 at
    actual points; substitution rewrites the arguments in place, so conjugated
    or composed occurrences stay within the expression language.
    """

    __slots__ = ("weights", "z_args", "zbar_args", "newton_tol", "newton_max_iter")
    op = "implicit_t"

    def children(self):
        return self.z_args + self.zbar_args


# ---------------------------------------------------------------------------
# Smart constructors (constant folding + zero/one elimination, then intern)
# ---------------------------------------------------------------------------


def const(value) -> Expression:
    v = complex(value)
    key = ("c", v.real, v.imag)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Const()
    node.value = v
    return _finish(node, key, 0, False, False)


_ZERO = const(0.0)
_ONE = const(1.0)


def z(index: int) -> Expression:
    if not isinstance(index, int) or index < 1:
        raise ValueError("variable index must be a positive integer, got %r" % (index,))
    key = ("z", index)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Var()
    node.index = index
    return _finish(node, key, index, False, False)


def zbar(index: int) -> Expression:
    if not isinstance(index, int) or index < 1:
        raise ValueError("variable index must be a positive integer, got %r" % (index,))
    key = ("zb", index)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = ConjVar()
    node.index = index
    return _finish(node, key, index, True, False)


def _is_zero(e):
    return e is _ZERO or (isinstance(e, Const) and e.value == 0)


def _is_one(e):
    return e is _ONE or (isinstance(e, Const) and e.value == 1)


def _make_binary(cls, tag, a, b):
    key = (tag, id(a), id(b))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = cls()
    node.a = a
    node.b = b
    return _finish(node, key, max(a.max_index, b.max_index),
                   a.has_conj or b.has_conj,
                   a.has_implicit or b.has_implicit)


def add(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value + b.value)
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return _make_binary(Add, "+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if a is b:
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value - b.value)
    if _is_zero(b):
        return a
    return _make_binary(Sub, "-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value * b.value)
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return _make_binary(Mul, "*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ValueError("division by a structural zero")
        if isinstance(a, Const):
            return const(a.value / b.value)
        if b.value == 1:
            return a
    if _is_zero(a):
        return _ZERO
    return _make_binary(Div, "/", a, b)


def intpow(base: Expression, power: int) -> Expression:
    base = _coerce(base)
    if not isinstance(power, int):
        raise TypeError("power must be an integer")
    if power == 0:
        return _ONE
    if power == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and power < 0:
            raise ValueError("negative power of a structural zero")
        return const(base.value ** power)
    key = ("^", id(base), power)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = IntPow()
    node.base = base
    node.power = power
    return _finish(node, key, base.max_index, base.has_conj, base.has_implicit)


def exp(arg: Expression) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Const):
        return const(cmath.exp(arg.value))
    key = ("e", id(arg))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Exp()
    node.arg = arg
    return _finish(node, key, arg.max_index, arg.has_conj, arg.has_implicit)


def log(arg: Expression) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Const) and not (arg.value.real <= 0 and arg.value.imag == 0):
        return const(cmath.log(arg.value))
    key = ("l", id(arg))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Log()
    node.arg = arg
    return _finish(node, key, arg.max_index, arg.has_conj, arg.has_implicit)


def implicit_t(weights, z_args=None, zbar_args=None,
               newton_tol: float = NEWTON_TOL,
               newton_max_iter: int = NEWTON_MAX_ITER) -> Expression:
    weights = tuple(float(w) for w in weights)
    n = len(weights)
    if n < 2:
        raise ValueError("implicit time needs at least two weights")
    if any(w <= 0 for w in weights):
        raise ValueError("implicit-time weights must be positive, got %r" % (weights,))
    if z_args is None:
        z_args = tuple(z(i) for i in range(1, n + 1))
    else:
        z_args = tuple(_coerce(a) for a in z_args)
    if zbar_args is None:
        zbar_args = tuple(zbar(i) for i in range(1, n + 1))
    else:
        zbar_args = tuple(_coerce(a) for a in zbar_args)
    if len(z_args) != n or len(zbar_args) != n:
        raise DimensionMismatch("implicit time needs %d argument pairs" % n)
    key = ("t", weights, float(newton_tol), int(newton_max_iter),
           tuple(id(a) for a in z_args), tuple(id(b) for b in zbar_args))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = ImplicitT()
    node.weights = weights
    node.z_args = z_args
    node.zbar_args = zbar_args
    node.newton_tol = float(newton_tol)
    node.newton_max_iter = int(newton_max_iter)
    kids = z_args + zbar_args
    return _finish(node, key, max(k.max_index for k in kids),
                   True, True)


# ---------------------------------------------------------------------------
# Wirtinger differentiation
# ---------------------------------------------------------------------------

_DIFF_CACHE: dict = {}


def wirtinger_d(e: Expression, index: int, conjugate: bool = False) -> Expression:
    """Exact partial derivative of ``e`` by z_index (or zbar_index)."""
    if index < 1:
        raise ValueError("variable index must be positive")
    key = (id(e), index, conjugate)
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    result = _diff(e, index, conjugate)
    _DIFF_CACHE[key] = result
    return result


def _diff(e, i, conj):
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if (not conj and e.index == i) else _ZERO
    if isinstance(e, ConjVar):
        return _ONE if (conj and e.index == i) else _ZERO
    if isinstance(e, Add):
        return add(wirtinger_d(e.a, i, conj), wirtinger_d(e.b, i, conj))
    if isinstance(e, Sub):
        return sub(wirtinger_d(e.a, i, conj), wirtinger_d(e.b, i, conj))
    if isinstance(e, Mul):
        return add(mul(wirtinger_d(e.a, i, conj), e.b),
                   mul(e.a, wirtinger_d(e.b, i, conj)))
    if isinstance(e, Div):
        num = sub(mul(wirtinger_d(e.a, i, conj), e.b),
                  mul(e.a, wirtinger_d(e.b, i, conj)))
        return div(num, mul(e.b, e.b))
    if isinstance(e, IntPow):
        inner = wirtinger_d(e.base, i, conj)
        return mul(mul(const(e.power), intpow(e.base, e.power - 1)), inner)
    if isinstance(e, Exp):
        return mul(e, wirtinger_d(e.arg, i, conj))
    if isinstance(e, Log):
        return div(wirtinger_d(e.arg, i, conj), e.arg)
    if isinstance(e, ImplicitT):
        return _diff_implicit(e, i, conj)
    raise TypeError("unknown node %r" % (e,))


def _diff_implicit(e, i, conj):
    # Implicit differentiation of  F(t, w) = sum_k a_k b_k exp(2 r_k t) - 1 = 0:
    #   dt = -(sum_k (da_k b_k + a_k db_k) E_k) / (sum_k 2 r_k a_k b_k E_k)
    # where E_k = exp(2 r_k t) reuses this very node, so evaluation shares the
    # single Newton solve.
    numerator = _ZERO
    denominator = _ZERO
    for w, a, b in zip(e.weights, e.z_args, e.zbar_args):
        ek = exp(mul(const(2.0 * w), e))
        da = wirtinger_d(a, i, conj)
        db = wirtinger_d(b, i, conj)
        numerator = add(numerator, mul(add(mul(da, b), mul(a, db)), ek))
        denominator = add(denominator, mul(const(2.0 * w), mul(mul(a, b), ek)))
    if _is_zero(numerator):
        return _ZERO
    return mul(const(-1.0), div(numerator, denominator))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expression, point) -> complex:
    """Evaluate ``e`` at a single point (sequence of n complex numbers)."""
    pts = np.asarray([list(point)], dtype=complex)
    out = evaluate_many(e, pts)
    return complex(np.broadcast_to(out, (1,))[0])


def evaluate_many(e: Expression, points, memo=None) -> np.ndarray:
    """Vectorized evaluation over an (m, n) array of points.

    Returns an array of shape (m,) (possibly a broadcastable scalar for
    constant expressions).  A shared ``memo`` dict may be passed to reuse
    subterm values across several expressions evaluated at the same points.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise DimensionMismatch("points must be an (m, n) array")
    if e.max_index > pts.shape[1]:
        raise DimensionMismatch(
            "expression uses z_%d but points have dimension %d"
            % (e.max_index, pts.shape[1]))
    if memo is None:
        memo = {}
    return _eval(e, pts, memo)


def _bad_point(pts, values, mask):
    idx = 0 if np.ndim(values) == 0 else int(np.argmax(mask))
    return tuple(complex(c) for c in pts[idx])


def _eval(e, pts, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    out = _eval_node(e, pts, memo)
    memo[id(e)] = out
    return out


def _eval_node(e, pts, memo):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return pts[:, e.index - 1]
    if isinstance(e, ConjVar):
        return np.conj(pts[:, e.index - 1])
    if isinstance(e, Add):
        return _eval(e.a, pts, memo) + _eval(e.b, pts, memo)
    if isinstance(e, Sub):
        return _eval(e.a, pts, memo) - _eval(e.b, pts, memo)
    if isinstance(e, Mul):
        return _eval(e.a, pts, memo) * _eval(e.b, pts, memo)
    if isinstance(e, Div):
        den = _eval(e.b, pts, memo)
        bad = np.abs(den) < DIVISION_EPS
        if np.any(bad):
            raise DivisionNearZero("divisor magnitude below %g" % DIVISION_EPS,
                                   _bad_point(pts, den, bad))
        return _eval(e.a, pts, memo) / den
    if isinstance(e, IntPow):
        base = _eval(e.base, pts, memo)
        if e.power < 0:
            bad = np.abs(base) < DIVISION_EPS
            if np.any(bad):
                raise DivisionNearZero(
                    "negative-power base magnitude below %g" % DIVISION_EPS,
                    _bad_point(pts, base, bad))
        return base ** e.power
    if isinstance(e, Exp):
        return np.exp(_eval(e.arg, pts, memo))
    if isinstance(e, Log):
        arg = np.asarray(_eval(e.arg, pts, memo))
        bad = (np.abs(arg) < DIVISION_EPS) | ((arg.real < 0) & (arg.imag == 0))
        if np.any(bad):
            raise LogBranchError("log on the closed negative real axis",
                                 _bad_point(pts, arg, bad))
        return np.log(arg)
    if isinstance(e, ImplicitT):
        return _eval_implicit(e, pts, memo)
    raise TypeError("unknown node %r" % (e,))


def _eval_implicit(e, pts, memo):
    m = pts.shape[0]
    r = np.asarray(e.weights)
    s = np.empty((m, len(r)))
    for k, (a, b) in enumerate(zip(e.z_args, e.zbar_args)):
        s[:, k] = np.broadcast_to(
            np.asarray(_eval(a, pts, memo) * _eval(b, pts, memo)), (m,)).real
    total = s.sum(axis=1)
    bad = total <= 0
    if np.any(bad):
        raise NewtonDivergence("implicit time undefined (zero radius)",
                               _bad_point(pts, total, bad))
    t = -np.log(total) / (2.0 * r.max())
    for _ in range(e.newton_max_iter):
        growth = np.exp(2.0 * t[:, None] * r[None, :])
        f = (s * growth).sum(axis=1) - 1.0
        if np.max(np.abs(f)) < e.newton_tol:
            return t
        fprime = (2.0 * r[None, :] * s * growth).sum(axis=1)
        t = t - f / fprime
    growth = np.exp(2.0 * t[:, None] * r[None, :])
    f = (s * growth).sum(axis=1) - 1.0
    if np.max(np.abs(f)) < e.newton_tol:
        return t
    bad = np.abs(f) >= e.newton_tol
    raise NewtonDivergence("Newton failed to reach %g in %d iterations"
                           % (e.newton_tol, e.newton_max_iter),
                           _bad_point(pts, f, bad))


# ---------------------------------------------------------------------------
# Substitution and formal conjugation
# ---------------------------------------------------------------------------


def substitute(e: Expression, z_exprs, zbar_exprs=None) -> Expression:
    """Replace z_i by z_exprs[i-1] and zbar_i by zbar_exprs[i-1].

    When ``zbar_exprs`` is omitted, the formal conjugates of ``z_exprs`` are
    used, which is the right choice for point transformations.
    """
    z_exprs = tuple(_coerce(x) for x in z_exprs)
    if zbar_exprs is None:
        zbar_exprs = tuple(formal_conjugate(x) for x in z_exprs)
    else:
        zbar_exprs = tuple(_coerce(x) for x in zbar_exprs)
    if len(z_exprs) != len(zbar_exprs):
        raise DimensionMismatch("z and zbar substitution tuples differ in length")
    if e.max_index > len(z_exprs):
        raise DimensionMismatch(
            "expression uses z_%d but substitution has length %d"
            % (e.max_index, len(z_exprs)))
    return _subst(e, z_exprs, zbar_exprs, {})


def _subst(e, zs, zbs, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = e
    elif isinstance(e, Var):
        out = zs[e.index - 1]
    elif isinstance(e, ConjVar):
        out = zbs[e.index - 1]
    elif isinstance(e, Add):
        out = add(_subst(e.a, zs, zbs, memo), _subst(e.b, zs, zbs, memo))
    elif isinstance(e, Sub):
        out = sub(_subst(e.a, zs, zbs, memo), _subst(e.b, zs, zbs, memo))
    elif isinstance(e, Mul):
        out = mul(_subst(e.a, zs, zbs, memo), _subst(e.b, zs, zbs, memo))
    elif isinstance(e, Div):
        out = div(_subst(e.a, zs, zbs, memo), _subst(e.b, zs, zbs, memo))
    elif isinstance(e, IntPow):
        out = intpow(_subst(e.base, zs, zbs, memo), e.power)
    elif isinstance(e, Exp):
        out = exp(_subst(e.arg, zs, zbs, memo))
    elif isinstance(e, Log):
        out = log(_subst(e.arg, zs, zbs, memo))
    elif isinstance(e, ImplicitT):
        out = implicit_t(e.weights,
                         tuple(_subst(a, zs, zbs, memo) for a in e.z_args),
                         tuple(_subst(b, zs, zbs, memo) for b in e.zbar_args),
                         e.newton_tol, e.newton_max_iter)
    else:
        raise TypeError("unknown node %r" % (e,))
    memo[id(e)] = out
    return out


def formal_conjugate(e: Expression) -> Expression:
    """The expression whose value is the complex conjugate of ``e``.

    Swaps z_i with zbar_i and conjugates constants.  The implicit-time node is
    real-valued, so conjugation swaps its two argument families.
    """
    return _conj(e, {})


def _conj(e, memo):
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = const(e.value.conjugate())
    elif isinstance(e, Var):
        out = zbar(e.index)
    elif isinstance(e, ConjVar):
        out = z(e.index)
    elif isinstance(e, Add):
        out = add(_conj(e.a, memo), _conj(e.b, memo))
    elif isinstance(e, Sub):
        out = sub(_conj(e.a, memo), _conj(e.b, memo))
    elif isinstance(e, Mul):
        out = mul(_conj(e.a, memo), _conj(e.b, memo))
    elif isinstance(e, Div):
        out = div(_conj(e.a, memo), _conj(e.b, memo))
    elif isinstance(e, IntPow):
        out = intpow(_conj(e.base, memo), e.power)
    elif isinstance(e, Exp):
        out = exp(_conj(e.arg, memo))
    elif isinstance(e, Log):
        out = log(_conj(e.arg, memo))
    elif isinstance(e, ImplicitT):
        out = implicit_t(e.weights,
                         tuple(_conj(b, memo) for b in e.zbar_args),
                         tuple(_conj(a, memo) for a in e.z_args),
                         e.newton_tol, e.newton_max_iter)
    else:
        raise TypeError("unknown node %r" % (e,))
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Probabilistic numeric equality
# ---------------------------------------------------------------------------


def numerically_equal(a: Expression, b: Expression, dim: int,
                      seed: int = 0, num_points: int = 64,
                      tol: float = 1e-10) -> bool:
    """Test a == b by evaluation at seeded annulus points (0.5 <= |z| <= 2)."""
    from .sampling import annulus_points
    pts = annulus_points(dim, num_points, seed)
    va = np.broadcast_to(np.asarray(evaluate_many(a, pts)), (num_points,))
    vb = np.broadcast_to(np.asarray(evaluate_many(b, pts)), (num_points,))
    return bool(np.max(np.abs(va - vb)) <= tol)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def to_json(e: Expression):
    """Serialize to the {op, args, value?, index?, weights?} tree format.

    implicit_t nodes also carry newton_tol and newton_max_iter; from_json
    falls back to the defaults when they are absent.
    """
    if isinstance(e, Const):
        return {"op": "const", "value": [e.value.real, e.value.imag]}
    if isinstance(e, Var):
        return {"op": "z", "index": e.index}
    if isinstance(e, ConjVar):
        return {"op": "zbar", "index": e.index}
    if isinstance(e, (Add, Sub, Mul, Div)):
        return {"op": e.op, "args": [to_json(e.a), to_json(e.b)]}
    if isinstance(e, IntPow):
        return {"op": "pow", "value": e.power, "args": [to_json(e.base)]}
    if isinstance(e, (Exp, Log)):
        return {"op": e.op, "args": [to_json(e.arg)]}
    if isinstance(e, ImplicitT):
        return {"op": "implicit_t", "weights": list(e.weights),
                "newton_tol": e.newton_tol,
                "newton_max_iter": e.newton_max_iter,
                "args": [to_json(k) for k in e.children()]}
    raise TypeError("unknown node %r" % (e,))


def from_json(obj) -> Expression:
    """Inverse of :func:`to_json`; reconstructs through the interning layer."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError("expression JSON must be an object with an 'op' key")
    op = obj["op"]
    if op == "const":
        re, im = obj["value"]
        return const(complex(re, im))
    if op == "z":
        return z(int(obj["index"]))
    if op == "zbar":
        return zbar(int(obj["index"]))
    if op in ("add", "sub", "mul", "div"):
        a, b = (from_json(x) for x in obj["args"])
        return {"add": add, "sub": sub, "mul": mul, "div": div}[op](a, b)
    if op == "pow":
        return intpow(from_json(obj["args"][0]), int(obj["value"]))
    if op == "exp":
        return exp(from_json(obj["args"][0]))
    if op == "log":
        return log(from_json(obj["args"][0]))
    if op == "implicit_t":
        weights = obj["weights"]
        n = len(weights)
        args = [from_json(x) for x in obj["args"]]
        if len(args) != 2 * n:
            raise ValueError("implicit_t JSON needs 2n args")
        return implicit_t(weights, args[:n], args[n:],
                          newton_tol=obj.get("newton_tol", NEWTON_TOL),
                          newton_max_iter=obj.get("newton_max_iter",
                                                  NEWTON_MAX_ITER))
    raise ValueError("unknown expression op %r" % (op,))


def _pretty(e, depth=0):
    if depth > 4:
        return "..."
    if isinstance(e, Const):
        v = e.value
        if v.imag == 0:
            return "%g" % v.real
        return "(%g%+gj)" % (v.real, v.imag)
    if isinstance(e, Var):
        return "z%d" % e.index
    if isinstance(e, ConjVar):
        return "~z%d" % e.index
    if isinstance(e, (Add, Sub, Mul, Div)):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        return "(%s %s %s)" % (_pretty(e.a, depth + 1), sym, _pretty(e.b, depth + 1))
    if isinstance(e, IntPow):
        return "%s^%d" % (_pretty(e.base, depth + 1), e.power)
    if isinstance(e, Exp):
        return "exp(%s)" % _pretty(e.arg, depth + 1)
    if isinstance(e, Log):
        return "log(%s)" % _pretty(e.arg, depth + 1)
    if isinstance(e, ImplicitT):
        return "t[%s]" % ",".join("%g" % w for w in e.weights)
    return "?"
