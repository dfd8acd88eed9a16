"""Symbolic scalar expressions in the variables z_1..z_n and their conjugates.

Expressions are immutable trees built by the small constructors in this module
(:func:`const`, :func:`z`, :func:`zbar`, :func:`add`, ...).  Wirtinger calculus
treats z_i and zbar_i as independent coordinates, so every node differentiates
exactly with respect to either family.  Construction performs only constant
folding and structural zero/one elimination; there is no general simplifier.

All constructors intern their results: structurally identical expressions are
the *same* Python object.  Equality and hashing therefore coincide with
structural equality, and a shared subterm is a single DAG node.

Evaluation compiles the DAG below one or more roots into a tape: a post-order
list of operations, one slot per node, each slot knowing its last consumer.
The tape runs over the points in fixed-size chunks; every operation runs once
per chunk, so repeated subterms (denominators, implicit solves) are computed
once, and each intermediate array is freed as soon as its last consumer has
run.  Intermediate memory therefore grows with the chunk size, not with the
point count.

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


def evaluate_many(e: Expression, points) -> np.ndarray:
    """Vectorized evaluation over an (m, n) array of points.

    Returns an array of shape (m,): float64 when every operation below ``e``
    stays real (a bare implicit time), complex otherwise.  A constant
    expression returns its scalar value, which broadcasts to (m,).
    """
    try:
        return _evaluate_roots((e,), points)[0]
    except _RootFailure as fail:
        raise fail.cause from None


# Points per tape pass.  Intermediates live only for one chunk, so peak memory
# is (live slots) x _CHUNK x 16 bytes.  Median of 4 run_suite(vaisman) calls
# at 50k points on a 2-vCPU Xeon (AVX-512, 2 MB L2 per core): 0.70 s with 1k
# chunks, where per-op dispatch shows, 0.58 s with 2k, 0.53 s with 4k,
# 0.59 s with 8k and 0.61 s with 16k.
_CHUNK = 4096


class _RootFailure(Exception):
    """An evaluation error and the index of the root it belongs to."""

    def __init__(self, root, cause):
        super().__init__(root, cause)
        self.root = root
        self.cause = cause


def _evaluate_roots(roots, points):
    """Values of several expressions at the same points, through one tape.

    Raises :class:`_RootFailure` naming the first root, in the given order,
    that fails at any point.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise DimensionMismatch("points must be an (m, n) array")
    used = max((r.max_index for r in roots), default=0)
    if used > pts.shape[1]:
        raise DimensionMismatch(
            "expression uses z_%d but points have dimension %d"
            % (used, pts.shape[1]))
    return _Tape(roots).run(pts)


class _Tape:
    """The DAG below ``roots`` as a post-order list of operations.

    Each operation reads the slots of its children and fills its own slot.
    Operations are grouped by the first root that reaches them, in root
    order, so ``ops[:first_op[k]]`` computes exactly roots 0..k-1 and an
    error maps back to its root.  A non-root slot is dropped right after its
    last consumer runs; root slots are copied into the outputs at the end of
    each chunk.
    """

    def __init__(self, roots):
        slot, last_use = {}, {}
        self.ops, self.owner = [], []  # (rule, node, child slots, dead slots)
        self.first_op = []
        for k, root in enumerate(roots):
            self.first_op.append(len(self.ops))
            stack = [] if root in slot else [(root, iter(root.children()))]
            while stack:
                node, pending = stack[-1]
                for child in pending:
                    if child not in slot:
                        stack.append((child, iter(child.children())))
                        break
                else:
                    stack.pop()
                    kids = [slot[c] for c in node.children()]
                    for c in kids:
                        last_use[c] = len(self.ops)
                    slot[node] = len(self.ops)
                    self.ops.append((_APPLY[type(node)], node, kids, []))
                    self.owner.append(k)
        self.roots = [slot[r] for r in roots]
        kept = set(self.roots)
        for c, i in last_use.items():
            if c not in kept:
                self.ops[i][3].append(c)

    def run(self, pts):
        m = pts.shape[0]
        outs = [None] * len(self.roots)
        ops, failure = self.ops, None
        # At m = 0 one empty pass still gives every output its shape.
        for lo in range(0, max(m, 1), _CHUNK):
            chunk = pts[lo:lo + _CHUNK]
            vals = [None] * len(ops)
            try:
                for i, (rule, node, kids, dead) in enumerate(ops):
                    vals[i] = rule(node, [vals[c] for c in kids], chunk)
                    for c in dead:
                        vals[c] = None
            except EvaluationError as err:
                # The earlier roots passed this chunk; only they can still
                # fail first, so later chunks run their operations alone.
                failure = _RootFailure(self.owner[i], err)
                ops = self.ops[:self.first_op[failure.root]]
                continue
            if failure is not None:
                continue
            if m <= _CHUNK:  # a single chunk's root values are the outputs
                return [vals[s] for s in self.roots]
            for k, s in enumerate(self.roots):
                if np.ndim(vals[s]) == 0:  # a constant stays a scalar
                    outs[k] = vals[s]
                    continue
                if outs[k] is None:
                    outs[k] = np.empty(m, vals[s].dtype)
                outs[k][lo:lo + _CHUNK] = vals[s]
        if failure is not None:
            raise failure
        return outs


def _bad_point(pts, values, mask):
    idx = 0 if np.ndim(values) == 0 else int(np.argmax(mask))
    return tuple(complex(c) for c in pts[idx])


def _apply_div(e, args, pts):
    num, den = args
    bad = np.abs(den) < DIVISION_EPS
    if np.any(bad):
        raise DivisionNearZero("divisor magnitude below %g" % DIVISION_EPS,
                               _bad_point(pts, den, bad))
    return num / den


def _apply_pow(e, args, pts):
    base = args[0]
    if e.power < 0:
        bad = np.abs(base) < DIVISION_EPS
        if np.any(bad):
            raise DivisionNearZero(
                "negative-power base magnitude below %g" % DIVISION_EPS,
                _bad_point(pts, base, bad))
    return base ** e.power


def _apply_log(e, args, pts):
    arg = np.asarray(args[0])
    bad = (np.abs(arg) < DIVISION_EPS) | ((arg.real < 0) & (arg.imag == 0))
    if np.any(bad):
        raise LogBranchError("log on the closed negative real axis",
                             _bad_point(pts, arg, bad))
    return np.log(arg)


def _apply_implicit(e, args, pts):
    m = pts.shape[0]
    r = np.asarray(e.weights)
    n = len(r)
    s = np.empty((m, n))
    for k in range(n):
        s[:, k] = np.broadcast_to(np.asarray(args[k] * args[n + k]), (m,)).real
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


# One evaluation rule per node kind: (node, child values, chunk) -> values.
_APPLY = {
    Const: lambda e, args, pts: e.value,
    Var: lambda e, args, pts: pts[:, e.index - 1],
    ConjVar: lambda e, args, pts: np.conj(pts[:, e.index - 1]),
    Add: lambda e, args, pts: args[0] + args[1],
    Sub: lambda e, args, pts: args[0] - args[1],
    Mul: lambda e, args, pts: args[0] * args[1],
    Div: _apply_div,
    IntPow: _apply_pow,
    Exp: lambda e, args, pts: np.exp(args[0]),
    Log: _apply_log,
    ImplicitT: _apply_implicit,
}


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
