"""Symbolic scalar expressions in the variables z_1..z_n and their conjugates.

Expressions are immutable DAGs built by the small constructors in this module
(:func:`const`, :func:`z`, :func:`zbar`, :func:`add`, ...).  Wirtinger calculus
treats z_i and zbar_i as independent coordinates, so every node differentiates
exactly with respect to either family.  Construction performs only constant
folding and structural zero/one elimination; there is no general simplifier.

All constructors intern their results: structurally identical expressions are
the *same* Python object.  Equality and hashing therefore coincide with
structural equality, and a shared subterm is a single DAG node.  The intern
table holds its nodes weakly and a node refers only to its children, so no
DAG is a reference cycle: an expression that nothing references any more is
freed at once.

Each node kind has its rules in one table, ``_KINDS``: evaluate, rebuild from
new children, differentiate from the children's derivatives, JSON fields and
pretty form.  Evaluation, differentiation, substitution, conjugation and JSON
all drive those rules through one explicit-stack post-order walk, so the
depth of an expression is bounded by memory, not by the recursion limit.

Evaluation compiles the DAG below one or more roots into a tape: a post-order
list of operations, one slot per node, each slot knowing its last consumer.
The tape runs over the points in fixed-size chunks; every operation runs once
per chunk, so repeated subterms (denominators, implicit solves) are computed
once.  Where each intermediate array lives is decided when the tape is
compiled: in an operand that the operation is the last consumer of, or in a
buffer of an arena that each run allocates once and reuses chunk after chunk,
once the value in it has had its last consumer.  So an arithmetic operation
allocates nothing, and intermediate memory grows with the chunk size, not
with the point count.  The tape hands each root's values, chunk by chunk, to
a consumer, which keeps them or folds them (say, to a per-point maximum), so
a caller runs everything it needs at one point array through one tape and one
pass: one Newton solve per implicit time for a whole verification suite.

The one non-algebraic node is :class:`ImplicitT`, the real-valued function
t(w) solving  sum_i |w_i|^2 exp(2 r_i t) = 1  for positive weights r_i.  It
evaluates via a guarded Newton iteration and differentiates via implicit
differentiation, which keeps the whole calculus closed under ``wirtinger_d``.

A :func:`param` leaf is a real number named but not given: its derivative is
zero, conjugation leaves it alone, and a tape takes its value from the
binding (name -> number) that it runs with.  An expression written over
params is a template: compiled into a tape once, it is evaluated for fresh
numbers by binding them, with no new construction.  Implicit-time weights
may be params too.

A tape also runs over the integers modulo the prime MODULAR_PRIME
(:meth:`_Tape.prove`), with each z_i, zbar_i, log, implicit time and param
an independent unknown drawn at random: a root that vanishes in every trial
is zero as a rational function of those unknowns, except with a probability
that its degree bounds (the Schwartz-Zippel lemma), and so for every binding
and at every point where it can be evaluated.  An exp whose argument is a
polynomial sum_m c_m m in those symbols with Gaussian-integer coefficients
is the product of the powers exp(m)^Re(c_m) exp(i m)^Im(c_m), each exp(m)
and exp(i m) an unknown of its own, so that exp(a) exp(b) = exp(a + b)
holds there; any other exp is an unknown.

Substitution knows one identity of the implicit time: moving its arguments
z_k, zbar_k to exp(u_k) z_k, exp(v_k) zbar_k with u_k + v_k = -2 s r_k for
every k, the same real s, adds s to it (the time-s flow of its weights).
"""

from __future__ import annotations

import cmath
import math
import random
import weakref
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Expression", "Const", "Var", "ConjVar", "Add", "Sub", "Mul", "Div",
    "IntPow", "Exp", "Log", "ImplicitT", "Param",
    "const", "z", "zbar", "add", "sub", "mul", "div", "intpow", "exp", "log",
    "implicit_t", "param", "wirtinger_d", "evaluate", "evaluate_many", "substitute",
    "formal_conjugate", "value_number", "numerically_equal", "to_json",
    "from_json",
    "EvaluationError", "DivisionNearZero", "NewtonDivergence",
    "LogBranchError", "UnboundParam", "DimensionMismatch",
    "DIVISION_EPS", "NEWTON_TOL", "NEWTON_MAX_ITER",
    "MODULAR_PRIME", "MODULAR_TRIALS", "MODULAR_SEED",
]

DIVISION_EPS = 1e-14
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# Exact identity tests (_Tape.prove) evaluate over the integers mod
# MODULAR_PRIME = 2^62 + 169, a prime = 1 (mod 4), in MODULAR_TRIALS trials
# whose residues random.Random(MODULAR_SEED) draws.
MODULAR_PRIME = 4611686018427388073
MODULAR_TRIALS = 3
MODULAR_SEED = 2023
_P = MODULAR_PRIME
# sqrt(-1) mod p: 3 is not a square mod p, so 3^((p-1)/4) squares to
# 3^((p-1)/2) = -1.
_I_MOD = pow(3, (_P - 1) // 4, _P)


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


class UnboundParam(EvaluationError):
    """A param was evaluated without a value in the binding."""


class DimensionMismatch(ValueError):
    """A point or substitution tuple was shorter than the variables used."""


# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------

# The intern table: key -> weak reference to the node.  Keys name children
# by id(); that is sound because a live node holds its children, and a dead
# node's entry leaves the table with it.  (A WeakValueDictionary does the
# same, but its KeyedRef is built in Python and costs about 2 us per node.)
_INTERN: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    if _INTERN.get(ref.key) is ref:
        del _INTERN[ref.key]


class Expression:
    """Base class for all expression nodes.  Instances are interned."""

    __slots__ = ("args", "max_index", "has_conj", "has_implicit", "__weakref__")

    op = ""

    def children(self):
        return self.args

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


class Const(Expression):
    __slots__ = ("value",)
    op = "const"


class Var(Expression):
    __slots__ = ("index",)
    op = "z"


class ConjVar(Expression):
    __slots__ = ("index",)
    op = "zbar"


class Add(Expression):
    __slots__ = ()
    op = "add"


class Sub(Expression):
    __slots__ = ()
    op = "sub"


class Mul(Expression):
    __slots__ = ()
    op = "mul"


class Div(Expression):
    __slots__ = ()
    op = "div"


class IntPow(Expression):
    __slots__ = ("power",)
    op = "pow"


class Exp(Expression):
    __slots__ = ()
    op = "exp"


class Log(Expression):
    __slots__ = ()
    op = "log"


class ImplicitT(Expression):
    """t(w) with sum_i a_i(w) b_i(w) exp(2 r_i t) = 1, solved by Newton.

    The children are a_1..a_n followed by b_1..b_n, then the weights that are
    params, in order; ``weights`` holds each weight as a float or its param.
    The defaults a_i = z_i, b_i = zbar_i make a_i b_i = |w_i|^2 at actual
    points; substitution rewrites the arguments in place, so conjugated or
    composed occurrences stay within the expression language.
    """

    __slots__ = ("weights",)
    op = "implicit_t"


class Param(Expression):
    __slots__ = ("name",)
    op = "param"


# ---------------------------------------------------------------------------
# Smart constructors (constant folding + zero/one elimination, then intern)
# ---------------------------------------------------------------------------


def _intern(cls, key, args=(), **attrs):
    """The node interned under ``key``, built as ``cls`` on first use.

    A new node takes its flags from its children; ``attrs`` sets the kind's
    own fields and overrides a flag where the node itself adds to it.
    """
    ref = _INTERN.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = cls()
        node.args = args
        node.max_index, node.has_conj, node.has_implicit = 0, False, False
        for c in args:
            if c.max_index > node.max_index:
                node.max_index = c.max_index
            node.has_conj |= c.has_conj
            node.has_implicit |= c.has_implicit
        for name, value in attrs.items():
            setattr(node, name, value)
        _INTERN[key] = ref = _Ref(node, _forget)
        ref.key = key
    return node


def const(value) -> Expression:
    v = complex(value)
    return _intern(Const, ("c", v.real, v.imag), value=v)


# Constants are interned too, so these are the only zero and one.
_ZERO = const(0.0)
_ONE = const(1.0)


def _variable(cls, tag, index, has_conj):
    if not isinstance(index, int) or index < 1:
        raise ValueError("variable index must be a positive integer, got %r" % (index,))
    return _intern(cls, (tag, index), index=index, max_index=index,
                   has_conj=has_conj)


def z(index: int) -> Expression:
    return _variable(Var, "z", index, False)


def zbar(index: int) -> Expression:
    return _variable(ConjVar, "zb", index, True)


def add(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value + b.value)
    if a is _ZERO:
        return b
    if b is _ZERO:
        return a
    return _intern(Add, ("+", id(a), id(b)), (a, b))


def sub(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if a is b:
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value - b.value)
    if b is _ZERO:
        return a
    return _intern(Sub, ("-", id(a), id(b)), (a, b))


def mul(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.value * b.value)
    if a is _ZERO or b is _ZERO:
        return _ZERO
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return _intern(Mul, ("*", id(a), id(b)), (a, b))


def div(a: Expression, b: Expression) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ValueError("division by a structural zero")
        if isinstance(a, Const):
            return const(a.value / b.value)
        if b.value == 1:
            return a
    if a is _ZERO:
        return _ZERO
    return _intern(Div, ("/", id(a), id(b)), (a, b))


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
    return _intern(IntPow, ("^", id(base), power), (base,), power=power)


def exp(arg: Expression) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Const):
        return const(cmath.exp(arg.value))
    return _intern(Exp, ("e", id(arg)), (arg,))


def log(arg: Expression) -> Expression:
    arg = _coerce(arg)
    if isinstance(arg, Const) and not (arg.value.real <= 0 and arg.value.imag == 0):
        return const(cmath.log(arg.value))
    return _intern(Log, ("l", id(arg)), (arg,))


def param(name: str) -> Expression:
    """The real number bound to ``name`` when the expression is evaluated."""
    if not isinstance(name, str) or not name:
        raise ValueError("param name must be a non-empty string, got %r" % (name,))
    return _intern(Param, ("p", name), name=name)


def implicit_t(weights, z_args=None, zbar_args=None) -> Expression:
    """The implicit time with the given weights: positive numbers or params."""
    weights = tuple(w if isinstance(w, Param) else float(w) for w in weights)
    n = len(weights)
    if n < 2:
        raise ValueError("implicit time needs at least two weights")
    if any(not isinstance(w, Param) and w <= 0 for w in weights):
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
    args = z_args + zbar_args + tuple(w for w in weights if isinstance(w, Param))
    key = ("t", tuple(None if isinstance(w, Param) else w for w in weights),
           tuple(id(a) for a in args))
    return _intern(ImplicitT, key, args, weights=weights,
                   has_conj=True, has_implicit=True)


# ---------------------------------------------------------------------------
# Rules per node kind
# ---------------------------------------------------------------------------


def _bad_point(pts, values, mask):
    idx = 0 if np.ndim(values) == 0 else int(np.argmax(mask))
    return tuple(complex(c) for c in pts[idx])


# The checks of the operations that can fail on their operand: each takes
# the operation's node and the operand's values, and raises where the
# operation is undefined.  _Tape runs them as guard operations.


def _check_divisor(e, args, pts, out=None):
    den = args[0]
    bad = np.abs(den) < DIVISION_EPS
    if np.any(bad):
        raise DivisionNearZero("divisor magnitude below %g" % DIVISION_EPS,
                               _bad_point(pts, den, bad))


def _check_base(e, args, pts, out=None):
    base = args[0]
    bad = np.abs(base) < DIVISION_EPS
    if np.any(bad):
        raise DivisionNearZero(
            "negative-power base magnitude below %g" % DIVISION_EPS,
            _bad_point(pts, base, bad))


def _check_log(e, args, pts, out=None):
    arg = np.asarray(args[0])
    bad = (np.abs(arg) < DIVISION_EPS) | ((arg.real < 0) & (arg.imag == 0))
    if np.any(bad):
        raise LogBranchError("log on the closed negative real axis",
                             _bad_point(pts, arg, bad))


# The rules of division, power and log: where one can fail, a guard
# operation before it has checked its operand (see _Tape).


def _apply_quotient(e, args, pts, out=None):
    return args[0] / args[1]


def _apply_power(e, args, pts, out=None):
    return args[0] ** e.power


def _apply_logarithm(e, args, pts, out=None):
    return np.log(np.asarray(args[0]))


def _apply_param(e, args, pts, out=None):
    raise UnboundParam("param %r is not bound" % e.name)


def _bound(value, args, pts, out=None):
    # A bound param's operation: the tape puts its value where the node was.
    return value


def _weights(e, kids):
    """The weights of implicit time ``e``, each param replaced by its entry
    of ``kids`` (the node's children or their images)."""
    n = len(e.weights)
    bound = iter(kids[2 * n:])
    return [w if isinstance(w, float) else next(bound) for w in e.weights]


def _column_sum(columns):
    """The left-to-right sum of equal-length arrays, in a new array."""
    total = columns[0] + columns[1]
    for column in columns[2:]:
        total += column
    return total


def _apply_implicit(e, args, pts, out=None):
    # One contiguous real column per weight.  Every sum below runs left to
    # right over the weights, the order numpy's sum(axis=1) of an (m, n)
    # array takes for n <= 7 (numpy 2.4), so t has the bits of that (m, n)
    # formulation.
    m = pts.shape[0]
    r = [complex(w).real for w in _weights(e, args)]
    n = len(r)
    if not all(w > 0 for w in r):
        raise NewtonDivergence("implicit-time weights must be positive, got %r"
                               % (r,))
    s = [np.ascontiguousarray(
        np.broadcast_to(np.asarray(args[k] * args[n + k]), (m,)).real,
        dtype=float) for k in range(n)]
    total = _column_sum(s)
    bad = total <= 0
    if np.any(bad):
        raise NewtonDivergence("implicit time undefined (zero radius)",
                               _bad_point(pts, total, bad))
    # F(t) = sum_k s_k exp(2 r_k t) is convex and increasing.  By convexity
    # F(t) >= S exp(2 rbar t), with S = sum_k s_k and rbar the s-weighted
    # mean rate, and each term alone is at most F, so the root lies at or
    # below -log S / (2 rbar) and every -log s_k / (2 r_k).  From the least
    # of them, where 1 <= F <= n, Newton's method descends to the root
    # without overshooting, so no exp overflows however spread the rates.
    rbar = _column_sum([w * sk for w, sk in zip(r, s)])
    rbar /= total
    t = -np.log(total) / (2.0 * rbar)
    with np.errstate(divide="ignore", invalid="ignore"):
        for w, sk in zip(r, s):
            # fmin skips the NaN of an s_k < 0, which bounds nothing.
            np.fmin(t, np.log(sk) / (-2.0 * w), out=t)
    slope = [(2.0 * w) * sk for w, sk in zip(r, s)]
    # NEWTON_MAX_ITER steps, each followed by a residual test; the step
    # after the last test is discarded.
    for _ in range(NEWTON_MAX_ITER + 1):
        two_t = 2.0 * t
        growth = [np.exp(two_t * w) for w in r]
        f = _column_sum([sk * gk for sk, gk in zip(s, growth)])
        f -= 1.0
        if np.all(np.abs(f) < NEWTON_TOL):
            return t
        fprime = _column_sum([dk * gk for dk, gk in zip(slope, growth)])
        t = t - f / fprime
    bad = np.abs(f) >= NEWTON_TOL
    raise NewtonDivergence("Newton failed to reach %g in %d iterations"
                           % (NEWTON_TOL, NEWTON_MAX_ITER),
                           _bad_point(pts, f, bad))


# Rules over the integers mod MODULAR_PRIME.  A residue rule takes the
# node, its children's residues (never None) and ``draw``, which gives a
# symbol its residue; it returns None where the value is undefined (a
# divisor or negative-power base of 0).  A degree rule bounds the degrees
# of the numerator and denominator of the node as a rational function of
# the symbols, from its children's bounds.


def _residue(x: float):
    """The float ``x`` exactly, mod p; None for inf and nan."""
    if not math.isfinite(x):
        return None
    num, den = x.as_integer_ratio()
    return num * pow(den, -1, _P) % _P


def _modular_const(e, v, draw):
    re, im = _residue(e.value.real), _residue(e.value.imag)
    if re is None or im is None:
        return None
    return (re + _I_MOD * im) % _P


def _modular_symbol(e, v, draw):
    # z_i, zbar_i, exp, log, implicit time and param: independent unknowns.
    return draw(e)


def _modular_div(e, v, draw):
    if v[1] == 0:
        return None
    return v[0] * pow(v[1], -1, _P) % _P


def _modular_pow(e, v, draw):
    if e.power < 0 and v[0] == 0:
        return None
    return pow(v[0], e.power, _P)


def _degree_const(e, d):
    return 0, 0


def _degree_symbol(e, d):
    return 1, 0


def _degree_sum(e, d):
    (a, b), (c, f) = d
    return max(a + f, c + b), b + f


def _degree_product(e, d):
    (a, b), (c, f) = d
    return a + c, b + f


def _degree_quotient(e, d):
    (a, b), (c, f) = d
    return a + f, b + c


def _degree_pow(e, d):
    (a, b), k = d[0], e.power
    return (k * a, k * b) if k > 0 else (-k * b, -k * a)


# An exp argument as sum_m c_m m: a dict from each monomial m, a frozenset
# of (symbol, power) pairs over z_i, zbar_i, params and implicit times, to
# its nonzero coefficient c_m, exact as a pair (re, im) of ints or
# Fractions.  A polynomial of more than _EXPANSION_TERMS terms is not
# expanded.
_EXPANSION_TERMS = 32
_SYMBOLS = (Var, ConjVar, Param, ImplicitT)


def _plus(a, b, sign=1):
    total = dict(a)
    for m, (x, y) in b.items():
        p, q = total.pop(m, (0, 0))
        p, q = p + sign * x, q + sign * y
        if p or q:
            total[m] = (p, q)
    return total if len(total) <= _EXPANSION_TERMS else None


def _times(a, b):
    total = {}
    for m, (p, q) in a.items():
        for k, (x, y) in b.items():
            powers = dict(m)
            for symbol, e in k:
                powers[symbol] = powers.get(symbol, 0) + e
            total = _plus(total, {frozenset(powers.items()):
                                  (p * x - q * y, p * y + q * x)})
            if total is None:
                return None
    return total


def _expand(node, kids):
    """``node`` as sum_m c_m m from its children's expansions, or None."""
    if isinstance(node, _SYMBOLS):
        return {frozenset([(node, 1)]): (1, 0)}
    if None in kids:
        return None
    if isinstance(node, Const):
        v = node.value
        if not cmath.isfinite(v):
            return None
        c = (Fraction(v.real), Fraction(v.imag))
        return {frozenset(): c} if any(c) else {}
    if isinstance(node, (Add, Sub)):
        return _plus(kids[0], kids[1], 1 if isinstance(node, Add) else -1)
    if isinstance(node, Mul):
        return _times(*kids)
    # A sum of two terms has more than _EXPANSION_TERMS terms at any higher
    # power.
    if isinstance(node, IntPow) and 0 < node.power <= _EXPANSION_TERMS:
        total = kids[0]
        for _ in range(node.power - 1):
            total = total and _times(total, kids[0])
        return total
    return None


def _exponents(e):
    """``e`` as sum_m c_m m (see _EXPANSION_TERMS), or None where it is not
    a polynomial in the symbols of at most that many terms."""
    terms = {}
    for node in _post_order(e, terms.__contains__):
        terms[node] = _expand(node, [terms[c] for c in node.args])
    return terms[e]


# Each live exp node's _exp_powers, which every trial of every proof asks
# for; an entry goes with its node.
_EXP_POWERS = weakref.WeakKeyDictionary()


def _exp_powers(e):
    """exp node ``e`` as [((m, 0), Re c_m)] + [((m, 1), Im c_m)] for its
    argument sum_m c_m m, the nonzero integer powers of exp(m) and exp(i m)
    whose product it is; None unless every c_m is a Gaussian integer."""
    if e in _EXP_POWERS:
        return _EXP_POWERS[e]
    terms = _exponents(e.args[0])
    powers = None
    if terms is not None and all(x.denominator == 1 and y.denominator == 1
                                 for x, y in terms.values()):
        powers = [((m, part), int(c)) for m, pair in terms.items()
                  for part, c in enumerate(pair) if c]
    _EXP_POWERS[e] = powers
    return powers


def _modular_exp(e, v, draw):
    powers = _exp_powers(e)
    if powers is None:
        return draw(e)
    value = 1
    for key, k in powers:
        r = draw(key)
        if k < 0 and r == 0:
            return None
        value = value * pow(r, k, _P) % _P
    return value


def _degree_exp(e, d):
    powers = _exp_powers(e)
    if powers is None:
        return 1, 0
    return (sum(k for _, k in powers if k > 0),
            sum(-k for _, k in powers if k < 0))


def _derive_div(e, d, *_):
    a, b = e.args
    return div(sub(mul(d[0], b), mul(a, d[1])), mul(b, b))


def _derive_implicit(e, d, *_):
    # Implicit differentiation of  F(t, w) = sum_k a_k b_k exp(2 r_k t) - 1 = 0:
    #   dt = -(sum_k (da_k b_k + a_k db_k) E_k) / (sum_k 2 r_k a_k b_k E_k)
    # where E_k = exp(2 r_k t) reuses this very node, so evaluation shares the
    # single Newton solve.
    n = len(e.weights)
    numerator = _ZERO
    denominator = _ZERO
    for w, a, b, da, db in zip(e.weights, e.args[:n], e.args[n:2 * n], d[:n],
                               d[n:2 * n]):
        two_w = mul(2.0, w)  # folds to const(2 w) for a numeric weight
        ek = exp(mul(two_w, e))
        numerator = add(numerator, mul(add(mul(da, b), mul(a, db)), ek))
        denominator = add(denominator, mul(two_w, mul(mul(a, b), ek)))
    if numerator is _ZERO:
        return _ZERO
    return mul(const(-1.0), div(numerator, denominator))


def _rebuild_implicit(e, kids, zs, zbs, conj):
    # t is real, so conjugation swaps its argument families: the result is
    # the same node again for the default arguments.
    n, weights = len(e.weights), _weights(e, kids)
    a, b = kids[:n], kids[n:2 * n]
    if conj:
        a, b = b, a
    s = _flow_time(e, a, b, weights)
    if s is None:
        return implicit_t(weights, a, b)
    return add(implicit_t(weights), const(s))


def _exp_factor(x, variable):
    """u where ``x`` is exp(u) * variable (either order), else None."""
    if isinstance(x, Mul) and variable in x.args:
        other = x.args[0] if x.args[1] is variable else x.args[1]
        if isinstance(other, Exp):
            return other.args[0]
    return None


def _flow_time(e, a, b, weights):
    """The real s by which implicit time ``e`` moves when its default
    arguments become ``a``, ``b``, or None.

    If a_k = exp(u_k) z_k and b_k = exp(v_k) zbar_k with u_k + v_k = -2 s
    w_k for each weight w_k, one s for all k, then sum_k a_k b_k e^{2 w_k t}
    = sum_k |z_k|^2 e^{2 w_k (t - s)}, which is strictly increasing in t,
    so t(a, b) = t(z, zbar) + s.  Each u_k + v_k and w_k is compared by
    its expansion (see _exponents), so s is exact.
    """
    n = len(weights)
    if e.args[:2 * n] != tuple(map(z, range(1, n + 1))) + tuple(
            map(zbar, range(1, n + 1))):
        return None
    shifts = set()
    for k, w in enumerate(weights):
        u, v = _exp_factor(a[k], z(k + 1)), _exp_factor(b[k], zbar(k + 1))
        if u is None or v is None:
            return None
        total, scale = _exponents(add(u, v)), _exponents(_coerce(w))
        if total is None or scale is None or len(scale) != 1:
            return None
        (m, (c, _)), = scale.items()
        x, y = total.pop(m, (0, 0))
        if total or y:
            return None
        shifts.add(Fraction(-x) / (2 * c))
    s = shifts.pop()
    return float(s) if not shifts and float(s) == s else None


def _json_number(what, value, kind=float, shown=repr):
    """A JSON number as ``kind``; ValueError for a boolean, another type, a
    non-integral float for int or an int beyond the float range, showing
    the value as ``shown`` writes it."""
    if not isinstance(value, bool) and (isinstance(value, int) or isinstance(
            value, float) and (kind is float or value.is_integer())):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ValueError("%s must be a %s number, got %s" % (
        what, "whole" if kind is int else "real", shown(value)))


def _parse_const(f, kids):
    re, im = (_json_number("value", x) for x in f["value"])
    return const(complex(re, im))


def _parse_implicit(f, kids):
    # Older tables carry the Newton settings; a value other than the module
    # constant would be silently lost, so it is refused.
    for name, value in (("newton_tol", NEWTON_TOL),
                        ("newton_max_iter", NEWTON_MAX_ITER)):
        if name in f and f[name] != value:
            raise ValueError("%s must be the fixed %r, got %r"
                             % (name, value, f[name]))
    # A weight that is a param is null here and comes after the arguments.
    weights = [None if w is None else _json_number("weight", w)
               for w in f["weights"]]
    n, params = len(weights), weights.count(None)
    if len(kids) != 2 * n + params:
        raise ValueError("implicit_t with %d weights, %d of them params, needs "
                         "%d args" % (n, params, 2 * n + params))
    bound = iter(kids[2 * n:])
    return implicit_t([next(bound) if w is None else w for w in weights],
                      kids[:n], kids[n:2 * n])


def _pretty_const(e, s):
    v = e.value
    return "%g" % v.real if v.imag == 0 else "(%g%+gj)" % (v.real, v.imag)


class _Kind(NamedTuple):
    arity: int | None  # None: checked by the constructor
    apply: Callable    # (node, child values, chunk of points, out) -> values
    check: Callable    # node -> how evaluating it can fail (see _Tape)
    modular: Callable  # (node, child residues, draw) -> residue or None
    degree: Callable   # (node, child degree bounds) -> (numerator, denominator)
    rebuild: Callable  # (node, new children, z images, zbar images, conj) -> node
    derive: Callable   # (node, child derivatives, index, conj) -> derivative
    fields: Callable   # node -> JSON fields besides op and args
    parse: Callable    # (JSON node, children) -> node
    pretty: Callable   # (node, child strings) -> str


def _no_fields(e):
    return {}


# Check rules: None where evaluating the node cannot fail; (check, operand
# index) where the check tests that operand first; _SELF_CHECKED where
# evaluating the node is itself the test (implicit time, param).
def _cannot_fail(e):
    return None


_SELF_CHECKED = (None, None)


def _binary(symbol, make, apply, modular, degree, derive, check=_cannot_fail):
    return _Kind(2, apply, check, modular, degree, lambda e, k, *_: make(*k),
                 derive, _no_fields, lambda f, k: make(*k),
                 lambda e, s: "(%s %s %s)" % (s[0], symbol, s[1]))


def _unary(name, make, apply, derive, check=_cannot_fail,
           modular=_modular_symbol, degree=_degree_symbol):
    # exp and log; a log is a symbol over the integers mod p.
    return _Kind(1, apply, check, modular, degree,
                 lambda e, k, *_: make(k[0]), derive, _no_fields,
                 lambda f, k: make(k[0]), lambda e, s: "%s(%s)" % (name, s[0]))


_KINDS = {
    Const: _Kind(
        0, lambda e, v, pts, out=None: e.value, _cannot_fail, _modular_const,
        _degree_const,
        lambda e, k, zs, zbs, conj: const(e.value.conjugate()) if conj else e,
        lambda e, d, i, conj: _ZERO,
        lambda e: {"value": [e.value.real, e.value.imag]},
        _parse_const, _pretty_const),
    Var: _Kind(
        0, lambda e, v, pts, out=None: pts[:, e.index - 1], _cannot_fail,
        _modular_symbol, _degree_symbol,
        lambda e, k, zs, zbs, conj: zs[e.index - 1],
        lambda e, d, i, conj: _ONE if (not conj and e.index == i) else _ZERO,
        lambda e: {"index": e.index},
        lambda f, k: z(_json_number("index", f["index"], int)),
        lambda e, s: "z%d" % e.index),
    ConjVar: _Kind(
        0, lambda e, v, pts, out=None: np.conj(pts[:, e.index - 1], out=out),
        _cannot_fail, _modular_symbol, _degree_symbol,
        lambda e, k, zs, zbs, conj: zbs[e.index - 1],
        lambda e, d, i, conj: _ONE if (conj and e.index == i) else _ZERO,
        lambda e: {"index": e.index},
        lambda f, k: zbar(_json_number("index", f["index"], int)),
        lambda e, s: "~z%d" % e.index),
    Add: _binary("+", add, lambda e, v, pts, out=None: v[0] + v[1],
                 lambda e, v, draw: (v[0] + v[1]) % _P, _degree_sum,
                 lambda e, d, *_: add(*d)),
    Sub: _binary("-", sub, lambda e, v, pts, out=None: v[0] - v[1],
                 lambda e, v, draw: (v[0] - v[1]) % _P, _degree_sum,
                 lambda e, d, *_: sub(*d)),
    Mul: _binary("*", mul, lambda e, v, pts, out=None: v[0] * v[1],
                 lambda e, v, draw: v[0] * v[1] % _P, _degree_product,
                 lambda e, d, *_: add(mul(d[0], e.args[1]), mul(e.args[0], d[1]))),
    Div: _binary("/", div, _apply_quotient, _modular_div, _degree_quotient,
                 _derive_div, lambda e: (_check_divisor, 1)),
    IntPow: _Kind(
        1, _apply_power, lambda e: (_check_base, 0) if e.power < 0 else None,
        _modular_pow, _degree_pow,
        lambda e, k, *_: intpow(k[0], e.power),
        lambda e, d, *_: mul(mul(const(e.power), intpow(e.args[0], e.power - 1)),
                             d[0]),
        lambda e: {"value": e.power},
        lambda f, k: intpow(k[0], _json_number("value", f["value"], int)),
        lambda e, s: "%s^%d" % (s[0], e.power)),
    Exp: _unary("exp", exp, lambda e, v, pts, out=None: np.exp(v[0], out=out),
                lambda e, d, *_: mul(e, d[0]), modular=_modular_exp,
                degree=_degree_exp),
    Log: _unary("log", log, _apply_logarithm,
                lambda e, d, *_: div(d[0], e.args[0]),
                lambda e: (_check_log, 0)),
    ImplicitT: _Kind(
        None, _apply_implicit, lambda e: _SELF_CHECKED, _modular_symbol,
        _degree_symbol,
        _rebuild_implicit, _derive_implicit,
        lambda e: {"weights": [w if isinstance(w, float) else None
                               for w in e.weights]},
        _parse_implicit,
        lambda e, s: "t[%s]" % ",".join(
            "%g" % w if isinstance(w, float) else w.name for w in e.weights)),
    Param: _Kind(
        0, _apply_param, lambda e: _SELF_CHECKED, _modular_symbol,
        _degree_symbol, lambda e, *_: e,
        lambda e, *_: _ZERO,
        lambda e: {"name": e.name}, lambda f, k: param(f["name"]),
        lambda e, s: e.name),
}

_BY_OP = {cls.op: kind for cls, kind in _KINDS.items()}


# ---------------------------------------------------------------------------
# The post-order walk, differentiation and rebuilding
# ---------------------------------------------------------------------------


def _post_order(root, done):
    """The nodes below ``root`` with ``done(node)`` false, children first.

    Each node comes once, provided the caller makes ``done`` true for it
    before asking for the next one.  The walk keeps an explicit stack.
    """
    if done(root):
        return
    stack = [(root, iter(root.args))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if not done(child):
                stack.append((child, iter(child.args)))
                break
        else:
            stack.pop()
            yield node


def wirtinger_d(e: Expression, index: int, conjugate: bool = False) -> Expression:
    """Exact partial derivative of ``e`` by z_index (or zbar_index)."""
    if index < 1:
        raise ValueError("variable index must be positive")
    d = {}
    for node in _post_order(e, d.__contains__):
        d[node] = _KINDS[type(node)].derive(
            node, [d[c] for c in node.args], index, conjugate)
    return d[e]


def _rebuild(e, zs, zbs, conj):
    """``e`` with z_i -> zs[i-1] and zbar_i -> zbs[i-1]; with ``conj`` also
    every constant conjugated and every implicit time's families swapped."""
    new = {}
    for node in _post_order(e, new.__contains__):
        new[node] = _KINDS[type(node)].rebuild(
            node, [new[c] for c in node.args], zs, zbs, conj)
    return new[e]


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
    return _rebuild(e, z_exprs, zbar_exprs, False)


def formal_conjugate(e: Expression) -> Expression:
    """The expression whose value is the complex conjugate of ``e``.

    Swaps z_i with zbar_i and conjugates constants.  The implicit-time node is
    real-valued, so conjugation swaps its two argument families.
    """
    indices = range(1, e.max_index + 1)
    return _rebuild(e, [zbar(i) for i in indices], [z(i) for i in indices], True)


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
    expression returns its scalar value, which broadcasts to (m,).  A param
    raises UnboundParam: a template is evaluated through :class:`_Tape`,
    whose runs take a binding.
    """
    pts = _points(points)
    _check_dimension((e,), pts.shape[1])
    return _Tape((e,)).values(pts)[0]


# Points per tape pass.  Intermediates live only for one chunk, so the arena
# holds (most slots live at once) x _CHUNK x 16 bytes.  Median of 7
# run_suite(vaisman) calls at 50k points, one tape of 1027 operations, on a
# 2-vCPU Xeon (AVX-512, 2 MB L2 per core), chunk sizes interleaved in one
# process: 0.22 s with 1k chunks, where per-op dispatch shows, 0.19 s with
# 2k, 0.175 s with 4k, 0.175 s with 8k and 0.20 s with 16k.  The Newton stop
# is decided per chunk, so another size would move digits.
_CHUNK = 4096


class _RootFailure(Exception):
    """An evaluation error and the index of the root it belongs to."""

    def __init__(self, root, cause):
        super().__init__(root, cause)
        self.root = root
        self.cause = cause


def _points(points):
    """``points`` as a complex (m, n) array."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2:
        raise DimensionMismatch("points must be an (m, n) array")
    return pts


def _check_dimension(roots, dim):
    used = max((r.max_index for r in roots), default=0)
    if used > dim:
        raise DimensionMismatch(
            "expression uses z_%d but points have dimension %d" % (used, dim))


# The rules that the tape runs as a bare ufunc call when a child is an array,
# and the rules that write their array result into ``out`` when given one.
_UFUNCS = {_KINDS[Add].apply: np.add, _KINDS[Sub].apply: np.subtract,
           _KINDS[Mul].apply: np.multiply, _apply_quotient: np.divide}
_WRITES_OUT = {*_UFUNCS, _KINDS[Exp].apply, _KINDS[ConjVar].apply}
_CHECKS = {_check_divisor, _check_base, _check_log}


def _tape_dtype(node, kids):
    """The type of ``node``'s values on a tape, float or complex for an
    array, None for a Python scalar, from its children's types ``kids``."""
    if isinstance(node, ImplicitT):
        return float
    if isinstance(node, (Var, ConjVar)):
        return complex
    if all(k is None for k in kids):
        return None
    # A scalar is a Python complex, which makes the result complex.
    return float if all(k is float for k in kids) else complex


class _Tape:
    """The DAG below ``roots`` as a post-order list of operations.

    Each operation reads the slots of its children and fills its own slot.
    Operations are grouped by the first root that reaches them, in root
    order: group k ends with root k's values, which go to the consumer at
    once, and an error belongs to the root of its group.

    A root whose index is in ``checked`` keeps its group but not its values:
    the group holds only what can fail below the root and is not reached by
    an earlier root, in post-order, each as the operand's operations and
    then its guard (an implicit time or a param is computed).  So the root
    fails exactly where evaluating it would, with the same error and point,
    and the consumer never sees it.

    Each kind's ``check`` rule says how its nodes can fail.  A division,
    negative power or log is preceded by a guard: an operation that runs
    the check on the operand's slot and whose own slot nothing reads.  A
    slot gets one guard per check, before its first use: every later use
    runs after it in the same chunk, on the same values, and in every
    prefix of the groups that holds it.

    ``plan`` is what :meth:`run` executes.  An addition, subtraction,
    multiplication or division with an array child is a bare ufunc call;
    every other operation calls its rule.  Where each array lives is fixed
    here, by liveness.  A root's values are a fresh array, since a consumer
    may keep them.  Any other result that a rule can write into ``out``
    goes into a child whose last consumer this operation is, where that
    child has the result's type, is not a view of the points and is not a
    root; failing that, into a buffer of the arena, which is free again
    once the last consumer of the value in it has run.  Once a run has
    filled a chunk the arena lives as long as the tape, so runs of one tape
    must not overlap.
    """

    def __init__(self, roots, checked=()):
        # ops: (rule, node, child slots), a guard's one child being the
        # slot it tests; frees[i]: the slots whose last consumer is
        # operation i (a root slot has none); roots: each root's slot, None
        # for a checked root.
        # params: the operations of the param leaves, which each run binds.
        slot, self.ops, first_op, self.roots = {}, [], [], []
        last, tested, reached, checked = [], set(), set(), set(checked)

        def emit(rule, node, kids):
            for c in kids:
                last[c] = len(self.ops)
            self.ops.append((rule, node, kids))
            last.append(-1)

        def guard(node, check):
            test, operand = check
            s = slot[node.args[operand]]
            if (test, s) not in tested:
                tested.add((test, s))
                emit(test, node, (s,))

        def compute(top):
            for node in _post_order(top, slot.__contains__):
                reached.add(node)
                kind = _KINDS[type(node)]
                check = kind.check(node)
                if check is not None and check[0] is not None:
                    guard(node, check)
                slot[node] = len(self.ops)
                emit(kind.apply, node, tuple(map(slot.__getitem__, node.args)))

        for k, root in enumerate(roots):
            first_op.append(len(self.ops))
            if k not in checked:
                compute(root)
                self.roots.append(slot[root])
                continue
            self.roots.append(None)
            for node in _post_order(root, reached.__contains__):
                reached.add(node)
                check = _KINDS[type(node)].check(node)
                if check is None:
                    continue
                test, operand = check
                compute(node if test is None else node.args[operand])
                if test is not None:
                    guard(node, check)
        # groups: (first operation, end, root slot, whether the slot can be
        # dropped once consumed: no later group reads it).
        ends = first_op[1:] + [len(self.ops)]
        self.groups = [
            (start, stop, s, s is not None and last[s] < stop
             and s not in self.roots[k + 1:])
            for k, (start, stop, s) in enumerate(zip(first_op, ends,
                                                     self.roots))]
        for s in self.roots:
            if s is not None:
                last[s] = -1
        self.frees = [()] * len(self.ops)
        for s, i in enumerate(last):
            if i >= 0:
                self.frees[i] += (s,)
        self.params = [i for i, (_, node, _) in enumerate(self.ops)
                       if isinstance(node, Param)]
        self._place()

    def _place(self):
        """Fill ``plan``, one (f, a, b, out) per operation, and ``arena``,
        the type of each arena buffer.

        ``run`` keeps one list of cells: the slots, then the arena's
        buffers, then None.  ``out`` is the cell whose array the operation
        writes into; -1, the None, asks for a fresh array.  A ufunc call
        reads slots ``a`` and ``b``; a rule has ``a`` = (node, child slots)
        and ``b`` = None.
        """
        n, roots = len(self.ops), set(self.roots)
        self.plan, self.arena = [], []
        # Per slot: its type, whether an operation may write into its
        # array, and its arena buffer; per type, the buffers free for reuse.
        types, writable, buffer = [], [], []
        spare = {float: [], complex: []}
        for i, (rule, node, kids) in enumerate(self.ops):
            dtype = (None if rule in _CHECKS
                     else _tape_dtype(node, [types[c] for c in kids]))
            out, buf = -1, None
            if dtype is not None and i not in roots and rule in _WRITES_OUT:
                dying = self.frees[i]
                out = next((c for c in kids if c in dying and writable[c]
                            and types[c] is dtype), -1)
                if out >= 0:
                    buf = buffer[out]
                else:
                    if not spare[dtype]:
                        spare[dtype].append(len(self.arena))
                        self.arena.append(dtype)
                    buf = spare[dtype].pop()
                    out = n + buf
            if dtype is not None and rule in _UFUNCS:
                self.plan.append((_UFUNCS[rule], kids[0], kids[1], out))
            else:
                self.plan.append((rule, (node, kids), None, out))
            types.append(dtype)
            writable.append(dtype is not None and i not in roots
                            and not isinstance(node, Var))
            buffer.append(buf)
            for c in self.frees[i]:
                if c != out and buffer[c] is not None:
                    spare[types[c]].append(buffer[c])
        self.buffers = []

    def run(self, pts, consume, binding=None):
        """Run the operations over ``pts`` chunk by chunk.

        Each param named in ``binding`` takes its value, as a complex number
        like a constant's; evaluating any other param raises UnboundParam.
        In each chunk, which starts at point ``lo``, ``consume(lo, k,
        values)`` gets root k's values for every root k that is not
        checked, in root order.  Returns the :class:`_RootFailure` of the
        first root, in order, that fails at any point, or None.  From the
        chunk where a root fails on, only the roots before it are computed
        and handed on, since only they can still fail first.
        """
        m = pts.shape[0]
        plan = self.plan
        if self.params and binding:
            plan = list(plan)
            for i in self.params:
                name = self.ops[i][1].name
                if name in binding:
                    value = complex(float(binding[name]))
                    plan[i] = (_bound, (value, ()), None, -1)
        groups = [(start, plan[start:stop], s, drop)
                  for start, stop, s, drop in self.groups]
        n, size, failure = len(plan), min(m, _CHUNK), None
        # The first run that fills a chunk keeps its arena on the tape, and
        # every later run takes views of it: buffers of _CHUNK points are
        # large enough for the allocator to hand back to the system between
        # runs and fault in again.  Until then each run allocates its own,
        # so that a cached tape that only runs short chunks keeps nothing.
        if size == _CHUNK and not self.buffers:
            self.buffers = [np.empty(size, dtype) for dtype in self.arena]
        arena = ([a[:size] for a in self.buffers] if self.buffers
                 else [np.empty(size, dtype) for dtype in self.arena])
        cells = arena + [None]
        # At m = 0 one empty pass still gives every output its shape.
        for lo in range(0, max(m, 1), _CHUNK):
            chunk = pts[lo:lo + _CHUNK]
            if len(chunk) < size:  # the short last chunk
                cells = [a[:len(chunk)] for a in arena] + [None]
            if len(chunk) == 1:
                # numpy multiplies 1-element complex arrays whose output is
                # an input in its reduction loop, which rounds otherwise
                # than the loop a fresh output gets: nothing goes in place.
                groups = [(start, [(f, a, b, -1 if out < n else out)
                                   for f, a, b, out in ops], s, drop)
                          for start, ops, s, drop in groups]
            vals = [None] * n + cells
            for k, (start, ops, s, drop) in enumerate(groups):
                try:
                    for i, (f, a, b, out) in enumerate(ops, start):
                        if b is None:
                            node, kids = a
                            vals[i] = f(node, [vals[c] for c in kids], chunk,
                                        vals[out])
                        else:
                            vals[i] = f(vals[a], vals[b], vals[out])
                except EvaluationError as err:
                    failure = _RootFailure(k, err)
                    groups = groups[:k]
                    break
                if s is not None:
                    consume(lo, k, vals[s])
                if drop:
                    vals[s] = None
        return failure

    def modular(self, draw):
        """Every root's residue mod MODULAR_PRIME and its numerator degree.

        The operations run over the integers mod p, each symbol (z_i,
        zbar_i, log, implicit time, param, an exp that is not a product of
        powers) at ``draw(node)``, and each exp(m) or exp(i m) of the
        others (see _exp_powers) at ``draw((m, part))``.  A
        residue is None where a divisor or negative-power base below the
        root is 0.  The degree bounds the numerator of the root as a
        rational function of the symbols.  For a tape with no checked root.
        """
        vals, degrees = [], []
        for rule, node, kids in self.ops:
            if rule in _CHECKS:  # a guard, whose slot nothing reads
                vals.append(None)
                degrees.append(None)
                continue
            kind = _KINDS[type(node)]
            args = [vals[c] for c in kids]
            vals.append(None if None in args
                        else kind.modular(node, args, draw))
            degrees.append(kind.degree(node, [degrees[c] for c in kids]))
        return ([vals[s] for s in self.roots],
                [degrees[s][0] for s in self.roots])

    def prove(self):
        """Whether each root vanished in MODULAR_TRIALS trials of
        :meth:`modular`, and each root's numerator degree.

        In each trial every symbol takes one residue drawn uniformly from
        the integers mod p by random.Random(MODULAR_SEED).  A root with a
        divisor that is 0 in some trial has not vanished.  By the
        Schwartz-Zippel lemma, a root that is not identically zero (and
        whose numerator is not 0 mod p) vanishes in one trial with
        probability at most degree / p, and in every trial with that to
        the power MODULAR_TRIALS.
        """
        rng = random.Random(MODULAR_SEED)
        vanished = [True] * len(self.roots)
        for _ in range(MODULAR_TRIALS):
            drawn = {}

            def draw(symbol):
                if symbol not in drawn:
                    drawn[symbol] = rng.randrange(MODULAR_PRIME)
                return drawn[symbol]

            values, degrees = self.modular(draw)
            vanished = [v and r == 0 for v, r in zip(vanished, values)]
        return vanished, degrees

    def values(self, pts, binding=None):
        """Every root's values at the (m, n) array ``pts``, in root order.

        A root's values are an (m,) array, or its scalar where it is
        constant.  Raises the error of the first root that fails.
        """
        m, outs = pts.shape[0], [None] * len(self.roots)

        def collect(lo, k, value):
            # A single chunk's values are the outputs; a constant stays a scalar.
            if m <= _CHUNK or np.ndim(value) == 0:
                outs[k] = value
                return
            if outs[k] is None:
                outs[k] = np.empty(m, value.dtype)
            outs[k][lo:lo + _CHUNK] = value

        failure = self.run(pts, collect, binding)
        if failure is not None:
            raise failure.cause from None
        return outs


def _false_pass(degree):
    """The chance, at most, that a nonzero root of numerator degree
    ``degree`` vanished in every trial of :meth:`_Tape.prove`."""
    return (min(degree, _P) / _P) ** MODULAR_TRIALS


# ---------------------------------------------------------------------------
# Value numbering
# ---------------------------------------------------------------------------

# Fingerprints draw from their own seed, so the draws that propose a merge
# are independent of the draws of _Tape.prove that keep it.
_FINGERPRINT_SEED = MODULAR_SEED + 1


def _value_numbering(roots, refused=frozenset()):
    """The DAG below ``roots`` rebuilt with each node in place of its
    class's first node, and the merges: (node, its rebuilt self, the node
    in its place), one per node replaced.

    A class is the nodes of one fingerprint: a node's residues (see
    _Tape.modular) in MODULAR_TRIALS trials whose residues
    random.Random(_FINGERPRINT_SEED) draws.  Nodes come in the order of
    the first root that reaches them, then of their height, so children
    come first and a class's first node is its lowest one below the first
    root that reaches the class: in pullback(g, a) - a, a's coefficients.
    A node whose fingerprint is undefined in a trial, or the same in every
    trial (a constant, such as a proven identity), keeps its place, as do
    the nodes in ``refused``.  x - x, where both sides were replaced by one
    node, stays a subtraction, so that the checks below it stay too.
    """
    rng = random.Random(_FINGERPRINT_SEED)

    def drawer(drawn):
        def draw(symbol):
            if symbol not in drawn:
                drawn[symbol] = rng.randrange(_P)
            return drawn[symbol]
        return draw

    draws = [drawer({}) for _ in range(MODULAR_TRIALS)]
    prints = {}

    def fingerprint(top):
        for node in _post_order(top, prints.__contains__):
            kids = [prints[c] for c in node.args]
            modular = _KINDS[type(node)].modular
            values = None if None in kids else tuple(
                modular(node, [k[t] for k in kids], draw)
                for t, draw in enumerate(draws))
            prints[node] = None if values is None or None in values else values
        return prints[top]

    order = {}  # node -> (first root reaching it, height, arrival)
    for k, root in enumerate(roots):
        for node in _post_order(root, order.__contains__):
            height = 1 + max((order[c][1] for c in node.args), default=0)
            order[node] = (k, height, len(order))
    indices = range(1, max((r.max_index for r in roots), default=0) + 1)
    zs, zbs = [z(i) for i in indices], [zbar(i) for i in indices]
    image, first, merges = {}, {}, []
    for node in sorted(order, key=order.__getitem__):
        kids = [image[c] for c in node.args]
        new = _KINDS[type(node)].rebuild(node, kids, zs, zbs, False)
        if new is _ZERO and isinstance(node, Sub):
            new = _intern(Sub, ("-",) + tuple(map(id, kids)), tuple(kids))
        mark = fingerprint(new)
        if mark is None or len(set(mark)) == 1 or node in refused:
            image[node] = new
            continue
        image[node] = rep = first.setdefault(mark, new)
        if rep is not new:
            merges.append((node, new, rep))
    return [image[r] for r in roots], merges


def value_number(roots):
    """``roots`` over a DAG in which nodes proven equal are one node, and
    the chance, at most, that some merge is false.

    The merges are those of _value_numbering.  Each is kept only if its
    difference vanished in every trial of :meth:`_Tape.prove`, on draws
    independent of the fingerprints; a merge that did not is refused and
    the DAG rebuilt without it.  The chance is the sum of the kept merges'
    Schwartz-Zippel bounds (see _false_pass).  Each merged root has the
    values of its root wherever both can be evaluated, up to rounding, but
    computes every node once: a subterm written twice, or a pulled-back
    denominator equal to the unmoved one, is one operation on a tape.
    """
    refused = set()
    while True:
        merged, merges = _value_numbering(roots, refused)
        if not merges:
            return merged, 0.0
        vanished, degrees = _Tape(
            [sub(new, rep) for _, new, rep in merges]).prove()
        failed = {node for (node, _, _), v in zip(merges, vanished) if not v}
        if not failed:
            return merged, sum(map(_false_pass, degrees), 0.0)
        refused |= failed


# ---------------------------------------------------------------------------
# Probabilistic numeric equality
# ---------------------------------------------------------------------------


def numerically_equal(a: Expression, b: Expression, dim: int) -> bool:
    """Test a == b within 1e-10 at 64 annulus points of seed 0."""
    from .sampling import annulus_points
    pts = annulus_points(dim, 64, 0)
    va = np.broadcast_to(np.asarray(evaluate_many(a, pts)), (64,))
    vb = np.broadcast_to(np.asarray(evaluate_many(b, pts)), (64,))
    return bool(np.max(np.abs(va - vb)) <= 1e-10)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def to_json(e: Expression):
    """Serialize to a node table: ``{"nodes": [...], "root": k}``.

    Each shared node appears once, as ``{"op", fields..., "args"}`` with
    ``args`` the indices of its children, which come earlier in the table
    (leaves have no ``args``).  The fields are ``value`` ([re, im] for const,
    the exponent for pow), ``index`` (z, zbar), and ``weights``
    (implicit_t, solved with NEWTON_TOL and NEWTON_MAX_ITER).
    """
    index, nodes = {}, []
    for node in _post_order(e, index.__contains__):
        entry = {"op": node.op, **_KINDS[type(node)].fields(node)}
        if node.args:
            entry["args"] = [index[c] for c in node.args]
        index[node] = len(nodes)
        nodes.append(entry)
    return {"nodes": nodes, "root": index[e]}


def from_json(obj) -> Expression:
    """Inverse of :func:`to_json`; rebuilds through the constructors.

    Raises ValueError for anything that is not such a table.  An implicit_t
    entry may still carry ``newton_tol`` and ``newton_max_iter``, as older
    tables do, but only with the values of NEWTON_TOL and NEWTON_MAX_ITER.
    """
    try:
        entries, root = obj["nodes"], obj["root"]
    except (KeyError, TypeError) as err:
        raise ValueError("expression JSON must be an object with 'nodes' "
                         "and 'root'") from err
    if not isinstance(entries, list):
        raise ValueError("expression JSON 'nodes' must be a list")
    nodes = []
    for i, entry in enumerate(entries):
        try:
            kind = _BY_OP[entry["op"]]
            kids = []
            for a in entry.get("args", []):
                a = _json_number("arg", a, int)
                if not 0 <= a < i:
                    raise ValueError("arg %d is not an earlier node" % a)
                kids.append(nodes[a])
            if kind.arity is not None and len(kids) != kind.arity:
                raise ValueError("needs %d args" % kind.arity)
            nodes.append(kind.parse(entry, kids))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError("bad expression JSON node %d: %s" % (i, err)) from err
    root = _json_number("root", root, int)
    if not 0 <= root < len(nodes):
        raise ValueError("expression JSON root %d is not a node index" % root)
    return nodes[root]


def _pretty(e, depth=0):
    if depth > 4:
        return "..."
    return _KINDS[type(e)].pretty(e, [_pretty(c, depth + 1) for c in e.args])
