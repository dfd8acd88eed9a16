"""Symbolic engine: interning, Wirtinger calculus, implicit radial time."""

import gc
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflck import expr as ex
from hopflck import forms as fm
from hopflck import hopf as hp
from hopflck import verify as vf
from hopflck.sampling import annulus_points

from oracles import fd_wirtinger, implicit_time_reference


def _random_expr(rng, dim=2, depth=3):
    """Random smooth expression with denominators bounded away from zero."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.integers(0, 3)
        if choice == 0:
            return ex.const(complex(rng.normal(), rng.normal()))
        if choice == 1:
            return ex.z(int(rng.integers(1, dim + 1)))
        return ex.zbar(int(rng.integers(1, dim + 1)))
    op = rng.integers(0, 7)
    a = _random_expr(rng, dim, depth - 1)
    b = _random_expr(rng, dim, depth - 1)
    if op == 0:
        return ex.add(a, b)
    if op == 1:
        return ex.sub(a, b)
    if op == 2:
        return ex.mul(a, b)
    if op == 3:
        safe = ex.add(ex.const(1.0), ex.mul(ex.z(1), ex.zbar(1)))
        return ex.div(a, safe)
    if op == 4:
        return ex.intpow(a, int(rng.integers(2, 4)))
    if op == 5:
        return ex.exp(ex.mul(ex.const(0.3), a))
    safe = ex.add(ex.const(1.0), ex.mul(ex.z(2), ex.zbar(2)))
    return ex.log(safe)


class TestInterning:
    def test_identical_constructions_share_nodes(self):
        assert ex.z(1) is ex.z(1)
        assert ex.zbar(2) is ex.zbar(2)
        assert ex.add(ex.z(1), ex.z(2)) is ex.add(ex.z(1), ex.z(2))
        assert ex.exp(ex.z(1)) is ex.exp(ex.z(1))

    def test_constant_folding(self):
        assert ex.add(ex.const(2.0), ex.const(3.0)) is ex.const(5.0)
        assert ex.mul(ex.const(2.0), ex.const(-1j)) is ex.const(-2j)
        assert ex.intpow(ex.const(2.0), 3) is ex.const(8.0)

    def test_identity_elimination(self):
        a = ex.z(1)
        assert ex.add(a, ex.const(0.0)) is a
        assert ex.mul(a, ex.const(1.0)) is a
        assert ex.mul(a, ex.const(0.0)) is ex.const(0.0)
        assert ex.sub(a, a) is ex.const(0.0)
        assert ex.intpow(a, 1) is a
        assert ex.intpow(a, 0) is ex.const(1.0)

    def test_table_shrinks_when_expressions_die(self):
        from hopflck import forms as fm
        from hopflck import hopf as hp
        gc.collect()
        start = len(ex._INTERN)
        grown = []
        for k in range(50):
            entry = hp.build_entry("vaisman", {"r1": 1.0 + 0.01 * (k + 1)})
            d_omega = fm.exterior_d(entry.forms["Omega"])
            grown.append(len(ex._INTERN) - start)
            del entry, d_omega
        gc.collect()
        assert min(grown) > 500  # each entry really built a fresh DAG
        assert len(ex._INTERN) - start <= 20

    def test_flags(self):
        e = ex.mul(ex.z(1), ex.zbar(3))
        assert e.max_index == 3 and e.has_conj and not e.has_implicit
        t = ex.implicit_t((1.0, 2.0))
        assert t.has_implicit and t.max_index == 2


class TestEvaluation:
    def test_operator_sugar_and_values(self):
        e = (ex.z(1) + 1) * 2 - ex.zbar(2) / 2
        val = ex.evaluate(e, (1 + 1j, 4j))
        assert val == pytest.approx((2 + 2j) + 2 - (-4j) / 2)

    def test_power_sugar(self):
        e = ex.z(1) ** 3
        assert ex.evaluate(e, (2j, 0)) == pytest.approx(-8j)
        with pytest.raises(TypeError):
            ex.z(1) ** 0.5

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        e = _random_expr(rng)
        pts = annulus_points(2, 40, seed=1)
        vec = ex.evaluate_many(e, pts)
        for k in range(pts.shape[0]):
            assert vec[k] == pytest.approx(ex.evaluate(e, pts[k]), abs=1e-12)

    def test_division_near_zero(self):
        e = ex.div(ex.const(1.0), ex.z(1))
        with pytest.raises(ex.DivisionNearZero) as info:
            ex.evaluate(e, (0.0, 1.0))
        assert info.value.point == (0.0, 1.0)

    def test_log_branch(self):
        with pytest.raises(ex.LogBranchError):
            ex.evaluate(ex.log(ex.z(1)), (-1.0, 0.0))
        with pytest.raises(ex.LogBranchError):
            ex.evaluate(ex.log(ex.z(1)), (0.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            ex.evaluate(ex.z(3), (1.0, 2.0))


class TestChunkedEvaluation:
    """evaluate_many runs its tape over chunks of ex._CHUNK points."""

    C = ex._CHUNK
    SIZES = (1, C - 1, C, C + 1, 3 * C + 17)
    POINTS = annulus_points(2, 3 * C + 17, seed=21)

    @staticmethod
    def _rational():
        z1, z2, zb1, zb2 = ex.z(1), ex.z(2), ex.zbar(1), ex.zbar(2)
        return (z1 ** 2 * zb2 + 3) / (1 + z1 * zb1) - z2 ** -2

    @staticmethod
    def _implicit():
        t = ex.implicit_t((1.0, 1.5))
        return ex.exp(ex.mul(ex.const(2.0), t)) * ex.z(1) + t

    def _checked_indices(self, m):
        """Both sides of every chunk boundary, the ends, and a sample."""
        near = {k for b in range(0, m + 1, self.C) for k in range(b - 2, b + 2)}
        rng = np.random.default_rng(m)
        sample = set(rng.choice(m, size=min(m, 48), replace=False).tolist())
        return sorted(k for k in near | sample | {m - 1} if 0 <= k < m)

    # The Newton iteration stops once the worst point of a batch is below
    # newton_tol = 1e-12, so a point evaluated alone may stop one step
    # earlier: |dt| < 1e-12 and |d/dt (exp(2t) z1 + t)| < 10 on the annulus.
    @pytest.mark.parametrize("kind, tol", [("rational", 1e-14),
                                           ("implicit", 1e-11)])
    @pytest.mark.parametrize("m", SIZES)
    def test_matches_pointwise_evaluation(self, kind, tol, m):
        e = getattr(self, "_" + kind)()
        pts = self.POINTS[:m]
        vals = ex.evaluate_many(e, pts)
        assert vals.shape == (m,) and vals.dtype == complex
        for lo in range(0, m, self.C):
            part = ex.evaluate_many(e, pts[lo:lo + self.C])
            assert np.array_equal(part, vals[lo:lo + self.C])
        for k in self._checked_indices(m):
            assert abs(vals[k] - ex.evaluate(e, pts[k])) <= tol

    @pytest.mark.parametrize("m", SIZES)
    def test_return_contract(self, m):
        pts = self.POINTS[:m]
        t = ex.evaluate_many(ex.implicit_t((1.0, 1.5)), pts)
        assert t.shape == (m,) and t.dtype == np.float64
        c = ex.evaluate_many(ex.const(2 - 1j), pts)
        assert np.shape(c) == () and c == 2 - 1j

    @staticmethod
    def _deep_sum():
        """z1 + 2 z1 + ... + 3000 z1, a DAG 3000 nodes deep."""
        e = ex.z(1)
        for k in range(2, 3001):
            e = ex.add(e, ex.mul(ex.const(float(k)), ex.z(1)))
        return e

    def test_deep_sum_evaluates_without_recursion(self):
        e = self._deep_sum()
        pts = annulus_points(2, 5, seed=22)
        vals = ex.evaluate_many(e, pts)
        assert np.allclose(vals, 3000 * 3001 / 2 * pts[:, 0], rtol=1e-12)

    def test_deep_sum_walks_without_recursion(self):
        e = self._deep_sum()
        assert ex.wirtinger_d(e, 1) is ex.const(3000 * 3001 / 2)
        assert ex.wirtinger_d(e, 1, conjugate=True) is ex.const(0.0)
        pts = annulus_points(1, 5, seed=23)
        doubled = ex.substitute(e, (ex.mul(ex.const(2.0), ex.z(1)),))
        assert np.allclose(ex.evaluate_many(doubled, pts),
                           3000 * 3001 * pts[:, 0], rtol=1e-12)
        conj = ex.formal_conjugate(e)
        assert np.allclose(ex.evaluate_many(conj, pts),
                           3000 * 3001 / 2 * np.conj(pts[:, 0]), rtol=1e-12)
        assert ex.formal_conjugate(conj) is e
        assert ex.from_json(ex.to_json(e)) is e


class TestWirtinger:
    def test_variable_derivatives(self):
        assert ex.wirtinger_d(ex.z(1), 1) is ex.const(1.0)
        assert ex.wirtinger_d(ex.z(1), 1, conjugate=True) is ex.const(0.0)
        assert ex.wirtinger_d(ex.zbar(1), 1) is ex.const(0.0)
        assert ex.wirtinger_d(ex.zbar(1), 1, conjugate=True) is ex.const(1.0)
        assert ex.wirtinger_d(ex.z(2), 1) is ex.const(0.0)

    def test_product_rule_exact(self):
        e = ex.mul(ex.intpow(ex.z(1), 2), ex.zbar(1))
        d = ex.wirtinger_d(e, 1)
        val = ex.evaluate(d, (1 + 1j, 0))
        expect = 2 * (1 + 1j) * np.conj(1 + 1j)
        assert val == pytest.approx(expect)
        dbar = ex.wirtinger_d(e, 1, conjugate=True)
        assert ex.evaluate(dbar, (1 + 1j, 0)) == pytest.approx((1 + 1j) ** 2)

    def test_chain_rule_exp_log(self):
        zzb = ex.mul(ex.z(1), ex.zbar(1))
        p = (0.7 + 0.2j, 0.5)
        d_exp = ex.wirtinger_d(ex.exp(zzb), 1)
        assert ex.evaluate(d_exp, p) == pytest.approx(
            np.conj(p[0]) * np.exp(p[0] * np.conj(p[0])))
        safe = ex.add(ex.const(1.0), zzb)
        d_log = ex.wirtinger_d(ex.log(safe), 1)
        assert ex.evaluate(d_log, p) == pytest.approx(
            np.conj(p[0]) / (1 + p[0] * np.conj(p[0])))

    def test_repeated_derivative_is_the_interned_node(self):
        e = ex.mul(ex.z(1), ex.exp(ex.z(2)))
        assert ex.wirtinger_d(e, 2) is ex.wirtinger_d(e, 2)

    @given(st.integers(0, 10 ** 6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        e = _random_expr(rng)
        pt = 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))

        def f(q):
            return ex.evaluate(e, q)

        for idx in (1, 2):
            for conj in (False, True):
                sym = ex.evaluate(ex.wirtinger_d(e, idx, conj), pt)
                num = fd_wirtinger(f, pt, idx - 1, conj)
                assert abs(sym - num) < 1e-6 * max(1.0, abs(num))


class TestConjugationSubstitution:
    def test_formal_conjugate_swaps_vars(self):
        e = ex.mul(ex.z(1), ex.add(ex.zbar(2), ex.const(2j)))
        c = ex.formal_conjugate(e)
        pts = annulus_points(2, 10, seed=4)
        vals = ex.evaluate_many(e, pts)
        cvals = ex.evaluate_many(c, pts)
        assert np.max(np.abs(np.conj(vals) - cvals)) < 1e-14
        assert ex.formal_conjugate(c) is e

    def test_substitute_matches_point_transform(self):
        mu = 1.3 - 0.4j
        e = ex.add(ex.mul(ex.z(1), ex.zbar(1)), ex.intpow(ex.z(2), 2))
        sub = ex.substitute(e, (ex.mul(ex.const(mu), ex.z(1)),
                                ex.mul(ex.const(mu), ex.z(2))))
        pts = annulus_points(2, 25, seed=8)
        direct = ex.evaluate_many(e, pts * mu)
        routed = ex.evaluate_many(sub, pts)
        assert np.max(np.abs(direct - routed)) < 1e-12

    def test_substitute_dimension_check(self):
        with pytest.raises(ex.DimensionMismatch):
            ex.substitute(ex.z(2), (ex.z(1),))


class TestImplicitTime:
    def test_defining_relation(self):
        t = ex.implicit_t((1.0, 1.5))
        pts = annulus_points(2, 100, seed=13)
        tv = ex.evaluate_many(t, pts)
        s = np.abs(pts) ** 2
        relation = (s * np.exp(2 * tv[:, None] * np.array([1.0, 1.5]))).sum(
            axis=1)
        assert np.max(np.abs(relation - 1)) < 1e-11

    def test_matches_bisection_oracle(self):
        t = ex.implicit_t((1.0, 1.5))
        pts = annulus_points(2, 20, seed=14)
        tv = ex.evaluate_many(t, pts)
        for k in range(pts.shape[0]):
            ref = implicit_time_reference((1.0, 1.5), pts[k])
            assert abs(tv[k] - ref) < 1e-10

    def test_equal_weights_closed_form(self):
        t = ex.implicit_t((2.0, 2.0))
        pts = annulus_points(2, 50, seed=15)
        tv = ex.evaluate_many(t, pts)
        rho = (np.abs(pts) ** 2).sum(axis=1)
        assert np.max(np.abs(tv + np.log(rho) / 4)) < 1e-12

    def test_zero_on_unit_sphere(self):
        from hopflck.sampling import sphere_points
        t = ex.implicit_t((1.0, 1.5))
        tv = ex.evaluate_many(t, sphere_points(2, 30, 1.0, seed=16))
        assert np.max(np.abs(tv)) < 1e-12

    def test_derivative_matches_finite_differences(self):
        t = ex.implicit_t((1.0, 1.5))

        def f(q):
            return ex.evaluate(t, q)

        pt = (0.8 + 0.1j, 0.6 - 0.3j)
        for idx in (1, 2):
            for conj in (False, True):
                sym = ex.evaluate(ex.wirtinger_d(t, idx, conj), pt)
                num = fd_wirtinger(f, pt, idx - 1, conj)
                assert abs(sym - num) < 1e-8

    def test_self_conjugate_with_default_args(self):
        t = ex.implicit_t((1.0, 1.5))
        assert ex.formal_conjugate(t) is t

    def test_undefined_at_origin(self):
        with pytest.raises(ex.NewtonDivergence):
            ex.evaluate(ex.implicit_t((1.0, 1.0)), (0.0, 0.0))

    def test_newton_settings_follow_the_constants(self, monkeypatch):
        # _apply_implicit reads the constants at call time.
        t = ex.implicit_t((1.0, 2.0))
        assert ex.evaluate(t, (3.0, 0.5)).real < 0
        monkeypatch.setattr(ex, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ex.NewtonDivergence, match="in 1 iterations"):
            ex.evaluate(t, (3.0, 0.5))
        monkeypatch.setattr(ex, "NEWTON_MAX_ITER", 50)
        monkeypatch.setattr(ex, "NEWTON_TOL", 0.0)
        with pytest.raises(ex.NewtonDivergence, match="reach 0 in 50"):
            ex.evaluate(t, (3.0, 0.5))

    @pytest.mark.parametrize("r1", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
    def test_spread_weights_converge(self, r1):
        # The deck generator diag(e^-r) and its inverse take the samples
        # far off the annulus, where F's own Newton step from the old start
        # overflowed or crawled.
        pts = annulus_points(2, ex._CHUNK + 100, seed=17)
        for r2 in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
            r = np.array([r1, r2])
            for power in (-1.0, 0.0, 1.0):
                moved = pts * np.exp(-power * r)
                with np.errstate(over="raise", invalid="raise",
                                 divide="raise"):
                    tv = ex.evaluate_many(ex.implicit_t((r1, r2)), moved)
                s = np.abs(moved) ** 2
                relation = (s * np.exp(2 * tv[:, None] * r)).sum(axis=1)
                assert np.max(np.abs(relation - 1)) < 1e-11, (r2, power)

    def test_four_evaluations_per_chunk_at_the_default_weights(
            self, monkeypatch):
        calls, exp = [], np.exp

        def counted(x, *args, **kwargs):
            calls.append(1)
            return exp(x, *args, **kwargs)

        pts = annulus_points(2, ex._CHUNK, seed=18)
        monkeypatch.setattr(np, "exp", counted)
        ex.evaluate_many(ex.implicit_t((1.0, 1.5)), pts)
        assert len(calls) <= 4 * 2  # one exp per weight and evaluation

    def test_zero_points_give_an_empty_float_array(self):
        tv = ex.evaluate_many(ex.implicit_t((1.0, 2.0)), np.zeros((0, 2)))
        assert tv.shape == (0,) and tv.dtype == np.float64

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ex.implicit_t((1.0,))
        with pytest.raises(ValueError):
            ex.implicit_t((1.0, -2.0))


def _newton_matrix_reference(weights, args, m):
    """t by the (m, n)-array Newton iteration that _apply_implicit replaced:
    row sums of s * growth, with the same start, steps, stop rule and
    budget."""
    r = np.array([complex(w).real for w in weights])
    n = len(r)
    s = np.empty((m, n))
    for k in range(n):
        s[:, k] = np.broadcast_to(np.asarray(args[k] * args[n + k]), (m,)).real
    total = s.sum(axis=1)
    t = -np.log(total) / (2.0 * ((r[None, :] * s).sum(axis=1) / total))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.fmin(t, np.fmin.reduce(np.log(s) / (-2.0 * r[None, :]), axis=1))
    for _ in range(ex.NEWTON_MAX_ITER + 1):
        growth = np.exp(2.0 * t[:, None] * r[None, :])
        f = (s * growth).sum(axis=1) - 1.0
        if np.all(np.abs(f) < ex.NEWTON_TOL):
            return t
        fprime = (2.0 * r[None, :] * s * growth).sum(axis=1)
        t = t - f / fprime
    raise AssertionError("reference Newton did not converge")


class TestTapeKernels:
    """The per-chunk kernels of _Tape: the column-wise Newton solve, one
    magnitude guard per divisor slot, and each slot's last consumer, after
    which its storage is free for reuse."""

    WEIGHTS = (1.0, 1.5, 2.5, 0.7, 3.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, ex._CHUNK, ex._CHUNK + 1])
    @pytest.mark.parametrize("as_params", [False, True])
    def test_newton_equals_matrix_formulation(self, n, m, as_params):
        weights = self.WEIGHTS[:n]
        names = ["r%d" % k for k in range(n)]
        t = ex.implicit_t([ex.param(a) for a in names] if as_params
                          else weights)
        pts = annulus_points(n, m, seed=40 + n)
        args = ([pts[:, k] for k in range(n)]
                + [np.conj(pts[:, k]) for k in range(n)])
        bound = [complex(w) for w in weights] if as_params else []
        want = _newton_matrix_reference(weights, args, m)
        got = ex._apply_implicit(t, args + bound, pts)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        # Through a tape the solve runs, and stops, chunk by chunk.
        binding = dict(zip(names, weights)) if as_params else None
        chunked = np.concatenate([
            _newton_matrix_reference(weights, [a[lo:lo + ex._CHUNK]
                                               for a in args],
                                     min(ex._CHUNK, m - lo))
            for lo in range(0, m, ex._CHUNK)])
        assert np.array_equal(ex._Tape([t]).values(pts, binding)[0], chunked)

    def test_vaisman_suite_guards_each_divisor_once(self):
        entry = hp.build_entry("vaisman")
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        # The identities' own tape divides; the suite's tape has the proven
        # identities' divisor guards and the divisions of the definiteness
        # check, value-numbered, so that a pulled-back denominator equal to
        # an unmoved one is that one.  A division is a guard of its
        # divisor's slot, unless that slot has one already, and a bare
        # quotient.
        for tape, counts in ((suite.cross_check.tape, (64, 7)),
                             (suite.requests.tape, (10, 4))):
            ops = [(i, rule, node, kids) for i, (rule, node, kids)
                   in enumerate(tape.ops) if isinstance(node, ex.Div)]
            guards = [(i, node, kids[0]) for i, rule, node, kids in ops
                      if rule is ex._check_divisor]
            quotients = [(i, node, kids[1]) for i, rule, node, kids in ops
                         if rule is ex._apply_quotient]
            assert len(ops) == len(guards) + len(quotients)
            assert (len(quotients), len(guards)) == counts
            guarded = {den: i for i, _, den in guards}
            assert len(guarded) == len(guards)  # one guard per slot
            first = {}
            for i, node, den in quotients:
                first.setdefault(den, (i, node))
                assert guarded[den] < i
            # A guard tests a divisor in the group of a checked root, which
            # divides by nothing, or comes just before the first division
            # by its slot.
            for i, node, den in guards:
                if [s for start, stop, s, _ in tape.groups
                        if start <= i < stop] != [None]:
                    assert first[den] == (i + 1, node)

    def test_frees_drop_each_slot_after_its_last_consumer(self):
        z1, zb1 = ex.z(1), ex.zbar(1)
        sq = ex.mul(z1, z1)
        a, b = ex.add(sq, zb1), ex.div(sq, ex.add(zb1, 2.0))
        tape = ex._Tape([a, b])
        freed = [s for f in tape.frees for s in f]
        assert len(freed) == len(set(freed))
        assert not set(freed) & set(tape.roots)
        # Every slot but the roots is freed after the last op that reads it;
        # a guard's slot, which nothing reads, is the only one unread.
        unread = []
        for s in range(len(tape.ops)):
            readers = [i for i, (_, _, kids) in enumerate(tape.ops)
                       if s in kids]
            if s in tape.roots:
                continue
            if readers:
                assert s in tape.frees[max(readers)]
            else:
                unread.append(s)
        assert [tape.ops[s][0] for s in unread] == [ex._check_divisor]
        assert not set(unread) & set(freed)

    @pytest.mark.parametrize("checked", [0, 1])
    def test_checked_and_ordinary_root_share_one_divisor_guard(self, checked):
        den = ex.add(ex.z(1), ex.const(3.0))
        roots = [ex.div(ex.z(2), den), ex.div(ex.zbar(2), den)]
        tape = ex._Tape(roots, {checked})
        rules = [rule for rule, _, _ in tape.ops]
        assert rules.count(ex._check_divisor) == 1
        assert rules.count(ex._apply_quotient) == 1
        pts = annulus_points(2, 100, seed=7)
        calls = []
        assert tape.run(pts, lambda lo, k, v: calls.append((k, v))) is None
        ordinary = 1 - checked
        assert [k for k, _ in calls] == [ordinary]
        assert _same_bits(calls[0][1], _reference_values(
            [roots[ordinary]], pts, {})[0])
        # A zero divisor fails the first root, checked or not.
        pts[40, 0] = -3.0
        failure = tape.run(pts, lambda *_: None)
        assert failure.root == 0
        assert isinstance(failure.cause, ex.DivisionNearZero)
        assert failure.cause.point == tuple(pts[40])

    # Two coefficients divide by the same z1 - 0.5, which vanishes at point
    # k (second chunk); only the first division on that slot tests it.  In
    # the second layout the later coefficient also divides by z2, which
    # vanishes in the first chunk, so it fails first in time but the earlier
    # coefficient is named.  The expectations are those of the tape that
    # tested every division.
    @pytest.mark.parametrize("layout", ["shared", "later_fails_first"])
    def test_shared_divisor_failure_names_the_same_root(self, layout):
        z1, z2, zb2 = ex.z(1), ex.z(2), ex.zbar(2)
        den = ex.sub(z1, 0.5)
        later = ex.div(ex.mul(z1, z2), den)
        if layout == "later_fails_first":
            later = ex.add(later, ex.div(1.0, z2))
        a = fm.form_from_terms(2, 1, {(0,): z2, (1,): ex.div(zb2, den),
                                      (3,): later})
        pts = np.tile(np.array([0.6, 0.8], dtype=complex),
                      (2 * ex._CHUNK, 1))
        k = ex._CHUNK + 17
        pts[k] = (0.5, 0.8)
        pts[3] = (0.6, 0.0)
        with pytest.raises(fm.FormEvaluationError) as info:
            fm.evaluate_form_many(a, pts)
        assert info.value.index == (1,)
        assert isinstance(info.value.cause, ex.DivisionNearZero)
        assert info.value.cause.point == (0.5, 0.8)
        assert str(info.value) == (
            "term (1,): divisor magnitude below 1e-14 at point "
            "((0.5+0j), (0.8+0j))")


# Python's operators: numpy's ufuncs on arrays, Python arithmetic on scalars.
_OPERATORS = {ex.Add: operator.add, ex.Sub: operator.sub,
              ex.Mul: operator.mul, ex.Div: operator.truediv}


def _reference_values(roots, pts, binding):
    """Each root's values by a plain walk over the nodes: one fresh numpy
    array per node, no slots, arena or in-place writes."""
    vals = {}
    for root in roots:
        for node in ex._post_order(root, vals.__contains__):
            v = [vals[c] for c in node.args]
            kind = type(node)
            if kind is ex.Const:
                vals[node] = node.value
            elif kind is ex.Param:
                vals[node] = complex(float(binding[node.name]))
            elif kind in (ex.Var, ex.ConjVar):
                col = pts[:, node.index - 1]
                vals[node] = col if kind is ex.Var else np.conj(col)
            elif kind in _OPERATORS:
                vals[node] = _OPERATORS[kind](*v)
            elif kind is ex.IntPow:
                vals[node] = v[0] ** node.power
            elif kind in (ex.Exp, ex.Log):
                vals[node] = (np.exp if kind is ex.Exp else np.log)(v[0])
            else:
                vals[node] = ex._apply_implicit(node, v, pts)
    return [vals[r] for r in roots]


def _chunked_reference(roots, pts, binding):
    """_reference_values chunk by chunk, as the tape's Newton stop is."""
    m = pts.shape[0]
    parts = [_reference_values(roots, pts[lo:lo + ex._CHUNK], binding)
             for lo in range(0, max(m, 1), ex._CHUNK)]
    return [p[0] if m <= ex._CHUNK or np.ndim(p[0]) == 0
            else np.concatenate(p) for p in zip(*parts)]


def _same_bits(got, want):
    if np.shape(got) != np.shape(want):
        return False
    got, want = (np.ascontiguousarray(np.atleast_1d(x)) for x in (got, want))
    return (got.dtype == want.dtype
            and np.array_equal(got.view(float), want.view(float),
                               equal_nan=True)
            and got.tobytes() == want.tobytes())


def _random_dag(rng):
    """Roots over a random DAG with shared subterms: complex and t-valued
    (float64) slots, params, scalar x array operations, and divisors that
    stay away from zero, some of them shared."""
    t = ex.implicit_t((1.0, ex.param("r")))
    pool = [ex.z(1), ex.z(2), ex.zbar(1), ex.zbar(2), t,
            ex.mul(t, t), ex.exp(ex.mul(ex.const(0.5), t)),
            ex.mul(ex.param("p"), ex.const(0.5 - 1j)),
            ex.const(complex(rng.normal(), rng.normal()))]
    safe = [ex.add(ex.const(1.0), ex.mul(ex.z(1), ex.zbar(1))),
            ex.exp(t), ex.add(ex.const(2.0), t)]
    for _ in range(int(rng.integers(5, 40))):
        a, b = (pool[int(k)] for k in rng.integers(0, len(pool), size=2))
        op = int(rng.integers(0, 8))
        if op < 3:
            node = (ex.add, ex.sub, ex.mul)[op](a, b)
        elif op == 3:
            node = ex.div(a, safe[int(rng.integers(0, len(safe)))])
        elif op == 4:
            node = ex.intpow(a, int(rng.integers(2, 4)))
        elif op == 5:
            node = ex.exp(ex.mul(ex.const(0.1), a))
        elif op == 6:
            node = ex.mul(t, a)  # float64 x anything
        else:
            node = ex.log(safe[int(rng.integers(0, len(safe)))])
        pool.append(node)
    picks = rng.integers(0, len(pool), size=int(rng.integers(1, 6)))
    return [pool[int(k)] for k in picks]


class TestTapeBits:
    """The tape writes into dying operands and reuses one arena per run;
    every value must keep the bits of a plain per-node evaluation."""

    BINDING = {"r": 1.5, "p": 0.7}
    C = ex._CHUNK
    POINTS = annulus_points(2, 2 * C + 5, seed=50)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m", [0, 1, 2, 7, C, C + 1, 2 * C + 5])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_dags_match_the_reference(self, m, seed):
        roots = _random_dag(np.random.default_rng(seed))
        pts = self.POINTS[:m]
        want = _chunked_reference(roots, pts, self.BINDING)
        got = ex._Tape(roots).values(pts, self.BINDING)
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    def test_random_dags_use_every_placement(self):
        # The property above covers in-place writes, the arena and fresh
        # roots, float64 arena buffers included.
        kinds, types = set(), set()
        for seed in range(40):
            tape = ex._Tape(_random_dag(np.random.default_rng(seed)))
            n = len(tape.plan)
            for i, (_, _, b, out) in enumerate(tape.plan):
                kinds.add("fresh" if out == -1 else
                          "in place" if out < n else "arena")
            types.update(tape.arena)
        assert kinds == {"fresh", "in place", "arena"}
        assert types == {float, complex}

    def test_one_point_chunks_keep_the_bits_of_fresh_products(self):
        # An in-place complex product of 1-element arrays would round
        # otherwise than a fresh one at about half of these points.
        e = ex.mul(ex.mul(ex.mul(ex.z(1), ex.zbar(2)), ex.const(0.3 - 1.7j)),
                   ex.add(ex.z(2), ex.const(1.0)))
        tape = ex._Tape([e])
        for k in range(64):
            pts = self.POINTS[k:k + 1]
            assert _same_bits(tape.values(pts)[0],
                              _reference_values([e], pts, {})[0])
        pts = self.POINTS[:self.C + 1]
        assert _same_bits(tape.values(pts)[0],
                          _chunked_reference([e], pts, {})[0])

    def test_points_are_never_written(self):
        z1, zb1, z2 = ex.z(1), ex.zbar(1), ex.z(2)
        roots = [ex.mul(ex.add(z1, zb1), ex.sub(z2, z1)), z1,
                 ex.exp(ex.mul(z2, ex.const(0.5))), ex.div(z2, ex.add(z1, 3.0))]
        pts = self.POINTS.copy()
        pts.flags.writeable = False  # a write would raise
        before = pts.tobytes()
        ex._Tape(roots).values(pts)
        assert pts.tobytes() == before

    def test_one_chunk_result_survives_a_later_run(self):
        t = ex.implicit_t((1.0, 1.5))
        roots = [ex.mul(ex.add(ex.z(1), t), ex.zbar(2)), t,
                 ex.add(ex.mul(ex.z(1), ex.z(1)), ex.const(1j))]
        tape = ex._Tape(roots)
        first = tape.values(self.POINTS[:100])
        kept = [v.copy() for v in first]
        tape.values(self.POINTS[100:200])
        tape.values(self.POINTS)
        assert all(_same_bits(a, b) for a, b in zip(first, kept))

    def test_division_failure_in_chunk_two(self):
        z1, z2 = ex.z(1), ex.z(2)
        roots = [ex.mul(ex.add(z1, z2), z2),
                 ex.add(ex.div(ex.mul(z1, z2), ex.sub(z1, 0.5)), z2),
                 ex.mul(z1, z1)]
        pts = self.POINTS.copy()
        k = self.C + 17
        pts[k] = (0.5, 0.8)
        calls = []
        failure = ex._Tape(roots).run(
            pts, lambda lo, j, v: calls.append((lo, j, v.copy())))
        assert failure.root == 1
        assert isinstance(failure.cause, ex.DivisionNearZero)
        assert failure.cause.point == (0.5, 0.8)
        # Every root of the first chunk; from the failing chunk on, only
        # the roots before the failing one.
        assert [(lo, j) for lo, j, _ in calls] == [
            (0, 0), (0, 1), (0, 2), (self.C, 0), (2 * self.C, 0)]
        for lo, j, v in calls:
            want = _reference_values([roots[j]], pts[lo:lo + self.C], {})[0]
            assert _same_bits(v, want)

    def test_a_slots_later_negative_power_and_log_skip_its_check(self):
        # The second negative power of a base, and a log whose argument a
        # checked root has tested, get no second guard.
        base = ex.add(ex.z(1), ex.const(3.0))
        lg = ex.log(ex.add(ex.z(2), ex.const(2.0 + 1j)))
        roots = [ex.mul(lg, ex.z(1)), ex.intpow(base, -1),
                 ex.add(ex.intpow(base, -2), ex.mul(lg, ex.zbar(1)))]
        tape = ex._Tape(roots, checked={0})
        rules = [rule for rule, _, _ in tape.ops]
        assert rules.count(ex._check_base) == 1
        assert rules.count(ex._check_log) == 1
        assert rules.count(ex._apply_power) == 2
        assert rules.count(ex._apply_logarithm) == 1
        assert rules.index(ex._check_base) < rules.index(ex._apply_power)
        assert rules.index(ex._check_log) < rules.index(ex._apply_logarithm)
        calls = []
        assert tape.run(self.POINTS, lambda lo, k, v: calls.append((k, v))) \
            is None
        for k in (1, 2):
            got = np.concatenate([v for j, v in calls if j == k])
            want = _chunked_reference([roots[k]], self.POINTS, {})[0]
            assert _same_bits(got, want)
        # A zero base or log argument still fails at the guarded operation,
        # the first on the tape, with the point the unchecked tape names.
        at = self.C + 17
        cases = [(0, -3.0, 1, ex.DivisionNearZero),
                 (1, -2.0 - 1j, 0, ex.LogBranchError)]
        for column, value, root, error in cases:
            pts = self.POINTS.copy()
            pts[at, column] = value
            got = tape.run(pts, lambda *_: None)
            want = ex._Tape(roots).run(pts, lambda *_: None)
            assert (got.root, type(got.cause)) == (root, error)
            assert got.cause.point == want.cause.point == tuple(pts[at])

    def test_two_bindings_back_to_back(self):
        t = ex.implicit_t((ex.param("r"), 2.0))
        roots = [ex.mul(ex.mul(ex.param("p"), ex.z(1)), ex.exp(t)),
                 ex.sub(t, ex.mul(ex.param("p"), t))]
        tape = ex._Tape(roots)
        bindings = [{"r": 1.0, "p": 0.5}, {"r": 0.4, "p": -2.0}]
        for pts in (self.POINTS[:300], self.POINTS):
            got = [tape.values(pts, b) for b in bindings + bindings[:1]]
            for b, vals in zip(bindings + bindings[:1], got):
                want = _chunked_reference(roots, pts, b)
                assert all(_same_bits(g, w) for g, w in zip(vals, want))


def _failing_roots(rng, pts):
    """Up to three roots that fail at one chosen point each: a division, a
    negative power or a log whose operand is exactly 0 there, or an
    implicit time of radius 0 there, bare or inside a larger expression."""
    roots = []
    for _ in range(int(rng.integers(0, 4))):
        j = int(rng.integers(0, len(pts)))
        c1, c2 = (complex(c) for c in pts[j])
        zero = ex.sub(ex.z(1), ex.const(c1))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            bad = ex.div(ex.z(2), zero)
        elif kind == 1:
            bad = ex.intpow(zero, -int(rng.integers(1, 3)))
        elif kind == 2:
            bad = ex.log(zero)
        else:  # the implicit time of w = z - z_j: zero radius at z_j
            bad = ex.implicit_t(
                (1.0, 2.0), (zero, ex.sub(ex.z(2), c2)),
                (ex.sub(ex.zbar(1), c1.conjugate()),
                 ex.sub(ex.zbar(2), c2.conjugate())))
        if rng.random() < 0.5:
            bad = ex.mul(ex.add(bad, ex.zbar(2)), ex.z(1))
        roots.append(bad)
    return roots


class TestCheckedRoots:
    """A checked root fails where the root itself would: same root, error
    and point; the other roots are handed on as from the full tape."""

    BINDING = {"r": 1.5, "p": 0.7}
    C = ex._CHUNK
    POINTS = annulus_points(2, 2 * C + 5, seed=52)

    @staticmethod
    def _run(tape, pts, binding):
        calls = []
        failure = tape.run(pts, lambda lo, k, v: calls.append((lo, k, v)),
                           binding)
        return failure, calls

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 7, C + 1, 2 * C + 5])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_dags_fail_as_unchecked(self, m, seed):
        rng = np.random.default_rng(seed)
        pts = self.POINTS[:m]
        roots = _random_dag(rng) + _failing_roots(rng, pts)
        rng.shuffle(roots)
        checked = {k for k in range(len(roots)) if rng.random() < 0.5}
        want, full = self._run(ex._Tape(roots), pts, self.BINDING)
        tape = ex._Tape(roots, checked)
        got, calls = self._run(tape, pts, self.BINDING)
        assert [tape.roots[k] is None for k in range(len(roots))] == [
            k in checked for k in range(len(roots))]
        assert (want is None) == (got is None)
        if want is not None:
            assert got.root == want.root
            assert type(got.cause) is type(want.cause)
            assert str(got.cause) == str(want.cause)
        # The consumer sees every other root, chunk for chunk, and no check.
        expected = [(lo, k, v) for lo, k, v in full if k not in checked]
        assert [(lo, k) for lo, k, _ in calls] == [
            (lo, k) for lo, k, _ in expected]
        assert all(_same_bits(g, w) for (_, _, g), (_, _, w)
                   in zip(calls, expected))

    def test_checks_are_the_fewest_operations(self):
        # A checked root keeps only its divisor's operations and the check;
        # an implicit time is computed, since evaluating it is its test.
        z1, z2 = ex.z(1), ex.z(2)
        t = ex.implicit_t((1.0, 2.0))
        den = ex.add(ex.mul(z1, z1), ex.const(1.0))
        root = ex.mul(ex.div(ex.mul(z2, z2), den), ex.exp(t))
        tape = ex._Tape([root, ex.div(z2, den)], {0})
        rules = [rule for rule, _, _ in tape.ops]
        assert rules[:tape.groups[1][0]] == [
            ex._KINDS[ex.Var].apply, ex._KINDS[ex.Mul].apply,
            ex._KINDS[ex.Const].apply, ex._KINDS[ex.Add].apply,
            ex._check_divisor, ex._KINDS[ex.Var].apply,
            ex._KINDS[ex.ConjVar].apply, ex._KINDS[ex.ConjVar].apply,
            ex._apply_implicit]
        # The later division by the checked divisor divides plainly.
        assert rules[-1] is ex._apply_quotient
        assert tape.roots[0] is None and tape.groups[0][2] is None


# ---------------------------------------------------------------------------
# Exact evaluation mod p
# ---------------------------------------------------------------------------

P = ex.MODULAR_PRIME


def _mod(q):
    """A Gaussian rational (re, im) of Fractions mod p."""
    re, im = ((f.numerator * pow(f.denominator, -1, P)) % P for f in q)
    return (re + ex._I_MOD * im) % P


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return None if norm == 0 else (a[0] / norm, -a[1] / norm)


def _fraction_values(roots, point):
    """Each root's exact value at a point of Gaussian rationals, or None
    where a divisor or negative-power base is 0."""
    vals = {}
    for root in roots:
        for node in ex._post_order(root, vals.__contains__):
            v = [vals[c] for c in node.args]
            kind = type(node)
            if None in v:
                vals[node] = None
            elif kind is ex.Const:
                vals[node] = (Fraction(node.value.real),
                              Fraction(node.value.imag))
            elif kind is ex.Var:
                vals[node] = point[node.index - 1]
            elif kind is ex.ConjVar:
                re, im = point[node.index - 1]
                vals[node] = (re, -im)
            elif kind is ex.Add:
                vals[node] = (v[0][0] + v[1][0], v[0][1] + v[1][1])
            elif kind is ex.Sub:
                vals[node] = (v[0][0] - v[1][0], v[0][1] - v[1][1])
            elif kind is ex.Mul:
                vals[node] = _gauss_mul(*v)
            elif kind is ex.Div:
                inv = _gauss_inv(v[1])
                vals[node] = None if inv is None else _gauss_mul(v[0], inv)
            else:
                base = v[0] if node.power > 0 else _gauss_inv(v[0])
                value = (Fraction(1), Fraction(0))
                for _ in range(abs(node.power)):
                    value = None if base is None else _gauss_mul(value, base)
                vals[node] = value
    return [vals[r] for r in roots]


def _dyadic(rng):
    return float(Fraction(int(rng.integers(-40, 41)),
                          2 ** int(rng.integers(0, 6))))


def _rational_dag(rng):
    """Roots over dyadic constants, z_i and zbar_i with + - * / and
    integer powers of either sign."""
    pool = [ex.z(1), ex.z(2), ex.zbar(1), ex.zbar(2),
            ex.const(complex(_dyadic(rng), _dyadic(rng)))]
    for _ in range(int(rng.integers(3, 14))):
        a, b = (pool[int(k)] for k in rng.integers(0, len(pool), size=2))
        op = int(rng.integers(0, 6))
        try:
            if op < 4:
                node = (ex.add, ex.sub, ex.mul, ex.div)[op](a, b)
            elif op == 4:
                node = ex.intpow(a, int(rng.choice([-3, -2, -1, 2, 3])))
            else:
                node = ex.mul(a, ex.const(complex(_dyadic(rng), 0.0)))
        except ValueError:  # a structural zero divided by or inverted
            continue
        pool.append(node)
    picks = rng.integers(0, len(pool), size=int(rng.integers(1, 5)))
    return [pool[int(k)] for k in picks]


class TestModular:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_residues_are_exact_values_mod_p(self, seed):
        rng = np.random.default_rng(seed)
        roots = _rational_dag(rng)
        # Small integers make a zero divisor likely now and then.
        point = [(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                  Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
                 for _ in range(2)]
        symbols = {ex.z(i + 1): _mod(q) for i, q in enumerate(point)}
        symbols.update({ex.zbar(i + 1): _mod((q[0], -q[1]))
                        for i, q in enumerate(point)})
        got, _ = ex._Tape(roots).modular(symbols.__getitem__)
        want = _fraction_values(roots, point)
        assert got == [None if w is None else _mod(w) for w in want]

    def test_constants_are_exact(self):
        c = 0.1 - 2.75j  # 0.1 is the nearest double, not 1/10
        got, _ = ex._Tape([ex.const(c)]).modular(None)
        assert got == [_mod((Fraction(c.real), Fraction(c.imag)))]
        assert ex._I_MOD ** 2 % P == P - 1 and P % 4 == 1
        assert ex._Tape([ex.const(math.inf)]).modular(None)[0] == [None]

    @pytest.mark.parametrize("make,degree", [
        (lambda z1, z2: ex.const(3.0), 0),
        (lambda z1, z2: z1, 1),
        (lambda z1, z2: ex.mul(z1, ex.zbar(2)), 2),
        (lambda z1, z2: ex.intpow(ex.add(z1, z2), 3), 3),
        (lambda z1, z2: ex.div(z1, ex.add(z2, 1.0)), 1),
        (lambda z1, z2: ex.intpow(z1, -2), 0),
        (lambda z1, z2: ex.add(ex.div(z1, z2), ex.div(z2, z1)), 2),
        (lambda z1, z2: ex.div(ex.mul(z1, z1), ex.sub(z1, z2)), 2),
        (lambda z1, z2: ex.mul(ex.exp(z1), ex.intpow(z2, 2)), 3),
        (lambda z1, z2: ex.sub(ex.intpow(ex.implicit_t((1.0, 2.0)), 2),
                               ex.param("r")), 2),
    ])
    def test_degree_bounds_the_numerator(self, make, degree):
        # Each numerator has exactly this total degree in its unknowns.
        _, got = ex._Tape([make(ex.z(1), ex.z(2))]).modular(lambda node: 1)
        assert got == [degree]

    def test_degree_is_an_upper_bound(self):
        # (z1^2 - z2^2) / (z1 - z2) is z1 + z2, of degree 1; the bound,
        # which does not cancel, is 2.
        z1, z2 = ex.z(1), ex.z(2)
        e = ex.div(ex.sub(ex.mul(z1, z1), ex.mul(z2, z2)), ex.sub(z1, z2))
        assert ex._Tape([e]).modular(lambda node: 1)[1] == [2]

    def test_zero_divisor_is_not_proven(self):
        z1, z2 = ex.z(1), ex.z(2)
        # A divisor that is 0 for these residues only: that trial fails.
        e = ex.div(ex.const(1.0), ex.sub(z1, z2))
        assert ex._Tape([e]).modular(lambda node: 5)[0] == [None]
        # z1 z2 - z2 z1 is 0 for all residues: it vanishes, and a root
        # that divides by it is not proven, though its value is 0 wherever
        # it is defined.
        zero = ex.sub(ex.mul(z1, z2), ex.mul(z2, z1))
        vanished, _ = ex._Tape([zero, ex.div(zero, zero),
                                ex.sub(ex.div(zero, zero), ex.const(1.0)),
                                ex.sub(z1, z2)]).prove()
        assert vanished == [True, False, False, False]

    def test_proof_is_seeded(self):
        z1 = ex.z(1)
        tape = ex._Tape([ex.sub(ex.intpow(ex.add(z1, 1.0), 2),
                                ex.add(ex.mul(z1, z1),
                                       ex.add(ex.mul(2.0, z1), 1.0))),
                         ex.sub(z1, ex.zbar(1))])
        assert tape.prove() == ([True, False], [2, 1])
        assert tape.prove() == tape.prove()


class TestParam:
    PTS = annulus_points(2, 50, seed=31)

    def test_leaf_is_interned_real_and_constant(self):
        r = ex.param("r")
        assert r is ex.param("r") and r is not ex.param("s")
        assert r.max_index == 0 and not r.has_conj and not r.has_implicit
        assert ex.formal_conjugate(r) is r
        assert ex.wirtinger_d(ex.mul(r, ex.z(1)), 1) is r
        assert ex.wirtinger_d(r, 1, True) is ex.const(0.0)
        with pytest.raises(ValueError, match="non-empty string"):
            ex.param("")

    def test_unbound_param_named_in_error(self):
        e = ex.add(ex.z(1), ex.mul(ex.param("weight_a"), ex.zbar(2)))
        with pytest.raises(ex.UnboundParam, match="param 'weight_a' is not bound"):
            ex.evaluate_many(e, self.PTS)
        with pytest.raises(ex.UnboundParam, match="'weight_a'"):
            ex._Tape([e]).values(self.PTS, {"other": 1.0})

    def test_one_tape_takes_any_binding(self):
        e = ex.mul(ex.add(ex.param("a"), ex.mul(ex.const(1j), ex.param("b"))),
                   ex.z(1))
        tape = ex._Tape([e])
        for a, b in ((2.0, 0.5), (-1.0, 3.0), (2.0, 0.5)):
            got = tape.values(self.PTS, {"a": a, "b": b})[0]
            assert np.array_equal(got, complex(a, b) * self.PTS[:, 0])

    def test_bound_template_equals_folded_constants_bit_for_bit(self):
        # 2 r and r (z1 zbar1) over params against the folded constants.
        def build(r):
            return ex.add(ex.mul(ex.mul(2.0, r), ex.z(1)),
                          ex.mul(r, ex.mul(ex.z(1), ex.zbar(1))))
        template = build(ex.param("r"))
        for r in (1.0, 0.37, 2.5):
            want = ex.evaluate_many(build(r), self.PTS)
            got = ex._Tape([template]).values(self.PTS, {"r": r})[0]
            assert np.array_equal(got, want)

    def test_implicit_time_with_param_weights(self):
        r1, r2 = ex.param("r1"), ex.param("r2")
        t = ex.implicit_t((r1, r2))
        assert t.args[4:] == (r1, r2) and t.weights == (r1, r2)
        assert ex.formal_conjugate(t) is t
        mixed = ex.implicit_t((1.0, r2))
        assert mixed.args[4:] == (r2,) and mixed.weights == (1.0, r2)
        for w in ((1.0, 1.5), (0.7, 2.3)):
            binding = {"r1": w[0], "r2": w[1]}
            numeric = ex.implicit_t(w)
            for index, conj in ((None, None), (1, False), (2, True)):
                a, b = t, numeric
                if index is not None:
                    a = ex.wirtinger_d(t, index, conj)
                    b = ex.wirtinger_d(numeric, index, conj)
                assert np.array_equal(ex._Tape([a]).values(self.PTS, binding)[0],
                                      ex.evaluate_many(b, self.PTS))
        with pytest.raises(ex.NewtonDivergence, match="positive"):
            ex._Tape([t]).values(self.PTS, {"r1": 1.0, "r2": -2.0})

    def test_param_weights_round_trip_through_json(self):
        t = ex.implicit_t((1.0, ex.param("r2")))
        table = ex.to_json(t)
        assert table["nodes"][-1] == {"op": "implicit_t", "weights": [1.0, None],
                                      "args": [0, 1, 2, 3, 4]}
        assert table["nodes"][4] == {"op": "param", "name": "r2"}
        assert ex.from_json(json.loads(json.dumps(table))) is t
        table["nodes"][-1]["args"] = [0, 1, 2, 3]
        with pytest.raises(ValueError, match="needs 5 args"):
            ex.from_json(table)


class TestJson:
    @pytest.mark.parametrize("builder", [
        lambda: ex.const(1.5 - 2j),
        lambda: ex.mul(ex.z(1), ex.zbar(2)),
        lambda: ex.intpow(ex.add(ex.z(1), ex.const(1.0)), 3),
        lambda: ex.exp(ex.log(ex.add(ex.const(1.0),
                                     ex.mul(ex.z(1), ex.zbar(1))))),
        lambda: ex.implicit_t((1.0, 1.5)),
        lambda: ex.implicit_t((2.0, 3.0),
                              z_args=(ex.mul(ex.const(2.0), ex.z(1)),
                                      ex.z(2))),
        lambda: ex.formal_conjugate(
            ex.implicit_t((2.0, 3.0), z_args=(ex.mul(ex.const(2.0), ex.z(1)),
                                              ex.z(2)))),
        lambda: ex.implicit_t((1.0, 1.5, 2.5)),
    ])
    def test_round_trip_is_identity(self, builder):
        e = builder()
        assert ex.from_json(ex.to_json(e)) is e

    def test_table_has_one_entry_per_node(self):
        zz = ex.mul(ex.z(1), ex.zbar(1))
        e = ex.div(ex.exp(zz), ex.add(ex.const(1.0), zz))
        table = ex.to_json(e)
        ops = [node["op"] for node in table["nodes"]]
        assert sorted(ops) == sorted(["z", "zbar", "mul", "exp", "const",
                                      "add", "div"])
        assert table["root"] == len(ops) - 1
        for k, node in enumerate(table["nodes"]):
            assert all(0 <= a < k for a in node.get("args", []))

    Z1 = {"op": "z", "index": 1}

    @pytest.mark.parametrize("obj", [
        pytest.param({"op": "wat"}, id="not-a-table"),
        pytest.param([], id="not-an-object"),
        pytest.param({"nodes": {}, "root": 0}, id="nodes-not-a-list"),
        pytest.param({"nodes": [Z1]}, id="missing-root"),
        pytest.param({"nodes": [], "root": 0}, id="empty"),
        pytest.param({"nodes": [Z1], "root": 1}, id="root-out-of-range"),
        pytest.param({"nodes": [Z1], "root": 0.5}, id="root-non-integral"),
        pytest.param({"nodes": ["z"], "root": 0}, id="node-not-an-object"),
        pytest.param({"nodes": [{"index": 1}], "root": 0}, id="missing-op"),
        pytest.param({"nodes": [{"op": "wat"}], "root": 0}, id="unknown-op"),
        pytest.param({"nodes": [{"op": "z"}], "root": 0}, id="missing-index"),
        pytest.param({"nodes": [{"op": "z", "index": 1.5}], "root": 0},
                     id="non-integral-index"),
        pytest.param({"nodes": [{"op": "zbar", "index": True}], "root": 0},
                     id="boolean-index"),
        pytest.param({"nodes": [{"op": "z", "index": 0}], "root": 0},
                     id="zero-index"),
        pytest.param({"nodes": [{"op": "const", "value": 3}], "root": 0},
                     id="const-not-a-pair"),
        pytest.param({"nodes": [{"op": "const", "value": ["1", 0]}],
                      "root": 0}, id="const-not-numbers"),
        pytest.param({"nodes": [Z1, {"op": "pow", "value": 1.5, "args": [0]}],
                      "root": 1}, id="non-integral-power"),
        pytest.param({"nodes": [Z1, {"op": "pow", "args": [0]}], "root": 1},
                     id="missing-power"),
        pytest.param({"nodes": [Z1, {"op": "add", "args": [0]}], "root": 1},
                     id="too-few-args"),
        pytest.param({"nodes": [Z1, {"op": "exp", "args": [0, 0]}],
                      "root": 1}, id="too-many-args"),
        pytest.param({"nodes": [{"op": "exp", "args": [0]}], "root": 0},
                     id="arg-is-itself"),
        pytest.param({"nodes": [{"op": "exp", "args": [1]}, Z1], "root": 0},
                     id="arg-is-later"),
        pytest.param({"nodes": [Z1, {"op": "exp", "args": [-1]}], "root": 1},
                     id="arg-negative"),
        pytest.param({"nodes": [Z1, {"op": "exp", "args": ["0"]}], "root": 1},
                     id="arg-not-a-number"),
        pytest.param({"nodes": [Z1, {"op": "implicit_t", "weights": [1, 2],
                                     "args": [0, 0, 0]}], "root": 1},
                     id="implicit-wrong-arity"),
        pytest.param({"nodes": [Z1, {"op": "implicit_t", "weights": [1, 2],
                                     "newton_max_iter": 7.5,
                                     "args": [0, 0, 0, 0]}], "root": 1},
                     id="non-integral-newton-max-iter"),
        pytest.param({"nodes": [Z1, {"op": "implicit_t", "weights": 3,
                                     "args": [0, 0]}], "root": 1},
                     id="weights-not-a-list"),
    ])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            ex.from_json(obj)

    # An implicit_t entry may carry newton_tol and newton_max_iter; the table
    # loads only when they equal the module constants.
    WITH_SETTINGS = {"nodes": [{"op": "z", "index": 1},
                               {"op": "z", "index": 2},
                               {"op": "zbar", "index": 1},
                               {"op": "zbar", "index": 2},
                               {"op": "implicit_t", "weights": [1.0, 1.5],
                                "newton_tol": 1e-12, "newton_max_iter": 50,
                                "args": [0, 1, 2, 3]}], "root": 4}

    def test_table_with_constant_newton_settings_loads(self):
        assert ex.from_json(self.WITH_SETTINGS) is ex.implicit_t((1.0, 1.5))
        table = ex.to_json(ex.implicit_t((1.0, 1.5)))
        assert table["nodes"][-1] == {"op": "implicit_t",
                                      "weights": [1.0, 1.5],
                                      "args": [0, 1, 2, 3]}

    @pytest.mark.parametrize("field, value", [
        ("newton_tol", 1e-6), ("newton_tol", "1e-12"),
        ("newton_max_iter", 7), ("newton_max_iter", 50.5)])
    def test_other_newton_settings_refused_by_name(self, field, value):
        obj = json.loads(json.dumps(self.WITH_SETTINGS))
        obj["nodes"][-1][field] = value
        with pytest.raises(ValueError, match="node 4: %s must be" % field):
            ex.from_json(obj)

    def test_integral_floats_accepted(self):
        obj = {"nodes": [{"op": "z", "index": 1.0},
                         {"op": "pow", "value": 3.0, "args": [0]}], "root": 1}
        assert ex.from_json(obj) is ex.intpow(ex.z(1), 3)


class TestNumericallyEqual:
    def test_true_and_false_cases(self):
        a = ex.mul(ex.add(ex.z(1), ex.z(2)), ex.sub(ex.z(1), ex.z(2)))
        b = ex.sub(ex.intpow(ex.z(1), 2), ex.intpow(ex.z(2), 2))
        assert ex.numerically_equal(a, b, 2)
        assert not ex.numerically_equal(a, ex.z(1), 2)


class TestJsonNumbers:
    """Expression JSON reads its numbers by the rules of config values."""

    def test_integer_beyond_the_float_range_is_a_value_error(self):
        obj = {"nodes": [{"op": "const", "value": [10 ** 400, 0]}], "root": 0}
        with pytest.raises(ValueError, match="^bad expression JSON node 0: "
                           "value must be a real number, got 1000"):
            ex.from_json(obj)

    @pytest.mark.parametrize("value,message", [
        (True, "index must be a whole number, got True"),
        (1.5, "index must be a whole number, got 1.5"),
        ("1", "index must be a whole number, got '1'"),
    ])
    def test_index_of_another_kind_refused(self, value, message):
        obj = {"nodes": [{"op": "z", "index": value}], "root": 0}
        with pytest.raises(ValueError, match="node 0: " + message):
            ex.from_json(obj)


class TestExpProductsAndFlow:
    """The prover's exp(a) exp(b) = exp(a + b), and substitution's t(flow)
    = t + s, each with controls that must stay unproven or unrewritten."""

    R, P = ex.param("r"), ex.param("p")

    def proven(self, root):
        return ex._Tape([root]).prove()[0] == [True]

    def test_exp_of_a_sum_is_the_product(self):
        t = ex.implicit_t((self.R, 1.5))
        a = ex.add(ex.mul(ex.mul(2.0, self.R), t), ex.mul(ex.z(1), ex.zbar(2)))
        b = ex.sub(ex.mul(3j, self.P), ex.intpow(ex.add(self.R, ex.z(1)), 2))
        assert self.proven(ex.sub(ex.mul(ex.exp(a), ex.exp(b)),
                                  ex.exp(ex.add(a, b))))
        # exp(-a) is 1 / exp(a), and each power adds to a degree.
        assert self.proven(ex.sub(ex.mul(ex.exp(ex.mul(-1.0, a)), ex.exp(a)),
                                  ex.const(1.0)))
        assert ex._degree_exp(ex.exp(ex.sub(ex.mul(2.0, self.R),
                                            ex.mul(3.0, self.P))), ()) == (2, 3)

    def test_exp_squared_is_not_exp(self):
        e = ex.exp(self.R)
        assert not self.proven(ex.sub(ex.mul(e, e), e))

    def test_non_integer_coefficient_stays_a_symbol(self):
        # exp(z1 / 2)^2 = exp(z1), but a coefficient 1/2 is no power of
        # exp(z1), so exp(z1 / 2) stays an unknown of its own.
        half = ex.exp(ex.mul(0.5, ex.z(1)))
        assert ex._exp_powers(half) is None
        assert not self.proven(ex.sub(ex.intpow(half, 2), ex.exp(ex.z(1))))

    def test_opaque_arguments_stay_symbols(self):
        for arg in (ex.div(ex.z(1), ex.z(2)), ex.log(ex.z(1)),
                    ex.exp(ex.z(1)), ex.const(float("inf")) * ex.z(1)):
            assert ex._exp_powers(ex.exp(arg)) is None
        # Terms beyond _EXPANSION_TERMS are not expanded.
        big = ex.intpow(ex.add(ex.add(ex.z(1), ex.z(2)), ex.param("q")), 9)
        assert ex._exponents(big) is None
        assert len(ex._exponents(ex.intpow(ex.add(ex.z(1), ex.z(2)), 9))) == 10

    @staticmethod
    def moved(t, rates, phases=(0.5, -1.0)):
        """t at z_k -> exp(-rates_k + i phases_k) z_k."""
        return ex.substitute(t, [ex.mul(ex.exp(ex.sub(ex.mul(1j, p), r)),
                                        ex.z(k))
                                 for k, (r, p) in enumerate(zip(rates, phases),
                                                            1)])

    def test_flow_of_the_weights_moves_t_by_s(self):
        r1, r2 = ex.param("r1"), ex.param("r2")
        t = ex.implicit_t((r1, r2))
        assert self.moved(t, (r1, r2)) is ex.add(t, ex.const(1.0))
        assert self.moved(t, (ex.mul(2.0, r1), ex.mul(2.0, r2))) is \
            ex.add(t, ex.const(2.0))
        # A rotation (s = 0) leaves t alone; so does conjugation after it.
        assert self.moved(t, (ex.const(0.0), ex.const(0.0)),
                          (self.P, self.P)) is t
        moved = self.moved(t, (r1, r2))
        assert ex.formal_conjugate(moved) is moved
        # Numeric weights (1, 1.5): u_k + v_k = -2 s w_k with s = 1; s must
        # be a number, not the param q.
        tn = ex.implicit_t((1.0, 1.5))
        assert self.moved(tn, (ex.const(1.0), ex.const(1.5)),
                          (self.P, self.P)) is ex.add(tn, ex.const(1.0))
        q = ex.param("q")
        assert isinstance(self.moved(tn, (q, ex.mul(1.5, q))), ex.ImplicitT)

    @pytest.mark.parametrize("rates", [
        lambda r1, r2: (r2, r1),                      # rates swapped
        lambda r1, r2: (r1, ex.mul(2.0, r2)),         # s = 1 and s = 2
        lambda r1, r2: (ex.mul(r1, r1), ex.mul(r1, r2)),  # not -2 s w_k
    ])
    def test_other_decks_are_not_rewritten(self, rates):
        r1, r2 = ex.param("r1"), ex.param("r2")
        t = ex.implicit_t((r1, r2))
        moved = self.moved(t, rates(r1, r2))
        assert isinstance(moved, ex.ImplicitT) and moved is not t

    def test_flow_needs_default_arguments_and_the_exp_factor(self):
        r1, r2 = ex.param("r1"), ex.param("r2")
        lam = [ex.exp(ex.sub(ex.mul(1j, ex.const(0.5)), r)) for r in (r1, r2)]
        # Already moved arguments are not the defaults.
        twice = ex.implicit_t((r1, r2), [ex.mul(2.0, ex.z(1)), ex.z(2)])
        assert isinstance(ex.substitute(twice, [ex.mul(lam[0], ex.z(1)),
                                                ex.mul(lam[1], ex.z(2))]),
                          ex.ImplicitT)
        # The same exp(u) on both families: u_k + v_k = 2 u_k is not real.
        same = [ex.mul(lam[0], ex.z(1)), ex.mul(lam[1], ex.z(2))]
        assert isinstance(ex.substitute(ex.implicit_t((r1, r2)), same, [
            ex.mul(lam[0], ex.zbar(1)), ex.mul(lam[1], ex.zbar(2))]),
            ex.ImplicitT)
        # A number in place of exp(u) is no flow, even with the flow's value.
        t = ex.implicit_t((1.0, 1.5))
        numbers = [ex.mul(ex.const(math.exp(-1.0)), ex.z(1)),
                   ex.mul(ex.const(math.exp(-1.5)), ex.z(2))]
        assert isinstance(ex.substitute(t, numbers), ex.ImplicitT)

    def test_flow_rewrite_keeps_the_value(self):
        r1, r2, p1, p2 = (ex.param(k) for k in ("r1", "r2", "p1", "p2"))
        t = ex.implicit_t((r1, r2))
        binding = {"r1": 0.8, "r2": 1.7, "p1": 0.5, "p2": -1.1}
        moves = [ex.mul(ex.exp(ex.sub(ex.mul(1j, p), ex.mul(2.0, r))), ex.z(k))
                 for k, (r, p) in enumerate(((r1, p1), (r2, p2)), 1)]
        moved = ex.substitute(t, moves)
        assert moved is ex.add(t, ex.const(2.0))
        # The Newton solve at the moved points agrees with t + 2.
        pts = annulus_points(2, 50, seed=3)
        lam = np.exp(-2 * np.array([0.8, 1.7]) + 1j * np.array([0.5, -1.1]))
        solved = ex._Tape([t]).values(pts * lam, binding)[0]
        assert np.allclose(ex._Tape([moved]).values(pts, binding)[0], solved,
                           rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Value numbering
# ---------------------------------------------------------------------------


class TestValueNumbering:
    """value_number makes nodes proven equal one node, keeps every merge
    only on its own proof, and leaves what it cannot prove apart."""

    BINDING = {"r": 1.5, "p": 0.7}
    POINTS = annulus_points(2, 300, seed=61)

    @staticmethod
    def radius(i, j):
        return ex.add(ex.mul(ex.z(i), ex.zbar(i)), ex.mul(ex.z(j), ex.zbar(j)))

    def test_equal_values_written_otherwise_are_one_node(self):
        a, b = self.radius(1, 2), self.radius(2, 1)
        roots = [ex.div(ex.z(1), a), ex.div(ex.zbar(1), b),
                 ex.mul(ex.exp(ex.z(1)), ex.exp(ex.z(2))),
                 ex.exp(ex.add(ex.z(1), ex.z(2)))]
        merged, bound = ex.value_number(roots)
        assert merged[0] is roots[0] and merged[1] is ex.div(ex.zbar(1), a)
        # exp(a) exp(b) = exp(a + b), and the earlier root's node takes
        # the place; within one root the lower one does.
        assert merged[2] is merged[3] is roots[2]
        assert 0.0 < bound <= vf.FALSE_PASS_BOUND
        _, merges = ex._value_numbering(roots)
        assert [(node, rep) for node, _, rep in merges] == [
            (b, a), (roots[3], roots[2])]
        z1, z2 = ex.z(1), ex.z(2)
        low = ex.mul(ex.exp(z1), z2)
        high = ex.div(ex.mul(ex.exp(z1), ex.mul(z2, z2)), z2)
        assert ex.value_number([ex.add(high, low)])[0] == [ex.add(low, low)]

    def test_every_kept_merge_is_proven(self):
        a, b = self.radius(1, 2), self.radius(2, 1)
        roots = [ex.div(ex.z(1), a), ex.sub(ex.div(ex.z(1), b),
                                            ex.div(ex.z(1), a))]
        merged, bound = ex.value_number(roots)
        _, merges = ex._value_numbering(roots)
        vanished, degrees = ex._Tape(
            [ex.sub(new, rep) for _, new, rep in merges]).prove()
        assert merges and all(vanished)
        assert bound == sum(map(ex._false_pass, degrees))

    def test_a_merge_that_fails_its_proof_is_refused(self, monkeypatch):
        a, b = self.radius(1, 2), self.radius(2, 1)
        roots = [ex.div(ex.z(1), a), ex.div(ex.z(2), b)]
        prove, calls = ex._Tape.prove, []

        def refuse_the_first(tape):
            vanished, degrees = prove(tape)
            calls.append(len(vanished))
            if len(calls) == 1:
                vanished[0] = False
            return vanished, degrees

        monkeypatch.setattr(ex._Tape, "prove", refuse_the_first)
        # b's merge into a is refused; nothing is left to prove.
        assert ex.value_number(roots) == (roots, 0.0)
        assert calls == [1]

    def test_branch_cuts_are_not_merged(self):
        # log(z1 z2) and log z1 + log z2 differ by 2 pi i off a half-plane:
        # each log is its own unknown, so they differ mod p.
        z1, z2 = ex.z(1), ex.z(2)
        roots = [ex.log(ex.mul(z1, z2)), ex.add(ex.log(z1), ex.log(z2)),
                 ex.exp(ex.log(z1)), z1]
        assert ex.value_number(roots) == (roots, 0.0)

    def test_constants_params_and_implicit_times_stay(self):
        # A constant value is no fingerprint: 0 written as z1 - z1 (after
        # a merge) or as a param's difference stays a subtraction, so no
        # divisor check below it folds away.
        t, p = ex.implicit_t((1.0, ex.param("r"))), ex.param("p")
        a, b = self.radius(1, 2), self.radius(2, 1)
        zero = ex.sub(ex.div(p, a), ex.div(p, b))
        merged, _ = ex.value_number([t, p, zero, ex.sub(p, ex.mul(1.0, p))])
        assert merged[:2] == [t, p]
        assert isinstance(merged[2], ex.Sub)
        assert merged[2].args[0] is merged[2].args[1] is ex.div(p, a)
        tape = ex._Tape(merged, {2})
        assert [rule for rule, _, _ in tape.ops].count(ex._check_divisor) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_dags_keep_their_values(self, seed):
        rng = np.random.default_rng(seed)
        roots = _random_dag(rng) + _random_dag(rng)
        merged, bound = ex.value_number(roots)
        assert bound <= vf.FALSE_PASS_BOUND
        assert len(ex._Tape(merged).ops) <= len(ex._Tape(roots).ops)
        got = ex._Tape(merged).values(self.POINTS, self.BINDING)
        want = ex._Tape(roots).values(self.POINTS, self.BINDING)
        for g, w in zip(got, want):
            size = np.abs(w)
            scale = np.max(size[np.isfinite(size)], initial=1.0)
            assert np.allclose(g, w, rtol=1e-9, atol=1e-12 * scale,
                               equal_nan=True)

    @pytest.mark.parametrize("proven", [0, 1, 2])
    def test_division_through_a_merged_divisor_fails_as_before(self, proven):
        # The divisor |z1|^2 - |z2|^2, written three ways, vanishes exactly
        # where |z1| = |z2|.  Two requests divide by the first two; the
        # proven one, at position ``proven``, is the difference of the
        # second and the third.  The merged tape keeps one guard, and fails
        # as the tape without merges does: same request, term, error and
        # point.
        z1, z2, zb1, zb2 = ex.z(1), ex.z(2), ex.zbar(1), ex.zbar(2)
        dens = [ex.sub(ex.mul(z1, zb1), ex.mul(z2, zb2)),
                ex.sub(ex.mul(zb1, z1), ex.mul(zb2, z2)),
                ex.sub(ex.mul(z1, zb1), ex.mul(zb2, z2))]
        forms = [fm.scalar_form(2, ex.div(ex.z(2), d)) for d in dens]
        requests = [(forms[0], fm._Max), (forms[1], fm._Full)]
        requests.insert(proven, (forms[1] - forms[2], fm._Max))
        pts = self.POINTS[:40].copy()
        pts[9] = (1.5, 1.5j)  # every divisor is 0.0 there
        plain = fm._RequestTape(requests, 2, {proven})
        merged = fm._RequestTape(requests, 2, {proven}, vf.FALSE_PASS_BOUND)
        assert 0.0 < merged.merge_bound <= vf.FALSE_PASS_BOUND
        assert plain.merge_bound is None

        def guards(tape):
            return [rule for rule, _, _ in tape.tape.ops].count(
                ex._check_divisor)

        assert (guards(plain), guards(merged)) == (3, 1)
        want, got = plain.run(pts), merged.run(pts)
        assert got.failed_at == want.failed_at == 0
        assert type(got.error.cause) is type(want.error.cause) \
            is ex.DivisionNearZero
        assert str(got.error) == str(want.error)
        assert got.error.cause.point == want.error.cause.point \
            == tuple(pts[9])
        # Where no divisor vanishes, both give every value.
        fine = np.delete(pts, 9, axis=0)
        want, got = plain.run(fine), merged.run(fine)
        assert got.failed_at == want.failed_at == 3
