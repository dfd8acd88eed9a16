"""Symbolic engine: interning, Wirtinger calculus, implicit radial time."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    row sums of s * growth, with the same start, stop rule and budget."""
    r = np.array([complex(w).real for w in weights])
    n = len(r)
    s = np.empty((m, n))
    for k in range(n):
        s[:, k] = np.broadcast_to(np.asarray(args[k] * args[n + k]), (m,)).real
    t = -np.log(s.sum(axis=1)) / (2.0 * r.max())
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
    magnitude guard per divisor slot, and precomputed slot frees."""

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
        tape = suite.requests.tape
        divs = [(i, rule, kids[1]) for i, (rule, node, kids)
                in enumerate(tape.ops) if isinstance(node, ex.Div)]
        first = {}
        for i, _, den in divs:
            first.setdefault(den, i)
        guarded = [i for i, rule, _ in divs if rule is ex._apply_div]
        assert (len(divs), len(guarded)) == (64, 7)
        assert guarded == sorted(first.values())
        assert all(rule is ex._apply_quotient
                   for i, rule, _ in divs if i not in guarded)

    def test_frees_drop_each_slot_after_its_last_consumer(self):
        z1, zb1 = ex.z(1), ex.zbar(1)
        sq = ex.mul(z1, z1)
        a, b = ex.add(sq, zb1), ex.div(sq, ex.add(zb1, 2.0))
        tape = ex._Tape([a, b])
        freed = [s for f in tape.frees for s in f]
        assert len(freed) == len(set(freed))
        assert not set(freed) & set(tape.roots)
        # Every slot but the roots is freed after the last op that reads it.
        for s in range(len(tape.ops)):
            readers = [i for i, (_, _, kids) in enumerate(tape.ops)
                       if s in kids]
            if s in tape.roots:
                continue
            assert s in tape.frees[max(readers)]

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
