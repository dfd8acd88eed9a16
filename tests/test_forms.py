"""Exterior algebra: wedge, d, bidegree, pullback, definiteness."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopflck import expr as ex
from hopflck import forms as fm
from hopflck import hopf as hp
from hopflck.sampling import annulus_points


def _random_scalar(rng, dim=2, depth=2):
    if depth == 0 or rng.random() < 0.3:
        k = rng.integers(0, 3)
        if k == 0:
            return ex.const(complex(rng.normal(), rng.normal()))
        if k == 1:
            return ex.z(int(rng.integers(1, dim + 1)))
        return ex.zbar(int(rng.integers(1, dim + 1)))
    a = _random_scalar(rng, dim, depth - 1)
    b = _random_scalar(rng, dim, depth - 1)
    return (ex.add, ex.sub, ex.mul)[rng.integers(0, 3)](a, b)


def _random_form(rng, dim=2, degree=1):
    ids = list(range(2 * dim))
    terms = {}
    for _ in range(rng.integers(1, 4)):
        idx = tuple(sorted(rng.choice(ids, size=degree, replace=False)))
        terms[idx] = _random_scalar(rng, dim)
    return fm.form_from_terms(dim, degree, terms)


def _residual(a, pts):
    return fm.max_form_residual(a, pts)


PTS = annulus_points(2, 60, seed=21)


class TestConstruction:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            fm.ExteriorForm(2, 2, {(2, 0): ex.const(1.0)})  # not increasing
        with pytest.raises(ValueError):
            fm.ExteriorForm(2, 2, {(0, 0): ex.const(1.0)})  # repeated
        with pytest.raises(ValueError):
            fm.ExteriorForm(2, 1, {(4,): ex.const(1.0)})  # out of range
        with pytest.raises(ValueError):
            fm.ExteriorForm(2, 2, {(0,): ex.const(1.0)})  # degree mismatch

    def test_zero_pruning_and_is_zero(self):
        a = fm.ExteriorForm(2, 1, {(0,): ex.const(0.0)})
        assert a.is_zero() and a.terms == {}

    def test_immutable(self):
        a = fm.d_z(2, 1)
        with pytest.raises(AttributeError):
            a.degree = 7

    def test_coefficient_dimension_guard(self):
        with pytest.raises(ex.DimensionMismatch):
            fm.ExteriorForm(2, 1, {(0,): ex.z(3)})

    def test_basis_builders(self):
        assert fm.d_z(2, 1).terms == {(0,): ex.const(1.0)}
        assert fm.d_zbar(2, 2).terms == {(3,): ex.const(1.0)}
        with pytest.raises(ValueError):
            fm.d_z(2, 0)
        with pytest.raises(ValueError):
            fm.d_z(2, 3)

    def test_arithmetic(self):
        a = fm.d_z(2, 1)
        b = fm.d_zbar(2, 1)
        s = a + b
        assert s.terms[(0,)] is ex.const(1.0)
        assert (s - s).is_zero()
        assert (a.scale(2.0)).terms[(0,)] is ex.const(2.0)
        assert (-a).terms[(0,)] is ex.const(-1.0)
        assert (2 * a).terms == a.scale(2).terms


class TestWedge:
    def test_square_of_covector_vanishes(self):
        a = fm.d_z(2, 1)
        assert fm.wedge(a, a).is_zero()

    def test_orientation_sign(self):
        dz1, dzb1 = fm.d_z(2, 1), fm.d_zbar(2, 1)
        w = fm.wedge(dz1, dzb1)
        assert w.terms == {(0, 2): ex.const(1.0)}
        wr = fm.wedge(dzb1, dz1)
        assert wr.terms == {(0, 2): ex.const(-1.0)}

    @given(st.integers(0, 10 ** 5))
    def test_graded_anticommutativity(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_form(rng, degree=1)
        b = _random_form(rng, degree=1)
        assert _residual(fm.wedge(a, b) + fm.wedge(b, a), PTS) < 1e-10

    @given(st.integers(0, 10 ** 5))
    def test_two_form_commutes_with_one_form(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_form(rng, degree=2)
        b = _random_form(rng, degree=1)
        assert _residual(fm.wedge(a, b) - fm.wedge(b, a), PTS) < 1e-9

    @given(st.integers(0, 10 ** 5))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (_random_form(rng, degree=1) for _ in range(3))
        lhs = fm.wedge(fm.wedge(a, b), c)
        rhs = fm.wedge(a, fm.wedge(b, c))
        assert _residual(lhs - rhs, PTS) < 1e-9

    def test_dimension_guard(self):
        with pytest.raises(ex.DimensionMismatch):
            fm.wedge(fm.d_z(2, 1), fm.d_z(3, 1))


class TestExteriorDerivative:
    @given(st.integers(0, 10 ** 5))
    def test_dd_is_zero(self, seed):
        rng = np.random.default_rng(seed)
        f = fm.scalar_form(2, _random_scalar(rng, depth=3))
        assert _residual(fm.exterior_d(fm.exterior_d(f)), PTS) < 1e-9

    @given(st.integers(0, 10 ** 5))
    def test_leibniz(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_form(rng, degree=1)
        b = _random_form(rng, degree=1)
        lhs = fm.exterior_d(fm.wedge(a, b))
        rhs = (fm.wedge(fm.exterior_d(a), b)
               - fm.wedge(a, fm.exterior_d(b)))
        assert _residual(lhs - rhs, PTS) < 1e-8

    def test_constant_coefficients_give_zero(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-1j)})
        assert fm.exterior_d(a).is_zero()

    def test_split_sums_to_d(self):
        f = fm.scalar_form(2, ex.mul(ex.mul(ex.z(1), ex.zbar(1)), ex.z(2)))
        dl, db = fm.del_and_delbar(f)
        assert _residual(dl + db - fm.exterior_d(f), PTS) < 1e-12
        assert fm.bidegree_part(dl, 0, 1).is_zero()
        assert fm.bidegree_part(db, 1, 0).is_zero()

    def test_bidegree_decomposition(self):
        rng = np.random.default_rng(5)
        a = _random_form(rng, degree=2)
        parts = [fm.bidegree_part(a, 2, 0), fm.bidegree_part(a, 1, 1),
                 fm.bidegree_part(a, 0, 2)]
        total = parts[0] + parts[1] + parts[2]
        assert total == a


class TestPullback:
    def _scaling(self, mu):
        return (ex.mul(ex.const(mu), ex.z(1)), ex.mul(ex.const(mu), ex.z(2)))

    def test_linear_scaling_exact(self):
        mu = 2.0 + 1.0j
        pb = fm.pullback(self._scaling(mu), fm.d_z(2, 1))
        assert pb.terms == {(0,): ex.const(mu)}
        pb_bar = fm.pullback(self._scaling(mu), fm.d_zbar(2, 1))
        assert pb_bar.terms == {(2,): ex.const(np.conj(mu))}

    def test_identity(self):
        rng = np.random.default_rng(3)
        a = _random_form(rng, degree=2)
        ident = (ex.z(1), ex.z(2))
        assert _residual(fm.pullback(ident, a) - a, PTS) < 1e-12

    @given(st.integers(0, 10 ** 5))
    def test_functoriality(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_form(rng, degree=1)
        g = (ex.add(ex.z(1), ex.intpow(ex.z(2), 2)), ex.z(2))
        h = (ex.mul(ex.const(0.5), ex.z(1)),
             ex.add(ex.z(2), ex.mul(ex.const(0.25), ex.z(1))))
        composed = tuple(ex.substitute(c, g, tuple(map(ex.formal_conjugate, g)))
                         for c in h)
        lhs = fm.pullback(g, fm.pullback(h, a))
        rhs = fm.pullback(composed, a)
        assert _residual(lhs - rhs, PTS) < 1e-8

    @given(st.integers(0, 10 ** 5))
    def test_commutes_with_d(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_form(rng, degree=1)
        g = (ex.add(ex.z(1), ex.mul(ex.const(0.3), ex.intpow(ex.z(2), 2))),
             ex.mul(ex.const(0.8), ex.z(2)))
        lhs = fm.exterior_d(fm.pullback(g, a))
        rhs = fm.pullback(g, fm.exterior_d(a))
        assert _residual(lhs - rhs, PTS) < 1e-8

    def test_rejects_antiholomorphic_map(self):
        with pytest.raises(fm.NonHolomorphicMap):
            fm.pullback((ex.zbar(1), ex.z(2)), fm.d_z(2, 1))

    def test_dimension_guard(self):
        with pytest.raises(ex.DimensionMismatch):
            fm.pullback((ex.z(1),), fm.d_z(2, 1))


class TestEvaluation:
    def test_evaluate_form_values(self):
        a = fm.form_from_terms(2, 1, {(0,): ex.z(2), (3,): ex.const(2.0)})
        vals = fm.evaluate_form(a, (1.0, 3j))
        assert vals[(0,)] == pytest.approx(3j)
        assert vals[(3,)] == pytest.approx(2.0)

    def test_error_records_term(self):
        a = fm.form_from_terms(2, 1, {(1,): ex.div(ex.const(1.0), ex.z(1))})
        with pytest.raises(fm.FormEvaluationError) as info:
            fm.evaluate_form(a, (0.0, 1.0))
        assert info.value.index == (1,)
        assert isinstance(info.value.cause, ex.DivisionNearZero)

    @pytest.mark.parametrize("coeff, bad, error", [
        (ex.div(ex.const(1.0), ex.z(1)), (0.0, 0.8), ex.DivisionNearZero),
        (ex.log(ex.z(1)), (-2.0, 0.8), ex.LogBranchError),
        (ex.implicit_t((1.0, 2.0)), (3.0, 0.5), ex.NewtonDivergence),
    ])
    def test_error_past_first_chunk_names_term_and_point(self, coeff, bad,
                                                         error, monkeypatch):
        # (0.6, 0.8) is on the unit sphere, where t = 0 solves at once; with
        # one Newton step allowed, (3.0, 0.5) diverges.
        monkeypatch.setattr(ex, "NEWTON_MAX_ITER", 1)
        pts = np.tile(np.array([0.6, 0.8], dtype=complex), (ex._CHUNK + 40, 1))
        k = ex._CHUNK + 17
        pts[k] = bad
        with pytest.raises(error) as direct:
            ex.evaluate_many(coeff, pts)
        assert direct.value.point == bad
        a = fm.form_from_terms(2, 1, {(0,): ex.z(2), (1,): coeff,
                                      (3,): ex.mul(ex.z(1), coeff)})
        with pytest.raises(fm.FormEvaluationError) as info:
            fm.evaluate_form_many(a, pts)
        assert info.value.index == (1,)
        assert isinstance(info.value.cause, error)
        assert info.value.cause.point == bad

    @pytest.mark.parametrize("m, k", [(10, 4),
                                      (ex._CHUNK + 40, ex._CHUNK + 17)])
    def test_later_term_error_after_implicit_term(self, m, k):
        # The later term fails in the last chunk, past every point the
        # earlier term's Newton solve still has to cover.
        pts = np.tile(np.array([0.6, 0.8], dtype=complex), (m, 1))
        pts[k] = (0.0, 0.8)
        a = fm.form_from_terms(2, 1, {(0,): ex.implicit_t((1.0, 2.0)),
                                      (1,): ex.div(ex.const(1.0), ex.z(1))})
        with pytest.raises(fm.FormEvaluationError) as info:
            fm.evaluate_form_many(a, pts)
        assert info.value.index == (1,)
        assert isinstance(info.value.cause, ex.DivisionNearZero)
        assert info.value.cause.point == (0.0, 0.8)

    def test_error_names_first_term_failing_anywhere(self):
        # The later term fails in the first chunk, the earlier one only in
        # the second; the report still names the earlier term.
        pts = np.tile(np.array([0.6, 0.8], dtype=complex), (2 * ex._CHUNK, 1))
        pts[3] = (0.6, 0.0)
        pts[ex._CHUNK + 5] = (0.0, 0.8)
        a = fm.form_from_terms(2, 1, {(0,): ex.div(ex.const(1.0), ex.z(1)),
                                      (1,): ex.div(ex.const(1.0), ex.z(2))})
        with pytest.raises(fm.FormEvaluationError) as info:
            fm.evaluate_form_many(a, pts)
        assert info.value.index == (0,)
        assert info.value.cause.point == (0.0, 0.8)

    def test_deep_sum_evaluates_without_recursion(self):
        e = ex.z(1)
        for k in range(2, 3001):
            e = ex.add(e, ex.mul(ex.const(float(k)), ex.z(1)))
        a = fm.form_from_terms(2, 1, {(0,): e, (2,): ex.zbar(1)})
        pts = annulus_points(2, 5, seed=23)
        vals = fm.evaluate_form_many(a, pts)
        assert np.allclose(vals[(0,)], 3000 * 3001 / 2 * pts[:, 0],
                           rtol=1e-12)
        assert np.array_equal(vals[(2,)], np.conj(pts[:, 0]))

    def test_implicit_time_form_at_zero_points(self):
        omega = hp.build_entry("vaisman").forms["Omega"]
        vals = fm.evaluate_form_many(omega, np.zeros((0, 2), dtype=complex))
        assert list(vals) == sorted(omega.terms)
        assert all(v.shape == (0,) for v in vals.values())

    def test_max_residual_of_empty_form(self):
        assert fm.max_form_residual(fm.ExteriorForm(2, 1, {}), PTS) == 0.0

    def test_residuals_keep_a_nan_coefficient(self):
        a = fm.form_from_terms(2, 1, {(0,): ex.const(float("nan")),
                                      (1,): ex.const(1.0)})
        assert np.isnan(fm.max_form_residual(a, PTS))
        assert np.isnan(fm.pointwise_residual(a, PTS)).all()

    def test_joint_evaluation_raises_each_error_at_its_form(self):
        pts = annulus_points(2, 10, seed=24)
        ok = fm.form_from_terms(2, 1, {(0,): ex.z(1)})
        bad = fm.form_from_terms(2, 1, {(1,): ex.div(
            ex.const(1.0), ex.mul(ex.const(1e-20), ex.z(1)))})
        wide = fm.form_from_terms(2, 1, {(1,): ex.z(2)})
        values = fm._evaluate_forms([(ok, True), (bad, False), (ok, False)],
                                    pts)
        assert np.array_equal(values[0][(0,)], pts[:, 0])
        for k in (1, 2):
            with pytest.raises(fm.FormEvaluationError, match=r"term \(1,\)"):
                values[k]
        # The dimension error of the second form comes before the third
        # form's evaluation error, which is never reached.
        narrow = fm._evaluate_forms([(ok, False), (wide, False), (bad, False)],
                                    pts[:, :1])
        assert np.array_equal(narrow[0], np.abs(pts[:, 0]))
        for k in (1, 2):
            with pytest.raises(ex.DimensionMismatch, match="uses z_2"):
                narrow[k]

    def test_nan_survives_the_per_chunk_fold(self):
        pts = annulus_points(2, 2 * ex._CHUNK + 1, seed=22)
        a = fm.form_from_terms(2, 1, {(0,): ex.const(float("nan")),
                                      (1,): ex.const(1.0)})
        assert np.isnan(fm.pointwise_residual(a, pts)).all()
        # A NaN at one point of the second chunk stays at that point.
        pts[ex._CHUNK + 5] = (float("nan"), 0.8)
        b = fm.form_from_terms(2, 1, {(0,): ex.mul(ex.z(1), ex.z(2)),
                                      (1,): ex.z(2)})
        res = fm.pointwise_residual(b, pts)
        assert np.flatnonzero(np.isnan(res)).tolist() == [ex._CHUNK + 5]
        assert np.isnan(fm.max_form_residual(b, pts))


class TestDefiniteness:
    def test_positive_definite(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-1j),
                                      (1, 3): ex.const(-1j)})
        rep = fm.definiteness(a, PTS)
        assert rep.is_definite and rep.sign == 1
        assert rep.min_abs_eigenvalue == pytest.approx(1.0)

    def test_negative_definite(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(2j),
                                      (1, 3): ex.const(1j)})
        rep = fm.definiteness(a, PTS)
        assert rep.is_definite and rep.sign == -1

    def test_eigenvalues_reported(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-2j),
                                      (1, 3): ex.const(-3j)})
        rep = fm.definiteness(a, PTS)
        assert np.allclose(np.sort(rep.eigenvalues, axis=1),
                           [[2.0, 3.0]] * len(PTS))

    def test_indefinite(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-1j),
                                      (1, 3): ex.const(1j)})
        rep = fm.definiteness(a, PTS)
        assert not rep.is_definite and not rep.is_semidefinite
        assert rep.sign is None

    def test_semidefinite_rank_one(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-1j)})
        rep = fm.definiteness(a, PTS)
        assert not rep.is_definite and rep.is_semidefinite
        assert rep.sign == 1
        assert rep.min_abs_eigenvalue < 1e-12

    def test_rejects_wrong_type(self):
        a = fm.form_from_terms(2, 2, {(0, 1): ex.const(1.0)})
        with pytest.raises(fm.NotType11):
            fm.definiteness(a, PTS)

    def test_rejects_non_hermitian(self):
        a = fm.form_from_terms(2, 2, {(0, 3): ex.const(-1j)})
        with pytest.raises(fm.NonHermitian):
            fm.definiteness(a, PTS)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
    def test_sign_does_not_depend_on_scale(self, scale):
        phi = ex.mul(ex.const(scale), ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                                             ex.mul(ex.z(2), ex.zbar(2))))
        rep = fm.definiteness(fm.kaehler_form(2, phi), PTS)
        assert rep.is_definite and rep.sign == 1
        assert rep.min_abs_eigenvalue == pytest.approx(scale)

    def test_zero_form_has_sign_zero(self):
        rep = fm.definiteness(fm.ExteriorForm(2, 2, {}), PTS)
        assert rep.sign == 0 and rep.is_semidefinite and not rep.is_definite

    def test_worst_sample_recorded(self):
        a = fm.form_from_terms(2, 2, {(0, 2): ex.const(-1j),
                                      (1, 3): ex.const(-1j)})
        rep = fm.definiteness(a, PTS)
        assert rep.worst_sample is not None
        assert rep.worst_sample.matrix.shape == (2, 2)


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        a = _random_form(rng, degree=2)
        b = fm.form_from_json(fm.form_to_json(a))
        assert a == b

    def test_round_trip_one_form_with_implicit(self):
        t = ex.implicit_t((1.0, 1.5))
        a = fm.form_from_terms(2, 1, {(0,): t})
        assert fm.form_from_json(fm.form_to_json(a)) == a

    @staticmethod
    def _dag_size(root):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(node.children())
        return len(seen)

    @pytest.mark.parametrize("name", hp.ENTRY_NAMES)
    def test_catalog_round_trip_is_identity(self, name):
        entry = hp.build_entry(name)
        forms = [g for f in entry.forms.values() for g in (f, fm.exterior_d(f))]
        for f in forms:
            obj = fm.form_to_json(f)
            back = fm.form_from_json(json.loads(json.dumps(obj)))
            assert back.terms.keys() == f.terms.keys()
            for item in obj["terms"]:
                coeff = f.terms[tuple(item["index"])]
                assert back.terms[tuple(item["index"])] is coeff
                assert len(item["coeff"]["nodes"]) == self._dag_size(coeff)
