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

    @pytest.mark.parametrize("dim,degree,message", [
        (1, 0, "ambient dimension must be at least 2"),
        (2, 5, "degree 5 out of range for dimension 2")])
    def test_dimension_and_degree_ranges(self, dim, degree, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            fm.ExteriorForm(dim, degree)

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


class TestComplexStructure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_basis_covectors(self, n):
        for i in range(1, n + 1):
            assert fm.complex_structure(fm.d_z(n, i)) == fm.d_z(n, i).scale(1j)
            assert (fm.complex_structure(fm.d_zbar(n, i))
                    == fm.d_zbar(n, i).scale(-1j))

    @given(st.integers(0, 10 ** 5))
    def test_j_squared_is_minus_one(self, seed):
        a = _random_form(np.random.default_rng(seed), degree=1)
        twice = fm.complex_structure(fm.complex_structure(a))
        vanished, _ = ex._prove(list((twice + a).terms.values()))
        assert all(vanished)

    @pytest.mark.parametrize("form", [
        fm.scalar_form(2, ex.z(1)), fm.wedge(fm.d_z(2, 1), fm.d_zbar(2, 2))])
    def test_refuses_other_degrees(self, form):
        with pytest.raises(ValueError, match="1-forms"):
            fm.complex_structure(form)


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
        values = fm._evaluate_forms(
            [(ok, fm._Full), (bad, fm._Residual), (ok, fm._Residual)], pts)
        assert np.array_equal(values[0][(0,)], pts[:, 0])
        for k in (1, 2):
            with pytest.raises(fm.FormEvaluationError, match=r"term \(1,\)"):
                values[k]
        # Points of another dimension are refused before any form is
        # evaluated, even where the first form uses z_1 alone.
        with pytest.raises(ex.DimensionMismatch,
                           match=r"^points dimension 1 vs form on C\^2$"):
            fm._evaluate_forms([(ok, fm._Residual), (bad, fm._Residual)],
                               pts[:, :1])

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

    def test_rejects_a_form_of_another_degree(self):
        with pytest.raises(fm.NotType11, match="^definiteness needs a 2-form, "
                                               "got degree 1$"):
            fm.definiteness(fm.d_z(2, 1), PTS)

    def test_rejects_points_of_another_dimension(self):
        omega = hp.example1_entry().forms["Omega"]
        with pytest.raises(ex.DimensionMismatch,
                           match=r"^points dimension 3 vs form on C\^2$"):
            fm.definiteness(omega, annulus_points(3, 5, 0))

    @pytest.mark.parametrize("scale", [1.0, 1e-60, 1e-200])
    def test_rejects_non_hermitian(self, scale):
        a = fm.form_from_terms(2, 2, {(0, 3): ex.const(-1j * scale)})
        with pytest.raises(fm.NonHermitian, match="defect 1.41 "):
            fm.definiteness(a, PTS)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12,
                                       1e-300, 1e-200, 1e200, 1e300])
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


def _definite_fold(values, n, m):
    """The :class:`fm._Definite` fold of a form on C^n whose (1,1)
    coefficients are ``values`` ({index: (m,) array, or a scalar where
    constant}), handed to it chunk by chunk in index order as the tape
    hands them: a scalar as is."""
    form = fm.form_from_terms(n, 2, {index: ex.const(1.0) for index in values})
    fold = fm._Definite(form, m, None)
    for lo in range(0, m, ex._CHUNK):
        for index in sorted(values):
            value = values[index]
            fold.add(lo, index, value if np.ndim(value) == 0
                     else value[lo:lo + ex._CHUNK])
    return fold.result()


def _classify_matrices(hs, constant=False):
    """The classification of an (m, 2, 2) stack of matrices H, fed in as
    the (1,1) coefficients C = -i H of a form on C^2, at the points (k, 0);
    ``constant`` feeds the first point's C as scalars, as the tape hands a
    constant coefficient over."""
    m = len(hs)
    values = {(i, 2 + j): complex(-1j * hs[0, i, j]) if constant
              else -1j * hs[:, i, j] for i in range(2) for j in range(2)}
    pts = np.zeros((m, 2), complex)
    pts[:, 0] = np.arange(m)
    return _definite_fold(values, 2, m).report(pts)


def _decisions(eigs):
    """The sign test's per-eigenvalue verdicts, (positive, negative)."""
    zero = fm.ZERO_EIGENVALUE_RTOL * np.abs(eigs).max(axis=1, keepdims=True)
    return eigs > zero, eigs < -zero


def _hermitian_stack(rng, m, kind):
    """m Hermitian 2x2 matrices U diag(lam) U^* of one kind, unit scale."""
    u = np.linalg.qr(rng.normal(size=(m, 2, 2))
                     + 1j * rng.normal(size=(m, 2, 2)))[0]
    lam = rng.uniform(0.1, 10.0, size=(m, 2))
    if kind == "negative":
        lam = -lam
    elif kind == "indefinite":
        lam[:, 0] *= -1.0
    elif kind == "rank1":
        lam[:, 0] = 0.0
    elif kind == "zero":
        lam[rng.random(m) < 0.25] = 0.0
    elif kind == "diagonal":
        u = np.broadcast_to(np.eye(2), (m, 2, 2))
    elif kind == "constant":
        u, lam = u[:1].repeat(m, axis=0), lam[:1].repeat(m, axis=0)
    elif kind in ("near_zero", "near_zero_negative"):
        # The small eigenvalue a few ulps of the large one from the sign
        # test's zero threshold, on either side.
        big = lam[:, 1]
        steps = rng.integers(-4, 5, size=m) * np.spacing(big)
        lam[:, 0] = fm.ZERO_EIGENVALUE_RTOL * big + steps
        if kind == "near_zero_negative":
            lam = -lam
    hs = u @ (lam[:, :, None] * np.conjugate(u.transpose(0, 2, 1)))
    return (hs + np.conjugate(hs.transpose(0, 2, 1))) / 2


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every stack passed to np.linalg.eigvalsh."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


class TestClosedForm2x2:
    """n = 2 eigenvalues come in closed form alone; LAPACK's eigvalsh,
    called here, is the reference they must stay within rounding of."""

    KINDS = ["positive", "negative", "indefinite", "rank1", "zero",
             "diagonal", "near_zero", "near_zero_negative", "constant"]

    @staticmethod
    def _lapack_everywhere(monkeypatch, hs):
        # The report of LAPACK's eigenvalues in place of the closed form's.
        def lapack(c, eigs):
            eigs[:] = np.linalg.eigvalsh(fm._hermitian_part(c, slice(None)))

        with monkeypatch.context() as patch:
            patch.setattr(fm, "_closed_form_2x2", lapack)
            return _classify_matrices(hs)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_lapack_everywhere(self, monkeypatch, kind, scale):
        for seed in range(4):
            rng = np.random.default_rng([seed, self.KINDS.index(kind)])
            hs = _hermitian_stack(rng, 200, kind) * scale
            ref = self._lapack_everywhere(monkeypatch, hs)
            h = (-1j * hs) * 1j
            sym = (np.conjugate(h.transpose(0, 2, 1)) + h) * 0.5
            assert np.array_equal(ref.eigenvalues, np.linalg.eigvalsh(sym))

            rep = _classify_matrices(hs)
            top = np.abs(ref.eigenvalues).max(axis=1)
            assert np.all(np.abs(rep.eigenvalues - ref.eigenvalues)
                          <= 16 * np.spacing(top[:, None]))
            # Within rounding of a sign test's zero threshold the verdicts
            # may differ; everywhere else they must be LAPACK's.
            if not kind.startswith("near_zero"):
                assert (rep.sign, rep.is_definite, rep.is_semidefinite) == (
                    ref.sign, ref.is_definite, ref.is_semidefinite)
                for got, want in zip(_decisions(rep.eigenvalues),
                                     _decisions(ref.eigenvalues)):
                    assert np.array_equal(got, want)
            sample = rep.worst_sample
            k = int(sample.point[0].real)
            worst = {k, int(ref.worst_sample.point[0].real)}
            assert (abs(rep.min_abs_eigenvalue - ref.min_abs_eigenvalue)
                    <= 16 * np.spacing(max(top[j] for j in worst)))
            # The worst sample is the first point of least min|lambda|.
            small = np.abs(rep.eigenvalues).min(axis=1)
            assert k == int(np.argmin(small))
            assert rep.min_abs_eigenvalue == small[k]
            assert sample.matrix.tobytes() == sym[k].tobytes()
            assert sample.eigenvalues.tobytes() == rep.eigenvalues[k].tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-200, 1e200, 1e300])
    @pytest.mark.parametrize("kind", ["positive", "negative", "indefinite"])
    def test_lapack_runs_on_few_points(self, eigvalsh_shapes, kind, scale):
        # On none: arrays and constants alike, at every scale.
        hs = _hermitian_stack(np.random.default_rng(3), 500, kind) * scale
        for constant in (False, True):
            rep = _classify_matrices(hs, constant)
            assert rep.sign == {"positive": 1, "negative": -1,
                                "indefinite": None}[kind]
        assert eigvalsh_shapes == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_refused(self, bad):
        hs = _hermitian_stack(np.random.default_rng(5), 50, "positive")
        hs[7, 0, 0] = bad
        with pytest.raises(fm.NonHermitian,
                           match=r"non-finite coefficient at point "
                                 r"\(\(7\+0j\), 0j\)"):
            _classify_matrices(hs)

    def test_nan_does_not_hide_a_hermiticity_defect(self):
        hs = np.repeat(np.eye(2, dtype=complex)[None], 5, axis=0)
        hs[1, 0, 1] = 1.0
        with pytest.raises(fm.NonHermitian, match="defect 0.816 at point "
                                                  r"\(\(1\+0j\), 0j\)"):
            _classify_matrices(hs)
        hs[3, 1, 1] = np.nan
        with pytest.raises(fm.NonHermitian, match="non-finite coefficient"):
            _classify_matrices(hs)

    def test_nan_residual_of_a_stray_part_is_refused(self):
        a = fm.form_from_terms(2, 2, {(0, 1): ex.const(np.nan),
                                      (0, 2): ex.const(-1j),
                                      (1, 3): ex.const(-1j)})
        with pytest.raises(fm.NotType11, match=r"\(2,0\) part has residual "
                                               "nan"):
            fm.definiteness(a, np.zeros((5, 2), complex))

    def test_three_dimensional_forms_use_lapack_at_every_point(
            self, eigvalsh_shapes):
        # |z1|^4 makes H differ from point to point.
        phi = ex.add(ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                            ex.mul(ex.z(2), ex.zbar(2))),
                     ex.add(ex.mul(ex.z(3), ex.zbar(3)),
                            ex.intpow(ex.mul(ex.z(1), ex.zbar(1)), 2)))
        pts = annulus_points(3, 40, seed=4)
        rep = fm.definiteness(fm.kaehler_form(3, phi), pts)
        assert rep.is_definite and rep.sign == 1
        assert eigvalsh_shapes == [(40, 3, 3)]


@pytest.fixture
def eigvalsh_inputs(monkeypatch):
    """A copy of every stack passed to np.linalg.eigvalsh."""
    inputs, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a):
        inputs.append(np.array(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return inputs


def _max_fold(values, m):
    """A _Max fold handed the (m,) array ``values`` chunk by chunk."""
    fold = fm._Max(None, m, np.empty(min(m, ex._CHUNK)))
    for lo in range(0, m, ex._CHUNK):
        fold.add(lo, (0,), values[lo:lo + ex._CHUNK])
    return fold.result()


class TestStreamedClassification:
    """_Definite classifies each chunk as the tape hands it over and keeps
    the first point of least min|lambda|: every report byte and every row
    passed to LAPACK must be those of one pass over all points."""

    @staticmethod
    def _both(monkeypatch, inputs, values, n, m, pts):
        """The streamed report and the one-chunk report of ``values``, with
        the stacks each passed to eigvalsh."""
        got = []
        for chunk in (ex._CHUNK, max(m, ex._CHUNK)):
            del inputs[:]
            with monkeypatch.context() as patch:
                patch.setattr(ex, "_CHUNK", chunk)
                rep = _definite_fold(values, n, m).report(pts)
            got.append((rep, list(inputs)))
        return got

    @staticmethod
    def _assert_same(got, want):
        (rep, calls), (ref, ref_calls) = got, want
        # The rows, however a pass splits them into calls.
        assert b"".join(c.tobytes() for c in calls) == b"".join(
            c.tobytes() for c in ref_calls)
        assert (rep.sign, rep.is_definite, rep.is_semidefinite,
                rep.num_points) == (ref.sign, ref.is_definite,
                                    ref.is_semidefinite, ref.num_points)
        assert rep.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert repr(rep.min_abs_eigenvalue) == repr(ref.min_abs_eigenvalue)
        a, b = rep.worst_sample, ref.worst_sample
        assert a.point == b.point
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert repr(a.hermiticity_defect) == repr(b.hermiticity_defect)

    @pytest.mark.parametrize("m", [1, ex._CHUNK, ex._CHUNK + 1, 50_000])
    def test_vaisman_matches_one_pass(self, monkeypatch, eigvalsh_inputs, m):
        omega = hp.build_entry("vaisman").forms["Omega"]
        pts = annulus_points(2, m, seed=61)
        values = fm.evaluate_form_many(fm.bidegree_part(omega, 1, 1), pts)
        streamed, whole = self._both(monkeypatch, eigvalsh_inputs, values,
                                     2, m, pts)
        self._assert_same(streamed, whole)
        assert streamed[0].is_definite
        assert streamed[1] == []
        # Through the tape, which hands each chunk's terms in index order.
        del eigvalsh_inputs[:]
        rep = fm.definiteness(omega, pts)
        self._assert_same((rep, eigvalsh_inputs), streamed)

    def test_constant_form_takes_one_lapack_call(self, monkeypatch,
                                                 eigvalsh_inputs):
        # One for n = 3, at one point; none for n = 2.
        m = 2 * ex._CHUNK + 808
        for n in (2, 3):
            omega = hp.build_entry("example2", {"n": n}).forms["Omega"]
            pts = annulus_points(n, m, seed=62)
            # Each coefficient as the tape hands it over: a constant's
            # scalar.
            values = {index: ex.evaluate_many(c, pts) for index, c
                      in fm.bidegree_part(omega, 1, 1).terms.items()}
            assert all(np.ndim(v) == 0 for v in values.values())
            streamed, whole = self._both(monkeypatch, eigvalsh_inputs,
                                         values, n, m, pts)
            self._assert_same(streamed, whole)
            assert [c.shape for c in streamed[1]] == [(1, n, n)][:n - 2]

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_form_keeps_one_point(self, monkeypatch,
                                           eigvalsh_inputs, n):
        omega = hp.build_entry("example2", {"n": n}).forms["Omega"]
        m = 2 * ex._CHUNK + 808  # three chunks
        pts = annulus_points(n, m, seed=65)
        got = []
        for chunk in (ex._CHUNK, m):
            del eigvalsh_inputs[:]
            with monkeypatch.context() as patch:
                patch.setattr(ex, "_CHUNK", chunk)
                fold = fm._RequestTape([(omega, fm._Definite)], n).run(pts)[0]
                rep = fold.report(pts)
            assert fold.constant and fold.least[1] == 0
            got.append((rep, list(eigvalsh_inputs)))
        self._assert_same(*got)
        assert [c.shape for c in got[0][1]] == [(1, n, n)][:n - 2]

    @pytest.mark.parametrize("odd", [None, 0, ex._CHUNK + 7])
    def test_nearly_constant_form_matches_one_pass(self, monkeypatch,
                                                   eigvalsh_inputs, odd):
        # Every point ties for min|lambda|, so the first point of each
        # chunk is a candidate, also where every matrix has the bits of the
        # first: arrays are no constant form, whichever chunk holds the one
        # that differs.
        m = 2 * ex._CHUNK + 5
        hs = _hermitian_stack(np.random.default_rng(66), m, "constant")
        if odd is not None:
            hs[odd, 0, 0] = np.nextafter(hs[odd, 0, 0].real, np.inf)
        values = {(i, 2 + j): -1j * hs[:, i, j]
                  for i in range(2) for j in range(2)}
        pts = np.zeros((m, 2), complex)
        pts[:, 0] = np.arange(m)
        streamed, whole = self._both(monkeypatch, eigvalsh_inputs, values,
                                     2, m, pts)
        self._assert_same(streamed, whole)
        assert streamed[1] == []

    def test_three_dimensional_form_matches_one_pass(self, monkeypatch,
                                                     eigvalsh_inputs):
        phi = ex.add(ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                            ex.mul(ex.z(2), ex.zbar(2))),
                     ex.add(ex.mul(ex.z(3), ex.zbar(3)),
                            ex.intpow(ex.mul(ex.z(1), ex.zbar(1)), 2)))
        m = ex._CHUNK + 904
        pts = annulus_points(3, m, seed=63)
        values = fm.evaluate_form_many(fm.kaehler_form(3, phi), pts)
        streamed, whole = self._both(monkeypatch, eigvalsh_inputs, values,
                                     3, m, pts)
        self._assert_same(streamed, whole)
        assert [c.shape for c in streamed[1]] == [(ex._CHUNK, 3, 3),
                                                  (904, 3, 3)]
        assert [c.shape for c in whole[1]] == [(m, 3, 3)]

    def test_stray_part_wins_over_a_non_finite_coefficient(self):
        m = 3 * ex._CHUNK + 10
        # H = diag(1, |z2|^2), whose (2,2) entry is NaN where z2 is; the
        # (2,0) part z1 dz1 ^ dz2 is 1 at one point of a later chunk.
        pts = np.zeros((m, 2), complex)
        pts[:, 1] = 1.0
        pts[ex._CHUNK + 5, 1] = np.nan  # chunk 2
        pts[2 * ex._CHUNK + 7, 0] = 1.0  # chunk 3
        h22 = ex.mul(ex.const(-1j), ex.mul(ex.z(2), ex.zbar(2)))
        a = fm.form_from_terms(2, 2, {(0, 1): ex.z(1),
                                      (0, 2): ex.const(-1j), (1, 3): h22})
        with pytest.raises(fm.NotType11, match=r"\(2,0\) part has residual 1"):
            fm.definiteness(a, pts)
        with pytest.raises(fm.NonHermitian, match=r"non-finite coefficient "
                           r"at point \(0j, \(nan\+0j\)\)"):
            fm.definiteness(fm.bidegree_part(a, 1, 1), pts)

    def test_hermiticity_defect_past_the_first_chunk(self):
        m = 3 * ex._CHUNK
        hs = np.repeat(np.eye(2, dtype=complex)[None], m, axis=0)
        for k in (ex._CHUNK + 100, 2 * ex._CHUNK + 1):
            hs[k, 0, 1] = 1.0  # the same defect twice: the first is named
        values = {(i, 2 + j): -1j * hs[:, i, j]
                  for i in range(2) for j in range(2)}
        pts = np.zeros((m, 2), complex)
        pts[:, 0] = np.arange(m)
        with pytest.raises(fm.NonHermitian, match=r"defect 0.816 at point "
                                                  r"\(\(4196\+0j\), 0j\)"):
            _definite_fold(values, 2, m).report(pts)
        # A larger defect in a later chunk is named instead.
        hs[2 * ex._CHUNK + 9, 1, 0] = 5.0
        values = {(i, 2 + j): -1j * hs[:, i, j]
                  for i in range(2) for j in range(2)}
        with pytest.raises(fm.NonHermitian, match=r"at point "
                                                  r"\(\(8201\+0j\), 0j\)"):
            _definite_fold(values, 2, m).report(pts)


class TestMaxFold:
    """A request that only a maximum reads keeps one running maximum."""

    def test_equals_the_per_point_residual_maximum(self):
        omega = hp.build_entry("vaisman").forms["Omega"]
        for m in (1, ex._CHUNK, 2 * ex._CHUNK + 3):
            pts = annulus_points(2, m, seed=65)
            for part in ((2, 0), (1, 1), (0, 2)):
                form = fm.bidegree_part(omega, *part)
                got = fm.max_form_residual(form, pts)
                want = fm.pointwise_residual(form, pts).max(initial=0.0)
                assert type(got) is float and repr(got) == repr(float(want))

    def test_nan_in_a_later_chunk_propagates(self):
        m = 3 * ex._CHUNK
        values = np.ones(m, dtype=complex)
        values[ex._CHUNK + 1] = np.nan
        values[2 * ex._CHUNK + 1] = 1e300  # a larger value after the NaN
        assert np.isnan(_max_fold(values, m))
        assert _max_fold(np.ones(m), m) == 1.0

    def test_empty_point_set_gives_zero(self):
        pts = np.zeros((0, 2), dtype=complex)
        assert fm.max_form_residual(fm.form_from_terms(
            2, 1, {(0,): ex.z(1)}), pts) == 0.0
        assert fm.max_form_residual(fm.ExteriorForm(2, 1, {}), pts) == 0.0
        assert _max_fold(np.zeros(0), 0) == 0.0


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
    def _d_z1():
        return fm.form_to_json(fm.d_z(2, 1))

    def test_integral_floats_accepted(self):
        obj = self._d_z1()
        obj.update(degree=1.0, ambient_dim=2.0)
        obj["terms"][0]["index"] = [0.0]
        assert fm.form_from_json(obj) == fm.d_z(2, 1)

    @pytest.mark.parametrize("key,value,message", [
        ("degree", 1.9, "^degree must be a whole number, got 1.9$"),
        ("ambient_dim", "2", "^ambient_dim must be a whole number, got '2'$"),
        ("terms", {"index": [0]}, "^form JSON 'terms' must be a list$")])
    def test_malformed_field_refused(self, key, value, message):
        obj = self._d_z1()
        obj[key] = value
        with pytest.raises(ValueError, match=message):
            fm.form_from_json(obj)

    @pytest.mark.parametrize("index,message", [
        ([0.5], "index must be a whole number, got 0.5"),
        ([True], "index must be a whole number, got True"),
        (0, "not iterable")])
    def test_malformed_index_refused(self, index, message):
        obj = self._d_z1()
        obj["terms"][0]["index"] = index
        with pytest.raises(ValueError, match="^bad form JSON term 0: .*%s"
                                             % message):
            fm.form_from_json(obj)

    def test_term_that_is_a_list_refused(self):
        obj = self._d_z1()
        obj["terms"] = [[[0], obj["terms"][0]["coeff"]]]
        with pytest.raises(ValueError, match="^bad form JSON term 0: "):
            fm.form_from_json(obj)

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
