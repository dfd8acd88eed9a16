"""Tests for the Lee-form solver, identity checks, and the verification suite."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import hopflck.expr as ex
import hopflck.forms as fm
import hopflck.hopf as hp
import hopflck.maps as mp
import hopflck.verify as vf
from hopflck.sampling import annulus_points
from oracles import gaussian_zero_mod, lee_least_squares, random_annulus


class TestSolveLee:
    def test_recovers_catalog_lee_form(self):
        e = hp.example1_entry()
        pts = random_annulus(2, 20, seed=201)
        results = vf.solve_lee_many(e.forms["Omega"], pts)
        theta_vals = fm.evaluate_form_many(e.forms["theta"], pts)
        for k, res in enumerate(results):
            assert res.residual < 1e-12
            assert res.reality_defect < 1e-10
            expected = [theta_vals[(i,)][k] for i in range(4)]
            assert np.allclose(res.theta_coeffs, expected, atol=1e-10)

    def test_kaehler_form_has_zero_lee_form(self):
        om = hp.example2_entry().forms["Omega"]
        res = vf.solve_lee_pointwise(om, (0.5 + 0.1j, -1.2))
        assert res.residual < 1e-13
        assert max(abs(c) for c in res.theta_coeffs) < 1e-13

    def test_recovers_implicit_lee_form(self):
        e = hp.vaisman_entry()
        pts = random_annulus(2, 8, seed=202)
        results = vf.solve_lee_many(e.forms["Omega"], pts)
        theta_vals = fm.evaluate_form_many(e.forms["theta"], pts)
        for k, res in enumerate(results):
            assert res.residual < 1e-8
            expected = [theta_vals[(i,)][k] for i in range(4)]
            assert np.allclose(res.theta_coeffs, expected, atol=1e-7)

    def test_degenerate_form_rejected(self):
        fs = hp.example1_entry().forms["fubini_study"]
        with pytest.raises(vf.DegenerateOmega):
            vf.solve_lee_pointwise(fs, (1.0, 0.5))
        with pytest.raises(vf.DegenerateOmega):
            vf.solve_lee_many(fs, random_annulus(2, 50, seed=204))

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_degeneracy_test_is_scale_invariant(self, scale):
        # theta solves d(c Omega) = theta ^ (c Omega) for every constant c.
        om = hp.example1_entry().forms["Omega"]
        pts = np.concatenate([[(0.8 + 0.1j, -0.6)],
                              random_annulus(2, 20, seed=203)])
        base = vf.solve_lee_many(om, pts)
        scaled = vf.solve_lee_many(om.scale(scale), pts)
        for a, b in zip(base, scaled):
            assert np.allclose(b.theta_coeffs, a.theta_coeffs,
                               rtol=1e-9, atol=1e-12)

    def test_matches_per_point_least_squares_in_dimension_three(self):
        # Omega = omega / rho on C^3 has theta = -d log rho; its 20 x 6
        # design matrices are overdetermined.  The reference builds each
        # column from forms.wedge and solves point by point.
        n = 3
        om = omega_over_rho(n)
        pts = random_annulus(n, 12, seed=205)
        results = vf.solve_lee_many(om, pts)

        basis = [fm.d_z(n, i) for i in range(1, n + 1)]
        basis += [fm.d_zbar(n, i) for i in range(1, n + 1)]
        cols = [fm.evaluate_form_many(fm.wedge(e, om), pts) for e in basis]
        dom = fm.evaluate_form_many(fm.exterior_d(om), pts)
        triples = sorted(dom)
        for k, res in enumerate(results):
            design = np.array([[col.get(t, np.zeros(len(pts)))[k]
                                for col in cols] for t in triples])
            target = np.array([dom[t][k] for t in triples])
            want, *_ = np.linalg.lstsq(design, target, rcond=None)
            assert np.allclose(res.theta_coeffs, want, rtol=0, atol=1e-13)
            z = pts[k]
            closed = -np.concatenate([z.conj(), z]) / np.sum(np.abs(z) ** 2)
            assert np.allclose(res.theta_coeffs, closed, rtol=0, atol=1e-13)
            assert res.residual < 1e-13 and res.reality_defect < 1e-13

    def test_degenerate_error_names_first_bad_point(self):
        # dz1 ^ dzbar1 + z1 dz2 ^ dzbar2 degenerates where z1 = 0.
        om = fm.ExteriorForm(2, 2, {(0, 2): ex.const(1.0), (1, 3): ex.z(1)})
        pts = [(1.0, 1.0), (0.5j, 1.0), (0.0, 1.0), (0.0, 2.0)]
        with pytest.raises(vf.DegenerateOmega, match="at point 2 "):
            vf.solve_lee_many(om, pts)

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="2-form"):
            vf.solve_lee_pointwise(hp.example1_entry().forms["theta"], (1.0, 0.5))

    def test_result_serializes(self):
        res = vf.solve_lee_pointwise(hp.example1_entry().forms["Omega"],
                                     (1.0, 0.5))
        payload = json.dumps(res.to_json(), allow_nan=False)
        assert "theta_coeffs" in payload


def antisymmetric_mats(w):
    """The (m, 4, 4) matrices W from the (6, m) rows W01, ..., W23."""
    mats = np.zeros((w.shape[1], 4, 4), dtype=complex)
    for k, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        mats[:, i, j] = w[k]
        mats[:, j, i] = -w[k]
    return mats


def youla_rows(rng, *s):
    """The upper entries of U diag(s1 J, s2 J, ...) U^T, U a random unitary
    and J = [[0, 1], [-1, 0]]: an antisymmetric W with singular values s1,
    s1, s2, s2, ..., in 2 len(s) dimensions."""
    nn = 2 * len(s)
    u, _ = np.linalg.qr(rng.normal(size=(nn, nn))
                        + 1j * rng.normal(size=(nn, nn)))
    j = np.zeros((nn, nn))
    for k, sk in enumerate(s):
        j[2 * k, 2 * k + 1], j[2 * k + 1, 2 * k] = sk, -sk
    w = u @ j @ u.T
    return np.array([w[a, b] for a, b in itertools.combinations(range(nn), 2)])


def wedge_rows(theta, w, nn):
    """theta ^ Omega as (triples, m) rows, from theta as (m, nn) and the
    (pairs, m) rows of W."""
    pair = {ij: k for k, ij in enumerate(itertools.combinations(range(nn), 2))}
    return np.array([theta[:, a] * w[pair[b, c]] - theta[:, b] * w[pair[a, c]]
                     + theta[:, c] * w[pair[a, b]]
                     for a, b, c in itertools.combinations(range(nn), 3)])


def lee_rows(om, pts):
    """Omega's (pairs, m) rows W_ij and d Omega's (triples, m) rows V_abc."""
    nn = 2 * om.ambient_dim
    both = fm._evaluate_forms(
        [(om, fm._Full), (fm.exterior_d(om), fm._Full)], pts)
    return (np.array([vals.get(key, np.zeros(len(pts)))
                      for key in itertools.combinations(range(nn), k)],
                     dtype=complex)
            for vals, k in ((both[0], 2), (both[1], 3)))


def omega_over_rho(n):
    """omega / |z|^2 on C^n, whose Lee form is -d log |z|^2."""
    rho = ex.const(0.0)
    for i in range(1, n + 1):
        rho = ex.add(rho, ex.mul(ex.z(i), ex.zbar(i)))
    return fm.kaehler_form(n, rho).scale(ex.div(ex.const(1.0), rho))


def minus_d_log_rho(pts):
    """-d log |z|^2 at each point, (m, 2n)."""
    return -np.concatenate([pts.conj(), pts], axis=1) / (
        np.abs(pts) ** 2).sum(axis=1, keepdims=True)


def lapack_gate(w):
    """The degeneracy gate with LAPACK's singular values at every point, the
    reference for the closed-form gate on C^2."""
    sv = np.linalg.svd(antisymmetric_mats(w), compute_uv=False)
    bad = np.flatnonzero(~(sv[:, -1] > vf.LEE_RCOND * sv[:, 0]))
    if bad.size:
        k = int(bad[0])
        ratio = sv[k, -1] / sv[k, 0] if sv[k, 0] > 0 else 0.0
        raise vf.DegenerateOmega(
            "2-form degenerate at point %d (sigma_min/sigma_max = %.3g)"
            % (k, ratio))


def outcome(call, *args):
    """None, or the type and message of the error ``call`` raises."""
    try:
        call(*args)
    except vf.DegenerateOmega as err:
        return type(err).__name__, str(err)
    return None


def degenerate_at(message):
    """The point and the sigma_min/sigma_max a DegenerateOmega message
    names."""
    found = re.fullmatch(r"2-form degenerate at point (\d+) "
                         r"\(sigma_min/sigma_max = (\S+)\)", message)
    return int(found[1]), float(found[2])


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of every stack passed to np.linalg.svd."""
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


class TestLeeClosedForm:
    """theta_a = sum_{b<c} (W^-1)_cb V_abc / (n - 1), which on C^2 is -W *V /
    Pf W, against an independent batched QR least-squares solve."""

    @pytest.mark.parametrize("n,w_scale,v_scale", [
        pytest.param(n, w, v, id=("%s-%s" if n == 2 else "c3-%s-%s") % (w, v))
        for n in (2, 3) for w, v in [
            (1.0, 1.0), (1e100, 1e100), (1e-100, 1e-100), (1e150, 1e150),
            (1e-150, 1e-150), (1e150, 1e-100), (1e-150, 1e100), (1e100, 1.0),
            (1e-100, 1.0)]])
    def test_matches_least_squares_at_every_scale(self, n, w_scale, v_scale):
        rng = np.random.default_rng(291)
        m = 64
        s2 = 10.0 ** rng.uniform(-3, 0, size=m)
        w = np.stack([youla_rows(rng, 1.0, *(s ** (k / (n - 1))
                                             for k in range(1, n)))
                      for s in s2], axis=1) * w_scale
        if n == 2:  # theta ^ Omega is onto
            v = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
        else:  # d Omega in its image
            theta = (rng.normal(size=(m, 2 * n))
                     + 1j * rng.normal(size=(m, 2 * n)))
            v = wedge_rows(theta, w / w_scale, 2 * n)
        v = v * v_scale
        coeffs, residual, reality = vf._lee_solve(w, v, n)
        want, want_residual = lee_least_squares(w, v, 2 * n)

        cond = 1.0 / s2  # sigma_max / sigma_min
        size = np.abs(want).max(axis=1)
        assert np.all(size > 0) and np.all(np.isfinite(size))
        err = np.abs(coeffs - want).max(axis=1)
        assert np.all(err <= 1e-12 * cond * size)
        # Both residuals are rounding errors of |theta| |W| + |V|.
        terms = size * np.abs(w).max(axis=0) + np.abs(v).max(axis=0)
        assert np.all(residual <= 1e-12 * cond * terms)
        assert np.all(want_residual <= 1e-12 * cond * terms)
        want_reality = np.abs(want[:, n:] - np.conj(want[:, :n])).max(axis=1)
        assert np.all(np.abs(reality - want_reality) <= 1e-12 * cond * size)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverts_the_wedge(self, n):
        # theta ^ Omega for a known theta, solved back.
        rng = np.random.default_rng(292)
        m = 32
        w = np.stack([youla_rows(rng, *(1.0, 0.3, 0.5, 0.7)[:n])
                      for _ in range(m)], axis=1)
        theta = (rng.normal(size=(m, 2 * n))
                 + 1j * rng.normal(size=(m, 2 * n)))
        v = wedge_rows(theta, w, 2 * n)
        coeffs, residual, _ = vf._lee_solve(w, v, n)
        assert np.allclose(coeffs, theta, rtol=0, atol=1e-13)
        assert np.all(residual < 1e-13)

    @pytest.mark.parametrize("name", ["example1", "vaisman"])
    def test_residual_is_no_larger_than_least_squares(self, name):
        # One step of iterative refinement: without it the closed form's
        # largest and median residual on example1 exceed the QR solve's.
        w, v = lee_rows(hp.build_entry(name).forms["Omega"],
                        annulus_points(2, 2000, 7))
        _, residual, _ = vf._lee_solve(w, v, 2)
        _, want = lee_least_squares(w, v, 4)
        assert residual.max() <= want.max()
        assert np.median(residual) <= np.median(want)

    @pytest.mark.parametrize("name", ["example1", "vaisman", "example2"])
    def test_c2_is_the_pfaffian_closed_form_bit_for_bit(self, name):
        # theta = -W *V / Pf W written out, with W and V scaled by powers of
        # two per point and one refinement step, has the solve's bits.
        w, v = lee_rows(hp.build_entry(name).forms["Omega"],
                        annulus_points(2, 500, 7))

        def scaled(x):
            parts = x.view(np.float64)
            big = np.abs(parts).max(axis=0, initial=0.0)
            e = np.frexp(np.maximum(big[0::2], big[1::2]))[1]
            return np.ldexp(parts, np.repeat(-e, 2)).view(complex), e

        (w01, w02, w03, w12, w13, w23), ew = scaled(w)
        pf = w01 * w23 - w02 * w13 + w03 * w12

        def solve(v):
            (v012, v013, v023, v123), ev = scaled(v)
            theta = np.array([w01 * v023 - w02 * v013 + w03 * v012,
                              w01 * v123 - w12 * v013 + w13 * v012,
                              w02 * v123 - w12 * v023 + w23 * v012,
                              w03 * v123 - w13 * v023 + w23 * v013]) / pf
            parts = theta.view(np.float64)
            np.ldexp(parts, np.repeat(ev - ew, 2), out=parts)
            return theta

        theta = solve(v)
        theta -= solve(wedge_rows(theta.T, w, 4) - v)
        coeffs, _, _ = vf._lee_solve(w, v, 2)
        assert coeffs.tobytes() == theta.T.copy().tobytes()

    def test_minus_d_log_rho_on_c3(self):
        # omega / |z|^2 is lcK with theta = -d log |z|^2; the contraction's
        # largest residual is no larger than the QR solve's.
        pts = annulus_points(3, 2000, 7)
        w, v = lee_rows(omega_over_rho(3), pts)
        coeffs, residual, reality = vf._lee_solve(w, v, 3)
        assert np.abs(coeffs - minus_d_log_rho(pts)).max() <= 1e-12
        _, want = lee_least_squares(w, v, 6)
        assert residual.max() <= want.max()
        assert reality.max() <= 1e-12

    @pytest.mark.parametrize("k", [3, 6, 9, 11, 14, 20, 30])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_gate_agrees_with_lapack_across_the_band(self, k, side):
        rng = np.random.default_rng(293 + k)
        ratio = vf.LEE_RCOND * (1 + side * 2.0 ** -k)
        w = np.stack([youla_rows(rng, 2.0, 1.0), youla_rows(rng, 1.0, 0.7),
                      youla_rows(rng, 3.0, 3.0 * ratio),
                      youla_rows(rng, 1.0, 0.1)], axis=1)
        v = rng.normal(size=(4, 4)) + 0j
        want = outcome(lapack_gate, w)
        got = outcome(vf._lee_solve, w, v, 2)
        if k <= 10:  # far from rounding: LAPACK's outcome
            assert (want is None) == (side > 0)
            assert got == want
        else:  # within rounding of the gate: a clean solve or a refusal
            assert got is None or degenerate_at(got[1])[0] == 2

    @pytest.mark.parametrize("ratios", [
        [0.5, vf.LEE_RCOND * (1 + 2.0 ** -30), 1e-12, 0.5],
        [0.5, 1e-12, vf.LEE_RCOND * (1 - 2.0 ** -30), 0.5],
        [vf.LEE_RCOND * (1 - 2.0 ** -30), vf.LEE_RCOND * (1 + 2.0 ** -30)],
        [0.5, 0.0, 1e-12],
        [1.0, 1.0, 1.0]])
    def test_first_degenerate_point_agrees_with_lapack(self, ratios):
        # A ratio within 2^-30 of LEE_RCOND is within rounding of W's
        # entries (about 1e-6 relative at sigma_min/sigma_max = 1e-10), so
        # either verdict is right there, for LAPACK and the closed form
        # alike; each must name a point the ratios allow.
        rng = np.random.default_rng(294)
        w = np.stack([youla_rows(rng, 1.0, r) for r in ratios], axis=1)
        v = rng.normal(size=(4, len(ratios))) + 0j
        band = vf.LEE_RCOND * 2.0 ** -10
        for got in (outcome(vf._lee_solve, w, v, 2), outcome(lapack_gate, w)):
            named = len(ratios) if got is None else degenerate_at(got[1])[0]
            assert all(r > vf.LEE_RCOND - band for r in ratios[:named])
            if got is not None:
                point, ratio = degenerate_at(got[1])
                assert ratios[point] < vf.LEE_RCOND + band
                assert ratio <= vf.LEE_RCOND

    def test_rank_two_is_degenerate_as_lapack_says(self):
        rng = np.random.default_rng(295)
        a, b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        wedge = np.array([a[i] * b[j] - a[j] * b[i]
                          for i, j in itertools.combinations(range(4), 2)])
        exact = np.array([0, 1, 0, 0, 0, 0], dtype=complex)  # dz1 ^ dzbar1
        for bad in (wedge, exact):
            w = np.stack([youla_rows(rng, 1.0, 0.5), bad], axis=1)
            v = np.ones((4, 2), dtype=complex)
            want = outcome(lapack_gate, w)
            assert want[0] == "DegenerateOmega" and "at point 1 " in want[1]
            got = outcome(vf._lee_solve, w, v, 2)
            assert got[0] == "DegenerateOmega"
            point, ratio = degenerate_at(got[1])
            assert point == 1 and ratio <= vf.LEE_RCOND

    def test_zero_form_is_degenerate(self):
        # W = 0 has no sigma_min/sigma_max; the gate refuses it all the same.
        w = np.zeros((6, 2), dtype=complex)
        w[:, 0] = youla_rows(np.random.default_rng(297), 1.0, 0.5)
        v = np.ones((4, 2), dtype=complex)
        got = outcome(vf._lee_solve, w, v, 2)
        assert got == ("DegenerateOmega", "2-form degenerate at point 1 "
                       "(sigma_min/sigma_max = nan)")

    def test_c2_solve_takes_no_svd(self, svd_calls):
        w, v = lee_rows(hp.build_entry("vaisman").forms["Omega"],
                        annulus_points(2, 500, 7))
        del svd_calls[:]  # building the entry takes one
        vf._lee_solve(w, v, 2)
        degenerate = w.copy()
        degenerate[:, 3] = 0.0
        with pytest.raises(vf.DegenerateOmega, match="at point 3 "):
            vf._lee_solve(degenerate, v, 2)
        assert svd_calls == []
        # On C^3 LAPACK's SVD gates every point, in one call.
        w, v = lee_rows(omega_over_rho(3), annulus_points(3, 40, 7))
        del svd_calls[:]
        vf._lee_solve(w, v, 3)
        assert svd_calls == [(40, 6, 6)]

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_coefficient_is_refused_before_lapack(
            self, capfd, value, where):
        # Refused before any SVD, even after the degenerate point 1: LAPACK
        # fails to converge on a NaN, and on an inf prints to stderr and
        # returns NaN singular values.
        rng = np.random.default_rng(296)
        w = np.stack([youla_rows(rng, 1.0, 0.5), youla_rows(rng, 1.0, 1e-12),
                      youla_rows(rng, 1.0, 0.5)], axis=1)
        w[4, where] = value
        v = np.ones((4, 3), dtype=complex)
        with pytest.raises(vf.DegenerateOmega, match=(
                "non-finite coefficient at point %d$" % where)):
            vf._lee_solve(w, v, 2)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_is_refused_on_c3(self, capfd, value):
        rng = np.random.default_rng(299)
        w = rng.normal(size=(15, 3)) + 1j * rng.normal(size=(15, 3))
        w[7, 1] = value
        v = np.ones((20, 3), dtype=complex)
        with pytest.raises(vf.DegenerateOmega,
                           match="non-finite coefficient at point 1$"):
            vf._lee_solve(w, v, 3)
        assert capfd.readouterr().err == ""

    def test_no_points(self):
        for om in (hp.example1_entry().forms["Omega"],
                   hp.build_entry("example2", {"n": 3}).forms["Omega"]):
            n = om.ambient_dim
            coeffs, residual, reality = vf._solve_lee_arrays(
                om, np.empty((0, n), dtype=complex))
            assert coeffs.shape == (0, 2 * n)
            assert residual.shape == reality.shape == (0,)
            assert vf.solve_lee_many(om, np.empty((0, n), dtype=complex)) == []

    def test_one_point_is_a_row_of_many(self):
        om = hp.example1_entry().forms["Omega"]
        pts = random_annulus(2, 9, seed=297)
        many = vf.solve_lee_many(om, pts)
        for k in (0, 4, 8):
            assert vf.solve_lee_pointwise(om, pts[k]) == many[k]
        z = pts[4]
        closed = -np.concatenate([z.conj(), z]) / np.sum(np.abs(z) ** 2)
        assert np.allclose(many[4].theta_coeffs, closed, rtol=0, atol=1e-15)

    def test_constant_kaehler_form_has_lee_form_zero(self):
        # example2's Omega has constant coefficients and d Omega = 0.
        om = hp.example2_entry().forms["Omega"]
        coeffs, residual, reality = vf._solve_lee_arrays(
            om, random_annulus(2, 50, seed=298))
        assert np.all(coeffs == 0)
        assert np.all(residual == 0) and np.all(reality == 0)


class TestVerifyLck:
    def test_catalog_entry_passes(self):
        e = hp.example1_entry()
        pts = random_annulus(2, 60, seed=211)
        rep = vf.verify_lck(e.forms["Omega"], e.forms["theta"], pts)
        assert rep.passed and rep.status == "pass"
        assert rep.max_residual < 1e-12
        assert rep.tolerance == 1e-10
        assert rep.num_points == 60
        assert rep.details["definiteness"]["sign"] == 1
        assert len(rep.details["worst_points"]) == 3

    def test_implicit_forms_get_relaxed_tolerance(self):
        e = hp.vaisman_entry()
        pts = random_annulus(2, 20, seed=212)
        rep = vf.verify_lck(e.forms["Omega"], e.forms["theta"], pts)
        assert rep.tolerance == 1e-8
        assert rep.passed

    def test_wrong_lee_form_fails(self):
        e = hp.example1_entry()
        pts = random_annulus(2, 20, seed=213)
        rep = vf.verify_lck(e.forms["Omega"], e.forms["theta"].scale(2.0), pts)
        assert not rep.passed and rep.status == "fail"
        assert rep.max_residual > 0.01

    def test_conformal_rescaling_shifts_lee_form(self):
        """d(e^-s Omega) = (theta - ds) ^ (e^-s Omega) for s = |z1|^2."""
        e = hp.example1_entry()
        s = ex.mul(ex.z(1), ex.zbar(1))
        rescaled = e.forms["Omega"].scale(ex.exp(ex.mul(ex.const(-1.0), s)))
        shifted = e.forms["theta"] - fm.exterior_d(fm.scalar_form(2, s))
        pts = random_annulus(2, 40, seed=214)
        rep = vf.verify_lck(rescaled, shifted, pts, tolerance=1e-9)
        assert rep.passed and rep.max_residual < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_closedness_residual_fails(self):
        # theta ^ Omega has no terms, so the lcK residual is 0.0; d theta is
        # 0 but for exp(800) * exp(-800) = inf * 0 = NaN at the second point.
        f = ex.mul(ex.exp(ex.zbar(1)), ex.exp(ex.mul(ex.const(-1.0),
                                                     ex.zbar(1))))
        theta = fm.ExteriorForm(2, 1, {(0,): f})
        om = fm.ExteriorForm(2, 2, {(0, 2): ex.const(1.0)})
        rep = vf.verify_lck(om, theta, [(0.5, 0.5), (800.0, 0.5)])
        assert rep.details["lck_residual"] == 0.0
        assert math.isnan(rep.details["lee_closedness_residual"])
        assert rep.status == "fail" and math.isnan(rep.max_residual)

    def test_dimension_mismatch(self):
        e1 = hp.example1_entry()
        e3 = hp.example2_entry(n=3)
        with pytest.raises(ex.DimensionMismatch):
            vf.verify_lck(e1.forms["Omega"], e3.forms["theta"],
                          random_annulus(2, 5, seed=215))

    def test_points_of_another_dimension_refused(self):
        e = hp.example1_entry()
        with pytest.raises(ex.DimensionMismatch,
                           match=r"^points dimension 3 vs form on C\^2$"):
            vf.verify_lck(e.forms["Omega"], e.forms["theta"],
                          annulus_points(3, 5, 0))


# Every form evaluation refuses points of another dimension with one
# message: narrow points, with which a form would fail mid-evaluation, and
# wide ones, whose extra coordinates it would ignore.
_EXAMPLE1 = hp.example1_entry()
_DIMENSION_CALLS = {
    "verify_potential": (1, lambda pts: vf.verify_potential(
        *hp.example2_potential(), pts)),
    "verify_invariance": (3, lambda pts: vf.verify_invariance(
        _EXAMPLE1.forms["theta"], _EXAMPLE1.group.cyclic_generator, pts)),
    "max_form_residual": (3, lambda pts: fm.max_form_residual(
        _EXAMPLE1.forms["theta"], pts)),
    "evaluate_form_many": (3, lambda pts: fm.evaluate_form_many(
        _EXAMPLE1.forms["theta"], pts)),
    "solve_lee_many": (3, lambda pts: vf.solve_lee_many(
        _EXAMPLE1.forms["Omega"], pts)),
}


@pytest.mark.parametrize("name", _DIMENSION_CALLS)
def test_every_form_evaluation_refuses_points_of_another_dimension(name):
    columns, call = _DIMENSION_CALLS[name]
    pts = (np.ones((5, 1), dtype=complex) if columns == 1
           else annulus_points(columns, 5, 0))
    with pytest.raises(ex.DimensionMismatch,
                       match=r"^points dimension %d vs form on C\^2$"
                       % columns):
        call(pts)


# A constant form (example2's) and one that is not (vaisman's Omega, and
# the potential |z1|^2 + |z2|^4).
@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("check", ["definiteness", "lck", "potential"])
def test_definiteness_refuses_zero_points(monkeypatch, constant, check):
    e = hp.build_entry("example2" if constant else "vaisman")
    phi, group = hp.example2_potential()
    if not constant:
        phi = ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                     ex.intpow(ex.mul(ex.z(2), ex.zbar(2)), 2))
    calls = {
        "definiteness": lambda pts: fm.definiteness(e.forms["Omega"], pts),
        "lck": lambda pts: vf.verify_lck(e.forms["Omega"], e.forms["theta"],
                                         pts),
        "potential": lambda pts: vf.verify_potential(phi, group, pts),
    }

    def never(*args):
        raise AssertionError("the tape ran")

    monkeypatch.setattr(ex._Tape, "run", never)
    with pytest.raises(ValueError, match="^definiteness needs at least one "
                                         "sample point$"):
        calls[check](np.empty((0, 2), dtype=complex))


class TestVerifyPotential:
    def test_homothety_with_expected_factor(self):
        mu = 1.5 + 0.5j
        phi, group = hp.example2_potential(mu=mu)
        pts = random_annulus(2, 50, seed=221)
        rep = vf.verify_potential(phi, group, pts)
        assert rep.passed
        assert rep.num_points == 50
        gen = rep.details["generators"][0]
        assert gen["deviation"] < 1e-12
        assert gen["relative_deviation"] < 1e-12
        assert abs(gen["rho"] - abs(mu) ** 2) < 1e-12
        assert rep.details["definiteness"]["sign"] == 1
        assert rep.details["closedness_residual"] < 1e-12
        # Both identities are proven: the check is exact.
        assert rep.details["method"] == "exact-modular"
        assert rep.max_residual == 0.0

    def test_missing_potential_is_refused_before_the_suite(self,
                                                           monkeypatch):
        # example1, kodaira and vaisman have no potential: passing theirs
        # names it, and no suite is built.
        def never(*args):
            raise AssertionError("a suite was built")

        monkeypatch.setattr(vf, "_Suite", never)
        entry = hp.build_entry("vaisman")
        assert entry.potential is None
        with pytest.raises(ValueError, match="^verify_potential needs a "
                                             "potential Phi, got None$"):
            vf.verify_potential(entry.potential, entry.group,
                                random_annulus(2, 5, seed=224))

    def test_identity_action_has_unit_ratio(self):
        phi, _ = hp.example2_potential()
        group = mp.GroupSpec((np.eye(2),), mp.PolyAutomorphism.identity(2))
        rep = vf.verify_potential(phi, group, random_annulus(2, 10, seed=222))
        assert rep.passed
        assert rep.details["generators"][0]["rho"] == pytest.approx(1.0)

    def test_nonpositive_ratio_fails(self):
        # |z|^2 - 0.24 is positive on the annulus, but halving z makes it
        # negative wherever |z|^2 < 0.96, and its mean ratio is negative.
        phi = ex.add(ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                            ex.mul(ex.z(2), ex.zbar(2))), ex.const(-0.24))
        group = mp.GroupSpec((np.eye(2),),
                             mp.PolyAutomorphism.diagonal([0.5, 0.5]))
        rep = vf.verify_potential(phi, group, annulus_points(2, 1000, 0))
        (gen,) = rep.details["generators"]
        assert rep.status == "fail" and rep.details["method"] == "sampled"
        assert rep.details["nonpositive_ratio"] is True
        assert gen["rho"] == pytest.approx(-0.248, abs=1e-3)

    def test_shear_action_is_not_a_homothety(self):
        """The non-diagonal contraction moves the potential anisotropically."""
        phi, _ = hp.example2_potential()
        group = hp.kodaira_entry(alpha=0.5, t=1.0).group
        rep = vf.verify_potential(phi, group, random_annulus(2, 50, seed=223))
        assert not rep.passed
        assert rep.details["generators"][0]["deviation"] >= 0.9

    def test_negative_potential_rejected(self):
        phi, group = hp.example2_potential()
        bad = ex.mul(ex.const(-1.0), phi)
        with pytest.raises(vf.NonPositivePotential):
            vf.verify_potential(bad, group, random_annulus(2, 5, seed=224))

    def test_complex_potential_rejected(self):
        _, group = hp.example2_potential()
        with pytest.raises(vf.NonPositivePotential):
            vf.verify_potential(ex.z(1), group, random_annulus(2, 5, seed=225))

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12])
    def test_realness_test_is_relative(self, scale):
        # The cross terms leave a rounding-size imaginary part that grows with
        # the scale; relative to Re Phi it does not.
        phi, group = hp.example2_potential()
        cross = ex.add(ex.mul(ex.z(1), ex.zbar(2)), ex.mul(ex.z(2), ex.zbar(1)))
        scaled = ex.mul(ex.const(scale),
                        ex.add(phi, ex.mul(ex.const(0.5), cross)))
        pts = random_annulus(2, 50, seed=226)
        if scale >= 1e8:
            assert np.max(np.abs(ex.evaluate_many(scaled, pts).imag)) > 1e-12
        rep = vf.verify_potential(scaled, group, pts)
        assert rep.status == "pass"
        assert rep.details["definiteness"]["sign"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_spread_fails(self):
        # Phi(g z) overflows at every point, so every ratio is inf and the
        # spread inf - inf is NaN.
        phi, _ = hp.example2_potential()
        group = mp.GroupSpec((np.eye(2),),
                             mp.PolyAutomorphism.diagonal([1e200, 1e200]))
        rep = vf.verify_potential(phi, group, random_annulus(2, 5, seed=228))
        assert rep.details["closedness_residual"] < 1e-12
        assert math.isnan(rep.details["generators"][0]["deviation"])
        assert rep.status == "fail" and math.isnan(rep.max_residual)
        # The ratio identity is proven, but its float spread is NaN, so the
        # check falls back to sampling.
        suite = vf._Suite(2, {}, phi, [group.cyclic_generator.as_expressions()])
        assert all(bound is not None for bound in suite.proofs)
        assert rep.details["method"] == "sampled"

    @pytest.mark.parametrize("w", [1.0, 5.0, 20.0])
    def test_spread_is_relative_to_the_ratio(self, w):
        # |z1|^2 + |z2|^4 is not homothetic under any scalar deck.  At w = 20
        # its ratio is about 2.4e-18 and its spread 4.2e-18: an absolute
        # spread passed it, relative to |rho| it is 1.74.
        phi = ex.add(ex.mul(ex.z(1), ex.zbar(1)),
                     ex.intpow(ex.mul(ex.z(2), ex.zbar(2)), 2))
        group = hp.vaisman_entry(r=(w, w)).group
        rep = vf.verify_potential(phi, group, annulus_points(2, 1000, 0))
        gen = rep.details["generators"][0]
        assert rep.status == "fail" and rep.details["method"] == "sampled"
        assert gen["relative_deviation"] > 1.0
        assert rep.max_residual == gen["relative_deviation"]
        assert gen["deviation"] == pytest.approx(
            gen["relative_deviation"] * abs(gen["rho"]))

    @pytest.mark.parametrize("c", [6.0, 20.0])
    def test_closedness_of_a_large_potential_is_proven(self, c):
        # Phi = exp(-2 c t) reaches about 1e12 on the annulus at c = 20,
        # where d omega~ evaluated in floats is 1.6e-2: an absolute
        # tolerance of 1e-8 failed it.  The closedness is proven, as d omega~
        # / Phi; the ratio under a deck of rounded numbers is not, so it is
        # sampled.
        t = ex.implicit_t((1.0, 1.5))
        phi = ex.exp(ex.mul(ex.const(-2.0 * c), t))
        group = hp.vaisman_entry(r=(1.0, 1.5)).group
        rep = vf.verify_potential(phi, group, annulus_points(2, 1000, 0))
        details = rep.details
        assert rep.passed and rep.tolerance == vf.IMPLICIT_TOL
        assert details["closedness_residual"] == 0.0
        assert details["float_residual"] < 1e-10
        assert details["method"] == "sampled"
        gen = details["generators"][0]
        assert gen["rho"] == pytest.approx(math.exp(-2.0 * c))
        assert gen["relative_deviation"] < 1e-10

    @pytest.mark.parametrize("c", [30.0, 100.0])
    def test_a_potential_below_the_divisor_eps_passes(self, c):
        # Phi = exp(-2 c t) falls to about 1.9e-17 (c = 30) and 1.9e-56
        # (c = 100) at the inner radius, below DIVISION_EPS, and g*Phi/Phi
        # and d omega~ / Phi divide by it.  An exp vanishes nowhere, so it
        # fails only where it underflows to 0: both pass, with the
        # closedness proven.
        t = ex.implicit_t((1.0, 1.5))
        phi = ex.exp(ex.mul(ex.const(-2.0 * c), t))
        group = hp.vaisman_entry(r=(1.0, 1.5)).group
        rep = vf.verify_potential(phi, group, annulus_points(2, 1000, 0))
        details = rep.details
        assert rep.passed and details["closedness_residual"] == 0.0
        assert 0.0 < details["float_residual"] < rep.tolerance
        gen = details["generators"][0]
        assert gen["rho"] == pytest.approx(math.exp(-2.0 * c))
        assert gen["relative_deviation"] < 1e-10

    def test_small_relative_imaginary_part_rejected(self):
        phi, group = hp.example2_potential()
        tilted = ex.add(phi, ex.mul(ex.const(0.1j), ex.mul(ex.z(1), ex.zbar(1))))
        with pytest.raises(vf.NonPositivePotential):
            vf.verify_potential(tilted, group, random_annulus(2, 5, seed=227))


class TestVerifyInvariance:
    def test_invariant_form_passes(self):
        e = hp.example1_entry()
        rep = vf.verify_invariance(e.forms["Omega"], e.group.cyclic_generator,
                                   random_annulus(2, 30, seed=231))
        assert rep.passed and rep.max_residual < 1e-12

    def test_non_invariant_form_fails(self):
        form = fm.d_z(2, 1)
        g = mp.PolyAutomorphism.diagonal([2.0, 2.0])
        rep = vf.verify_invariance(form, g, random_annulus(2, 10, seed=232))
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0)


class TestSuiteConfig:
    def test_defaults(self):
        c = vf.SuiteConfig()
        assert c.points == 1000 and c.seed == 42 and c.tol is None

    def test_validation(self):
        with pytest.raises(ValueError, match="points"):
            vf.SuiteConfig(points=0)
        with pytest.raises(ValueError, match="points must be <= %d, got %d"
                           % (vf.MAX_POINTS, vf.MAX_POINTS + 1)):
            vf.SuiteConfig(points=vf.MAX_POINTS + 1)
        assert vf.SuiteConfig(points=vf.MAX_POINTS).points == vf.MAX_POINTS
        with pytest.raises(ValueError, match="tol"):
            vf.SuiteConfig(tol=0.0)
        vf.SuiteConfig(tol=1e-6)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            vf.SuiteConfig(seed=-1)
        assert vf.SuiteConfig(seed=0).seed == 0

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": math.inf}, "tol must be positive and finite, got inf"),
        ({"tol": -math.inf}, "tol must be positive and finite, got -inf"),
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"points": 2.5}, "points must be an integer, got 2.5"),
        ({"points": 200.0}, "points must be an integer, got 200.0"),
        ({"points": True}, "points must be an integer, got True"),
        ({"seed": 7.5}, "seed must be an integer, got 7.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"tol": True}, "tol must be a real number, got True"),
        ({"tol": "1e-6"}, "tol must be a real number, got '1e-6'"),
        ({"tol": 1e-6j}, "tol must be a real number, got 1e-06j")],
        ids=["inf", "-inf", "nan", "points-2.5", "points-200.0",
             "points-bool", "seed-7.5", "seed-bool", "tol-bool", "tol-str",
             "tol-complex"])
    def test_refused_up_front_naming_the_key(self, kwargs, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            vf.SuiteConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = vf.SuiteConfig(points=np.int64(20), seed=np.uint8(3))
        assert (config.points, config.seed) == (20, 3)

    def test_real_tolerances_accepted(self):
        # A boolean tolerance of 1 ran the suite before; any real number
        # type is a tolerance.
        for tol in (1, 1e-6, np.float32(1e-3), np.float64(1e-9)):
            assert vf.SuiteConfig(tol=tol).tol == tol


class TestRunSuite:
    def small(self, **kw):
        return vf.SuiteConfig(points=kw.pop("points", 80), **kw)

    def test_suite_without_sample_requests_draws_no_points(self, monkeypatch):
        # kodaira's suite has no sample request, so its reports are the
        # same whether or not points could be drawn.
        entry = hp.build_entry("kodaira", {"alpha": 0.7j, "t": 1.5})
        config = vf.SuiteConfig(points=500, seed=3)
        want = vf.reports_to_json(vf.run_suite(entry, config))

        def refuse(*args):
            raise AssertionError("a suite without sample requests drew points")
        monkeypatch.setattr(vf, "annulus_points", refuse)
        got = vf.reports_to_json(vf.run_suite(entry, config))
        assert json.dumps(got) == json.dumps(want)
        assert [r["check_name"] for r in got] == ["fixed_point_free",
                                                  "contraction"]

    def test_example1_check_order_and_status(self):
        reports = vf.run_suite(hp.example1_entry(), self.small())
        assert [r.check_name for r in reports] == [
            "lck_residual", "lee_closedness", "definiteness",
            "invariance_theta", "invariance_psi",
            "fixed_point_free", "contraction"]
        assert vf.suite_passed(reports)
        by_name = {r.check_name: r for r in reports}
        assert by_name["lck_residual"].tolerance == 1e-10
        assert by_name["definiteness"].details["sign"] == 1
        assert by_name["contraction"].details["certified_map"] == "generator_inverse"

    def test_example2_includes_potential_check(self):
        reports = vf.run_suite(hp.example2_entry(), self.small())
        names = [r.check_name for r in reports]
        assert "potential_homothety" in names
        assert names.index("definiteness") < names.index("potential_homothety")
        assert vf.suite_passed(reports)

    def test_fifty_thousand_points_keep_no_per_point_residuals(self):
        # Each chunk's coefficients are classified and folded as the tape
        # hands them over, so a warmed request holds little beyond its
        # 1.6 MB of points (the whole-array classification peaked at
        # 11.8 MB above the start).
        entry = hp.build_entry("vaisman")
        vf.run_suite(entry, self.small(points=50_000, seed=1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reports = vf.run_suite(entry, self.small(points=50_000, seed=2))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert vf.suite_passed(reports)
        assert peak <= 6e6, peak

    def test_kodaira_suite_has_only_group_checks(self):
        reports = vf.run_suite(hp.kodaira_entry(), self.small())
        assert [r.check_name for r in reports] == ["fixed_point_free",
                                                   "contraction"]
        assert vf.suite_passed(reports)
        assert reports[-1].details["certified_map"] == "generator"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_invariance_residual_fails(self):
        # example1's forms under z -> 1e200 z, which the catalog refuses:
        # |mu z|^2 overflows.
        base = hp.example1_entry()
        group = mp.GroupSpec((np.eye(2, dtype=complex),),
                             mp.PolyAutomorphism.diagonal([1e200, 1e200]))
        entry = hp.HopfSurfaceCatalogEntry("example1", 2, base.forms, group,
                                           {})
        reports = vf.run_suite(entry, vf.SuiteConfig(points=3))
        by_name = {r.check_name: r for r in reports}
        for key in ("theta", "psi"):
            rep = by_name["invariance_" + key]
            assert [math.isnan(g["residual"])
                    for g in rep.details["generators"]] == [True]
            assert rep.status == "fail" and math.isnan(rep.max_residual)

    def test_vaisman_suite_uses_implicit_tolerance(self):
        reports = vf.run_suite(hp.vaisman_entry(), self.small())
        assert vf.suite_passed(reports)
        by_name = {r.check_name: r for r in reports}
        assert by_name["lck_residual"].tolerance == 1e-8
        assert by_name["definiteness"].details["sign"] == -1

    def test_non_contracting_generator_fails_suite(self):
        bad_group = mp.GroupSpec((np.eye(2, dtype=complex),),
                                 mp.PolyAutomorphism.diagonal([1.2, 0.5]))
        entry = hp.HopfSurfaceCatalogEntry("broken", 2, {}, bad_group, {})
        reports = vf.run_suite(entry, self.small())
        assert not vf.suite_passed(reports)
        contraction = reports[-1]
        assert contraction.status == "fail"
        assert contraction.details["certified_map"] is None
        # Neither orientation contracts; the generator's own result is kept,
        # not that of its inverse diag(1/1.2, 2).
        own = mp.contraction_test(bad_group.cyclic_generator)
        assert contraction.details["spectral_radius"] == pytest.approx(1.2)
        assert contraction.details["reason"] == own.reason

    @pytest.mark.parametrize("make", [hp.example1_entry, hp.vaisman_entry])
    def test_suite_residuals_match_verify_lck(self, make):
        # Both identities are proven, so their float residuals are the
        # cross-check's, at the first CROSS_CHECK_POINTS points: d theta's
        # as written, and d Omega - theta ^ Omega's with each side
        # value-numbered apart, which moves its digits by rounding alone.
        entry = make()
        config = self.small()
        by_name = {r.check_name: r for r in vf.run_suite(entry, config)}
        pts = annulus_points(entry.ambient_dim, config.points, config.seed)
        head = pts[:vf.CROSS_CHECK_POINTS]
        lck = vf.verify_lck(entry.forms["Omega"], entry.forms["theta"], head)
        for check in ("lck_residual", "lee_closedness"):
            assert by_name[check].details["method"] == "exact-modular"
            assert by_name[check].max_residual == 0.0
        numbered = _cross_check_residual(entry, 0, head)
        assert numbered.max() == \
            by_name["lck_residual"].details["float_residual"]
        assert _equal_but_rounding(
            lck.details["lck_residual"],
            by_name["lck_residual"].details["float_residual"])
        assert lck.details["lee_closedness_residual"] == \
            by_name["lee_closedness"].details["float_residual"]

    def test_reports_are_json_safe_and_deterministic(self):
        config = self.small()
        a = json.dumps(vf.reports_to_json(vf.run_suite(hp.example1_entry(), config)),
                       sort_keys=True, allow_nan=False)
        b = json.dumps(vf.reports_to_json(vf.run_suite(hp.example1_entry(), config)),
                       sort_keys=True, allow_nan=False)
        assert a == b

    def test_margin_checks_use_zero_tolerance(self):
        reports = vf.run_suite(hp.example1_entry(), self.small())
        by_name = {r.check_name: r for r in reports}
        for name in ("definiteness", "fixed_point_free", "contraction"):
            assert by_name[name].tolerance == 0.0
            assert by_name[name].max_residual < 0.0  # negative margin = pass


def _equal_but_rounding(a, b, atol=1e-12):
    """Whether the JSON-like values ``a`` and ``b`` are equal but for
    floats at most ``atol`` apart: what evaluating an expression and an
    equal one written otherwise (see ex.value_number) can move."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _equal_but_rounding(a[k], b[k], atol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _equal_but_rounding(x, y, atol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= atol
    return type(a) is type(b) and a == b


def _cross_check_residual(entry, i, pts):
    """The per-point residual of identity ``i`` of ``entry``'s suite: its
    cross-check form as compiled, evaluated alone at ``pts``."""
    suite, binding = vf._suite(entry, vf._generator_list(entry.group))
    form, _ = suite.cross_check.folds[i]
    return fm._RequestTape([(form, fm._Residual)], entry.ambient_dim).run(
        pts, binding)[0]


def _residual_one_form_at_a_time(form, pts):
    """Per-point max |coefficient| from the full coefficient arrays."""
    out = np.zeros(len(pts))
    for vals in fm.evaluate_form_many(form, pts).values():
        out = np.maximum(out, np.abs(vals))
    return out


def _record_tapes(monkeypatch):
    """Record (tape, point array shape) for every tape run from now on."""
    runs = []
    run = ex._Tape.run

    def record(tape, pts, *args):
        runs.append((tape, pts.shape))
        return run(tape, pts, *args)

    monkeypatch.setattr(ex._Tape, "run", record)
    return runs


def _implicit_ops(tape):
    return sum(isinstance(node, ex.ImplicitT) for _, node, _ in tape.ops)


class TestSuiteOnePass:
    """run_suite evaluates its forms through one tape; every value must equal
    the one the checks give when called one at a time."""

    POINTS = 2 * ex._CHUNK + 1

    @pytest.mark.parametrize("name", hp.ENTRY_NAMES)
    def test_values_equal_checks_one_at_a_time(self, name):
        entry = hp.build_entry(name)
        config = vf.SuiteConfig(points=self.POINTS, seed=5)
        pts = annulus_points(entry.ambient_dim, config.points, config.seed)
        reports = vf.run_suite(entry, config)
        by_name = {r.check_name: r for r in reports}
        forms = entry.forms
        if "theta" in forms:
            omega, theta = forms["Omega"], forms["theta"]
            lck = vf.verify_lck(omega, theta, pts)
            # The catalog's lcK pairs are proven: their float residuals come
            # from the first CROSS_CHECK_POINTS points, d theta's as written
            # and d Omega - theta ^ Omega's with each side value-numbered
            # apart, its digits moved by rounding alone.
            head = pts[:vf.CROSS_CHECK_POINTS]
            lck_head = vf.verify_lck(omega, theta, head)
            for check, key, res in (
                    ("lck_residual", "lck_residual",
                     _cross_check_residual(entry, 0, head)),
                    ("lee_closedness", "lee_closedness_residual",
                     _residual_one_form_at_a_time(fm.exterior_d(theta),
                                                  head))):
                details = by_name[check].details
                assert details["method"] == "exact-modular"
                assert by_name[check].max_residual == 0.0
                assert _equal_but_rounding(details["float_residual"],
                                           lck_head.details[key])
                assert details["float_residual"] == res.max(initial=0.0)
                assert details["worst_points"] == vf._worst_points(head, res)
            assert by_name["lee_closedness"].details["float_residual"] == \
                lck_head.details["lee_closedness_residual"]
            alone = fm.definiteness(fm.bidegree_part(omega, 1, 1), pts)
            details = by_name["definiteness"].details
            want = {"is_definite": alone.is_definite,
                    "is_semidefinite": alone.is_semidefinite,
                    "sign": alone.sign,
                    "min_abs_eigenvalue": alone.min_abs_eigenvalue}
            if name == "vaisman":
                # The suite's tape is value-numbered: vaisman's Omega_11
                # coefficients share the nodes of equal values below the
                # lcK pair, so their digits move by rounding.
                assert _equal_but_rounding(details,
                                           lck.details["definiteness"])
                assert _equal_but_rounding(details, want)
            else:
                assert details == lck.details["definiteness"] == want
        # The catalog's invariances are proven too: each float residual is
        # that of its request, pullback minus form over the template's
        # generator, evaluated alone at the first CROSS_CHECK_POINTS points.
        gens = vf._generator_list(entry.group)
        suite, binding = vf._suite(entry, gens)
        assert [key for key, _ in suite.invariance] == [
            key for key in ("theta", "psi") if key in forms]
        for key, ids in suite.invariance:
            report = by_name["invariance_%s" % key]
            details = report.details
            assert details["method"] == "exact-modular"
            assert report.max_residual == 0.0
            got = details["generators"]
            assert [g["generator"] for g in got] == [n for n, _ in gens]
            for g, i in zip(got, ids):
                form, _ = suite.cross_check.folds[i]
                alone = fm._RequestTape([(form, fm._Max)], 2).run(
                    pts[:vf.CROSS_CHECK_POINTS], binding)[0]
                assert g["float_residual"] == alone
            assert details["float_residual"] == max(
                g["float_residual"] for g in got)
        if entry.potential is not None:
            alone = vf.verify_potential(entry.potential, entry.group, pts,
                                        tolerance=by_name["lck_residual"].tolerance,
                                        seed=config.seed)
            assert by_name["potential_homothety"].to_json() == alone.to_json()
        if name == "kodaira":
            assert [r.check_name for r in reports] == ["fixed_point_free",
                                                       "contraction"]

    def test_vaisman_suite_runs_one_tape(self, monkeypatch):
        runs = _record_tapes(monkeypatch)
        vf.run_suite(hp.vaisman_entry(), vf.SuiteConfig(points=300))
        at_samples = [tape for tape, shape in runs if shape == (300, 2)]
        # Form by form this took 7 tapes with 7 implicit solves; the union
        # holds t(z) once, since the deck moves it to t(z) + 1 (it held
        # t(lambda z) too while invariance was sampled).
        assert len(at_samples) == 1
        assert _implicit_ops(at_samples[0]) == 1

    def test_example2_suite_runs_two_tapes(self, monkeypatch):
        # The potential's requests are on the sample tape and its identities
        # on the cross-check tape: no tape of its own, and no axis points.
        runs = _record_tapes(monkeypatch)
        vf.run_suite(hp.example2_entry(), vf.SuiteConfig(points=500))
        assert [shape for _, shape in runs] == [
            (500, 2), (vf.CROSS_CHECK_POINTS, 2)]

    def test_lee_solve_runs_one_tape(self, monkeypatch):
        runs = _record_tapes(monkeypatch)
        vf.solve_lee_many(hp.vaisman_entry().forms["Omega"],
                          random_annulus(2, 20, seed=241))
        assert len(runs) == 1
        assert _implicit_ops(runs[0][0]) == 1

    def test_negative_potential_wins_over_failing_invariance(self):
        # theta cannot be evaluated anywhere, but its invariance check comes
        # after the potential's, which must refuse first.
        phi, group = hp.example2_potential()
        theta = fm.form_from_terms(2, 1, {(0,): ex.div(
            ex.const(1.0), ex.mul(ex.const(1e-20), ex.z(1)))})
        entry = hp.HopfSurfaceCatalogEntry(
            "bad", 2, {"theta": theta}, group, {},
            potential=ex.mul(ex.const(-1.0), phi))
        with pytest.raises(vf.NonPositivePotential):
            vf.run_suite(entry, vf.SuiteConfig(points=self.POINTS))

    def test_failing_lck_term_named_as_form_by_form(self):
        # theta has a pole at one sample point in the second chunk; the
        # message is the one the form-by-form evaluation gave.
        pts = annulus_points(2, self.POINTS, 42)
        pole = complex(pts[ex._CHUNK + 5, 0])
        theta = fm.form_from_terms(2, 1, {
            (0,): ex.div(ex.const(1.0), ex.sub(ex.z(1), ex.const(pole))),
            (2,): ex.zbar(2)})
        e1 = hp.example1_entry()
        point = ("((0.37110403142633874+0.09692012012175072j), "
                 "(-0.6115043659882006-0.689771163990944j))")
        for forms, term in (({"Omega": e1.forms["Omega"], "theta": theta},
                             "(0, 1, 3)"),
                            ({**e1.forms, "psi": theta}, "(0,)")):
            entry = hp.HopfSurfaceCatalogEntry("bad", 2, forms, e1.group, {})
            with pytest.raises(fm.FormEvaluationError) as info:
                vf.run_suite(entry, vf.SuiteConfig(points=self.POINTS))
            assert str(info.value) == (
                "term %s: divisor magnitude below 1e-14 at point %s"
                % (term, point))
            assert isinstance(info.value.cause, ex.DivisionNearZero)


class TestExactIdentities:
    """run_suite proves the lcK pair once per suite; what it does not prove,
    or what its float cross-check contradicts, it samples as before."""

    POINTS = 2 * ex._CHUNK + 1

    def run_by_hand(self, name, forms, config):
        entry = hp.build_entry(name)
        forms = {**entry.forms, **forms}
        bad = hp.HopfSurfaceCatalogEntry(name, 2, forms, entry.group, {})
        pts = annulus_points(2, config.points, config.seed)
        return forms, pts, {r.check_name: r for r in vf.run_suite(bad, config)}

    def assert_sampled(self, report, forms, pts, exact=True):
        """``report`` is the one sampling all of ``pts`` gives, with its
        bits unless the suite's value-numbered tape moves its digits."""
        omega, theta = forms["Omega"], forms["theta"]
        form, key = {
            "lck_residual": (fm.exterior_d(omega) - fm.wedge(theta, omega),
                             "lck_residual"),
            "lee_closedness": (fm.exterior_d(theta),
                               "lee_closedness_residual")}[report.check_name]
        res = _residual_one_form_at_a_time(form, pts)
        alone = vf.verify_lck(omega, theta, pts)
        assert alone.details[key] == res.max(initial=0.0)
        want = {"method": "sampled",
                "worst_points": vf._worst_points(pts, res)}
        if exact:
            assert report.max_residual == alone.details[key]
            assert report.details == want
        else:
            assert _equal_but_rounding(report.max_residual,
                                       alone.details[key])
            assert _equal_but_rounding(report.details, want)

    @pytest.mark.parametrize("name", ["example1", "vaisman"])
    def test_perturbed_lee_form_is_sampled(self, name):
        # theta (1 + 1e-7) breaks d Omega = theta ^ Omega but not d theta = 0.
        theta = hp.build_entry(name).forms["theta"] * (1 + 1e-7)
        forms, pts, by_name = self.run_by_hand(
            name, {"theta": theta}, vf.SuiteConfig(points=self.POINTS, seed=5))
        lck = by_name["lck_residual"]
        assert lck.status == "fail"
        # vaisman's sampled d Omega - theta ^ Omega is a difference of
        # value-numbered terms (see ex.value_number), so its digits move.
        self.assert_sampled(lck, forms, pts, exact=name != "vaisman")
        closed = by_name["lee_closedness"]
        assert closed.passed and closed.details["method"] == "exact-modular"

    def test_proven_identity_beside_a_sampled_one_keeps_its_residual(self):
        # theta + d|z1|^2 keeps d theta = 0 but breaks d Omega = theta ^
        # Omega: the proven closedness is cross-checked on its own values,
        # the float residual of d theta at the first points.
        e1 = hp.build_entry("example1")
        bump = fm.exterior_d(fm.scalar_form(2, ex.mul(ex.z(1), ex.zbar(1))))
        config = vf.SuiteConfig(points=self.POINTS, seed=5)
        forms, pts, by_name = self.run_by_hand(
            "example1", {"theta": e1.forms["theta"] + bump}, config)
        lck = by_name["lck_residual"]
        assert lck.status == "fail"
        self.assert_sampled(lck, forms, pts)
        head = pts[:vf.CROSS_CHECK_POINTS]
        res = _residual_one_form_at_a_time(fm.exterior_d(forms["theta"]),
                                           head)
        closed = by_name["lee_closedness"]
        assert closed.passed and closed.max_residual == 0.0
        assert closed.details == {
            "method": "exact-modular", "prime": ex.MODULAR_PRIME,
            "trials": ex.MODULAR_TRIALS,
            "false_pass_bound": vf.FALSE_PASS_BOUND,
            "float_residual": res.max(initial=0.0),
            "worst_points": vf._worst_points(head, res)}

    def test_tolerance_below_rounding_is_sampled(self):
        # The proof holds, but a tolerance below the float residual of the
        # cross-check sends both identities back to sampling, which fails.
        config = vf.SuiteConfig(points=self.POINTS, seed=5, tol=1e-20)
        forms, pts, by_name = self.run_by_hand("example1", {}, config)
        for check in ("lck_residual", "lee_closedness"):
            assert by_name[check].status == "fail"
            self.assert_sampled(by_name[check], forms, pts)
        _, _, by_name = self.run_by_hand(
            "example1", {}, vf.SuiteConfig(points=self.POINTS, seed=5))
        for check in ("lck_residual", "lee_closedness"):
            assert by_name[check].details["method"] == "exact-modular"

    def test_identity_that_holds_only_modulo_the_prime_is_sampled(self):
        # p = x^2 + y^2 (Cornacchia), so the constant c = x + iy or x - iy is
        # 0 modulo p, with i the square root of -1 there, while |c| is about
        # 2^31 and exact as a float.  theta + c zbar_1 dz_1 then passes the
        # exact test but breaks both identities by about 1e9 in floats.
        c = gaussian_zero_mod(ex.MODULAR_PRIME, ex._I_MOD)
        assert ex._modular_const(ex.const(c), (), None) == 0
        eta = fm.form_from_terms(2, 1, {(0,): ex.mul(ex.const(c),
                                                     ex.zbar(1))})
        entry = hp.build_entry("example1")
        theta = entry.forms["theta"] + eta
        by_hand = hp.HopfSurfaceCatalogEntry(
            "example1", 2, {**entry.forms, "theta": theta}, entry.group, {})
        suite, _ = vf._suite(by_hand, vf._generator_list(by_hand.group))
        assert None not in suite.proofs  # the exact test alone passes
        config = vf.SuiteConfig(points=self.POINTS, seed=5)
        forms, pts, by_name = self.run_by_hand("example1", {"theta": theta},
                                               config)
        for check in ("lck_residual", "lee_closedness"):
            assert by_name[check].status == "fail"
            assert by_name[check].max_residual > 1e9
            self.assert_sampled(by_name[check], forms, pts)

    def test_catalog_proofs_are_tight(self):
        for name in ("example1", "example2", "vaisman"):
            entry = hp.build_entry(name)
            reports = vf.run_suite(entry, vf.SuiteConfig(points=20))
            suite, _ = vf._suite(entry, vf._generator_list(entry.group))
            assert all(bound <= vf.FALSE_PASS_BOUND for bound in suite.proofs)
            for r in reports[:2]:
                assert r.passed and r.max_residual == 0.0
                assert r.details["method"] == "exact-modular"
                assert r.details["prime"] == ex.MODULAR_PRIME
                assert r.details["trials"] == ex.MODULAR_TRIALS
                assert r.details["false_pass_bound"] == vf.FALSE_PASS_BOUND \
                    < 1e-30

    def test_failure_in_a_proven_identity_is_the_sampled_one(self):
        # Omega = omega_0 / g and theta = -dg / g with g = z1 - a: the lcK
        # identity holds and is proven, but d Omega divides by g^2, which
        # is below DIVISION_EPS at one point of the second chunk where g
        # itself (the divisor of Omega and theta) is not.
        pts = annulus_points(2, self.POINTS, 42)
        k = ex._CHUNK + 5
        g = ex.sub(ex.z(1), ex.const(complex(pts[k, 0]) - 1e-8))
        omega = fm.form_from_terms(2, 2, {(0, 2): ex.div(-1j, g),
                                          (1, 3): ex.div(-1j, g)})
        theta = fm.form_from_terms(2, 1, {(0,): ex.div(-1.0, g)})
        entry = hp.HopfSurfaceCatalogEntry(
            "pole", 2, {"Omega": omega, "theta": theta},
            hp.example1_entry().group, {})
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        assert suite.proofs[0] is not None
        with pytest.raises(fm.FormEvaluationError) as sampled:
            fm.pointwise_residual(
                fm.exterior_d(omega) - fm.wedge(theta, omega), pts)
        with pytest.raises(fm.FormEvaluationError) as info:
            vf.run_suite(entry, vf.SuiteConfig(points=self.POINTS))
        assert str(info.value) == str(sampled.value)
        assert str(info.value).startswith(
            "term (0, 1, 3): divisor magnitude below 1e-14 at point")
        assert info.value.cause.point == tuple(pts[k])
        for form in (omega, theta):
            fm.pointwise_residual(form, pts)  # g alone is not too small


def _flow_entry(rates, psi=None, r=(1.0, 1.5), p=(1.0, 2.0)):
    """vaisman's forms, psi replaced by ``psi`` if given, with the generator
    z_k -> exp(-rate_k + i p_k) z_k, rates(r1, r2) the rates, written over
    params by a template so that run_suite proves what it can for all
    bindings at once; the group holds the same generator in numbers."""
    def write(r1, r2, p1, p2):
        forms, potential, _ = hp._vaisman_forms(r1, r2, p1, p2)
        if psi is not None:
            forms["psi"] = psi
        return forms, potential, tuple(
            ex.mul(ex.exp(ex.sub(ex.mul(1j, q), rate)), ex.z(k))
            for k, (rate, q) in enumerate(zip(rates(r1, r2), (p1, p2)), 1))

    numbers = dict(zip(("r1", "r2", "p1", "p2"), r + p))
    gen = mp.PolyAutomorphism.diagonal(
        [np.exp(complex(-rate, q)) for rate, q in zip(rates(*r), p)])
    group = mp.GroupSpec((np.eye(2, dtype=complex),), gen)
    return hp.HopfSurfaceCatalogEntry(
        "flow", 2, None, group, numbers,
        template=hp.EntryTemplate(write, numbers, (), gen))


class TestDeckProofs:
    """Invariance under a deck written over params is proven where the
    deck is the flow of the implicit time's weights, and sampled, and
    failing where it is not invariant, otherwise."""

    CONFIG = vf.SuiteConfig(points=300, seed=3)

    def invariance(self, entry):
        reports = vf.run_suite(entry, self.CONFIG)
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        return suite, {r.check_name: r for r in reports
                       if r.check_name.startswith("invariance")}

    @pytest.mark.parametrize("name", ["example1", "example2", "vaisman"])
    def test_catalog_invariance_is_proven(self, name):
        suite, by_name = self.invariance(hp.build_entry(name))
        assert by_name and all(p is not None and p <= vf.FALSE_PASS_BOUND
                               for p in suite.proofs)
        for report in by_name.values():
            assert report.passed and report.max_residual == 0.0
            assert report.details["method"] == "exact-modular"
            assert report.details["false_pass_bound"] == vf.FALSE_PASS_BOUND
            assert report.details["float_residual"] < 1e-14
            assert "worst_points" not in report.details

    def test_time_two_flow_is_proven(self):
        _, by_name = self.invariance(_flow_entry(lambda r1, r2: (2 * r1,
                                                                 2 * r2)))
        assert [r.details["method"] for r in by_name.values()] == [
            "exact-modular"] * 2
        assert all(r.passed for r in by_name.values())

    @pytest.mark.parametrize("rates", [lambda r1, r2: (r2, r1),
                                       lambda r1, r2: (r1, 2 * r2)],
                             ids=["rates-swapped", "s-per-component"])
    def test_deck_that_is_not_the_flow_is_sampled_and_fails(self, rates):
        suite, by_name = self.invariance(_flow_entry(rates))
        for key, ids in suite.invariance:
            assert all(suite.proofs[i] is None for i in ids)
            report = by_name["invariance_" + key]
            assert report.status == "fail" and report.max_residual > 1e-3
            assert report.details["method"] == "sampled"
            assert [g["generator"] for g in report.details["generators"]] \
                == ["cyclic"]

    def test_raw_weighted_sasaki_fails_by_sampling(self):
        # The raw contact form is deck-invariant only for equal weights.
        raw = hp.weighted_sasaki((1.0, 1.5))
        _, by_name = self.invariance(_flow_entry(lambda r1, r2: (r1, r2),
                                                 psi=raw))
        psi = by_name["invariance_psi"]
        assert psi.status == "fail" and psi.details["method"] == "sampled"
        theta = by_name["invariance_theta"]
        assert theta.passed and theta.details["method"] == "exact-modular"
        # So does the entry built by hand, whose deck is numbers.
        vaisman = hp.build_entry("vaisman")
        _, by_name = self.invariance(hp.HopfSurfaceCatalogEntry(
            "raw", 2, {**vaisman.forms, "psi": raw}, vaisman.group, {}))
        psi = by_name["invariance_psi"]
        assert psi.status == "fail" and psi.details["method"] == "sampled"

    def test_proven_invariance_that_rounds_above_the_tolerance_is_sampled(self):
        config = vf.SuiteConfig(points=300, seed=3, tol=1e-20)
        reports = vf.run_suite(hp.build_entry("vaisman"), config)
        for report in reports[3:5]:
            assert report.check_name.startswith("invariance")
            assert report.details["method"] == "sampled"
            assert report.status == "fail" and report.max_residual > 1e-20
            assert set(report.details["generators"][0]) == {"generator",
                                                            "residual"}


def _built_suite(name, monkeypatch):
    """``name``'s catalog suite, built afresh, and the terms of each
    ex.value_number call: the cross-check's minuends and subtrahends, then
    the sample tape's terms."""
    vf._SUITES.clear()
    number, calls = ex.value_number, []

    def record(roots):
        calls.append(roots)
        return number(roots)

    monkeypatch.setattr(ex, "value_number", record)
    entry = hp.build_entry(name)
    suite, _ = vf._suite(entry, vf._generator_list(entry.group))
    monkeypatch.setattr(ex, "value_number", number)
    assert len(calls) == 3
    return suite, calls


def _guards(tape):
    return sum(rule in ex._CHECKS for rule, _, _ in tape.ops)


class TestValueNumberedSuite:
    """The suite's sample tape is value-numbered (ex.value_number), and so
    is the cross-check tape its proofs are made on, each side apart."""

    @pytest.mark.parametrize("name,ops,guards,unmerged", [
        ("vaisman", 107, 4, 156), ("example1", 14, 2, 29)],
        ids=["vaisman", "example1"])
    def test_merges_are_proven_and_the_tape_shrinks(self, monkeypatch, name,
                                                    ops, guards, unmerged):
        suite, calls = _built_suite(name, monkeypatch)
        roots, tape = calls[2], suite.requests.tape
        assert (len(tape.ops), _guards(tape)) == (ops, guards)
        assert len(ex._Tape(roots, [k for k, s in enumerate(tape.roots)
                                    if s is None]).ops) == unmerged
        # Every merge holds on draws of its own, and their bounds add up
        # to the tape's, within the proofs' bound.
        merged, merges = ex._value_numbering(roots)
        vanished, bounds = ex._prove(
            [ex.sub(new, rep) for _, new, rep in merges])
        assert len(merges) > 20 and all(vanished)
        assert suite.requests.merge_bound == sum(bounds)
        assert 0.0 < suite.requests.merge_bound <= vf.FALSE_PASS_BOUND
        # Each merged term is its term, and a proven term stays a
        # difference whose checks the tape still runs.
        vanished, _ = ex._prove([ex.sub(a, b) for a, b in zip(roots, merged)
                                 if a is not b])
        assert all(vanished)
        for k, s in enumerate(tape.roots):
            if s is None:
                assert type(merged[k]) is type(roots[k]) is not ex.Const

    def test_proofs_compile_no_tape(self, monkeypatch):
        # Proofs and fingerprints walk the DAG (ex._residues): value
        # numbering compiles no tape, and a suite compiles two, the
        # cross-check its identities are proven on and the sample tape.
        compiled, init = [], ex._Tape.__init__

        def count(tape, *args, **kwargs):
            compiled.append(tape)
            init(tape, *args, **kwargs)

        monkeypatch.setattr(ex._Tape, "__init__", count)
        radius = ex.add(ex.mul(ex.z(1), ex.zbar(1)), ex.mul(ex.z(2), ex.zbar(2)))
        moved = ex.add(ex.mul(ex.zbar(2), ex.z(2)), ex.mul(ex.zbar(1), ex.z(1)))
        merged, bound = ex.value_number([ex.exp(radius), ex.exp(moved)])
        assert merged == [ex.exp(radius)] * 2 and bound > 0.0
        assert compiled == []
        suite, _ = _built_suite("vaisman", monkeypatch)
        assert compiled == [suite.cross_check.tape, suite.requests.tape]
        vf._SUITES.clear()

    def test_cross_check_numbers_each_side_apart(self, monkeypatch):
        # vaisman's minuends (d Omega, g*theta, g*psi) are numbered in one
        # DAG and its subtrahends (theta ^ Omega, theta, psi) in another;
        # d theta, an identity of one form, is compiled as written.  Every
        # root keeps its place, so the pulled-back coefficients of theta
        # (minuends 4 to 7) do not merge into the unmoved ones written
        # below d Omega, as they would numbered freely.
        suite, calls = _built_suite("vaisman", monkeypatch)
        minuends, subtrahends = calls[:2]
        tape = suite.cross_check.tape
        assert (len(tape.ops), _guards(tape)) == (461, 5)
        assert len(minuends) == 4 + 4 + 4 and len(subtrahends) == 4 + 4 + 4
        _, merges = ex._value_numbering(minuends)
        assert [minuends.index(node) for node, _, _ in merges
                if node in minuends] == [4, 5, 6, 7]
        numbered, bound = ex.value_number(minuends)
        assert not set(numbered) & {rep for _, _, rep in merges}
        bound += ex.value_number(subtrahends)[1]
        assert suite.cross_check.merge_bound == bound
        assert 0.0 < bound <= vf.FALSE_PASS_BOUND
        # Each proof's bound counts the merges.
        assert all(bound < proof <= vf.FALSE_PASS_BOUND
                   for proof in suite.proofs)

    def test_no_proven_root_is_x_minus_x(self):
        # Every proven identity of two sides keeps the terms of its form as
        # written, each the difference of two nodes, so its float residual
        # compares two computations: at the head the lcK residual is not 0.
        entry = hp.build_entry("vaisman")
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        two_sided = [0] + [i for _, ids in suite.invariance for i in ids]
        assert all(suite.proofs[i] is not None for i in two_sided)
        forms, pulled = entry.forms, entry.group.cyclic_generator
        written = [fm.exterior_d(forms["Omega"])
                   - fm.wedge(forms["theta"], forms["Omega"])] + [
            fm.pullback(pulled.as_expressions(), forms[key]) - forms[key]
            for key, _ in suite.invariance]
        for i, form in zip(two_sided, written):
            compiled, _ = suite.cross_check.folds[i]
            assert compiled.terms.keys() == form.terms.keys()
            for c in compiled.terms.values():
                assert type(c) is ex.Sub and c.args[0] is not c.args[1]
        head = annulus_points(2, vf.CROSS_CHECK_POINTS, 0)
        assert _cross_check_residual(entry, 0, head).max() > 0.0

    def test_identity_that_holds_only_modulo_the_prime_across_sides(self):
        # 2^124 = 28561 modulo MODULAR_PRIME (defect 6).  Under the deck z1
        # -> 28561 2^-124 z1, theta = 2^124 z1 pulls back to 28561 z1, so
        # the invariance vanishes in every trial of the exact test.  Its
        # sides are numbered apart and stay two nodes: the float
        # cross-check reads about 2e37 and sends the identity back to
        # sampling, where it fails.  Numbered in one DAG, the sides would
        # be one node and the identity would pass.
        assert pow(2, 124, ex.MODULAR_PRIME) == 28561
        theta = fm.scalar_form(2, ex.mul(ex.const(2.0 ** 124), ex.z(1)))
        deck = (ex.mul(ex.const(28561.0 * 2.0 ** -124), ex.z(1)), ex.z(2))
        suite = vf._Suite(2, {"theta": theta}, None, [deck])
        (moved,) = fm.pullback(deck, theta).terms.values()
        assert ex.evaluate(moved, (1.0, 1.0)) == 28561.0
        assert suite.proofs[0] is not None
        (root,) = suite.cross_check.roots
        assert type(root) is ex.Sub and root.args[0] is not root.args[1]
        (key, ids), = suite.invariance
        pts = annulus_points(2, 300, 0)
        run = vf._Run(suite, pts, {}, suite.tolerance)
        proven, (residual,) = run.identities(ids)
        assert key == "theta" and not proven and residual > 1e36

    def test_too_large_a_bound_keeps_the_unmerged_tape(self, monkeypatch):
        number = ex.value_number
        monkeypatch.setattr(ex, "value_number", lambda roots: (
            number(roots)[0], 2 * vf.FALSE_PASS_BOUND))
        vf._SUITES.clear()
        entry = hp.build_entry("vaisman")
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        assert len(suite.requests.tape.ops) == 156
        assert suite.requests.merge_bound is None
        assert len(suite.cross_check.tape.ops) == 645
        assert suite.cross_check.merge_bound is None
        vf._SUITES.clear()

    def test_too_large_a_summed_side_bound_keeps_the_cross_check_unmerged(
            self, monkeypatch):
        # Each side's bound alone is within FALSE_PASS_BOUND, so the sample
        # tape, one side, is merged; the cross-check's two sides sum past
        # it, so its identities are proven on their unmerged terms.
        number = ex.value_number
        monkeypatch.setattr(ex, "value_number", lambda roots: (
            number(roots)[0], 0.6 * vf.FALSE_PASS_BOUND))
        vf._SUITES.clear()
        entry = hp.build_entry("vaisman")
        suite, _ = vf._suite(entry, vf._generator_list(entry.group))
        assert len(suite.requests.tape.ops) == 107
        assert suite.requests.merge_bound == 0.6 * vf.FALSE_PASS_BOUND
        assert len(suite.cross_check.tape.ops) == 645
        assert suite.cross_check.merge_bound is None
        assert None not in suite.proofs
        vf._SUITES.clear()

    def test_library_checks_and_the_lee_solve_are_not_merged(self,
                                                            monkeypatch):
        calls = []
        number = ex.value_number
        monkeypatch.setattr(ex, "value_number", lambda roots:
                            calls.append(1) or number(roots))
        entry = hp.build_entry("vaisman")
        pts = annulus_points(2, 50, seed=1)
        vf.verify_lck(entry.forms["Omega"], entry.forms["theta"], pts)
        vf.verify_invariance(entry.forms["theta"],
                             entry.group.cyclic_generator, pts)
        vf.solve_lee_many(entry.forms["Omega"], pts)
        assert calls == []


class TestSuiteCache:
    """run_suite compiles each catalog template once and binds each entry's
    numbers to it."""

    CONFIG = vf.SuiteConfig(points=300, seed=3)

    def test_bounded_least_recently_used_dropped(self):
        vf._SUITES.clear()
        for n in range(2, 13):
            vf.run_suite(hp.build_entry("example2", {"n": n}),
                         vf.SuiteConfig(points=20))
            assert len(vf._SUITES) <= vf.SUITE_CACHE_SIZE == 8
        assert [fixed for _, fixed in vf._SUITES] == [
            (n,) for n in range(5, 13)]
        vf.run_suite(hp.build_entry("example2", {"n": 5}),
                     vf.SuiteConfig(points=20))
        assert [fixed for _, fixed in vf._SUITES][-1] == (5,)

    def test_warm_run_builds_nothing(self, monkeypatch):
        vf.run_suite(hp.build_entry("vaisman"), self.CONFIG)
        builds = []
        build = hp.EntryTemplate.build
        monkeypatch.setattr(
            hp.EntryTemplate, "build",
            lambda self, symbolic=False: builds.append(symbolic)
            or build(self, symbolic))
        runs = _record_tapes(monkeypatch)
        before = list(vf._SUITES)
        vf.run_suite(hp.build_entry("vaisman", {"r1": 1.23, "p2": -0.4}),
                     self.CONFIG)
        assert builds == [] and list(vf._SUITES) == before
        suite = vf._SUITES[before[-1]]
        assert [tape for tape, _ in runs] == [suite.requests.tape,
                                              suite.cross_check.tape]

    def test_one_suite_for_every_generator_support(self):
        # kodaira's template writes t z2 over a param, so t = 0, whose
        # generator has no z2 term, shares the suite of t = 1 and still
        # prints what the entry built by hand prints.
        vf._SUITES.clear()
        for t in (1.0, 0.0):
            entry = hp.build_entry("kodaira", {"t": t})
            by_hand = hp.HopfSurfaceCatalogEntry(
                "kodaira", 2, entry.forms, entry.group, entry.parameters)
            got = vf.reports_to_json(vf.run_suite(entry, self.CONFIG))
            assert got == vf.reports_to_json(vf.run_suite(by_hand,
                                                          self.CONFIG))
            assert len(vf._SUITES) == 1

    @pytest.mark.parametrize("name,params", [
        ("vaisman", {"r1": 0.8, "r2": 1.7, "p1": 0.5, "p2": -1.1}),
        ("vaisman", {"r1": 1.2, "r2": 1.2}),
        ("example1", {"mu": 1.5 + 1j}),
        ("example2", {"mu": -0.5 + 2j, "n": 3}),
        ("kodaira", {"alpha": 0.3 - 0.4j, "t": 2j}),
    ])
    def test_same_reports_as_the_entry_built_by_hand(self, name, params):
        entry = hp.build_entry(name, params)
        by_hand = hp.HopfSurfaceCatalogEntry(
            name, entry.ambient_dim, entry.forms, entry.group,
            entry.parameters, potential=entry.potential)
        keys = list(vf._SUITES)
        got = vf.reports_to_json(vf.run_suite(by_hand, self.CONFIG))
        assert list(vf._SUITES) == keys  # an entry by hand is not cached
        want = vf.reports_to_json(vf.run_suite(entry, self.CONFIG))
        if name == "vaisman":
            # A deck by hand holds rounded numbers exp(-r + ip), which are
            # not exactly the flow of the weights: its invariance is
            # sampled, where the catalog's deck over params proves it.
            for mine, theirs in zip(want[3:5], got[3:5]):
                assert mine["check_name"] == theirs["check_name"]
                assert mine["status"] == theirs["status"] == "pass"
                assert mine["details"]["method"] == "exact-modular"
                assert theirs["details"]["method"] == "sampled"
            want[3:5], got[3:5] = [], []
        if name == "vaisman" and params["r1"] == params["r2"]:
            # Equal weights by hand are one number, so the entry's tapes
            # merge values (ex.value_number) that the template's two
            # params keep apart: the digits of its definiteness move, and
            # those of the proven lcK residual's cross-check, with the
            # points where its rounding is largest.
            for report in want + got:
                if report["check_name"] == "lck_residual":
                    assert report["details"]["method"] == "exact-modular"
                    del report["details"]["worst_points"]
            assert _equal_but_rounding(want, got)
            assert [r["status"] for r in want] == [r["status"] for r in got]
        else:
            assert want == got


    def test_template_with_another_group_checks_that_group(self):
        # A template's deck stands for the generator build_entry made with
        # it; an entry that pairs the template with another group gets the
        # suite of that group's numbers, uncached, as an entry by hand does.
        entry = hp.build_entry("vaisman")
        other = hp.build_entry("vaisman", {"p1": 0.5, "p2": -1.1}).group
        mixed = hp.HopfSurfaceCatalogEntry(
            "vaisman", 2, None, other, entry.parameters,
            template=entry.template)
        keys = list(vf._SUITES)
        reports = vf.run_suite(mixed, self.CONFIG)
        assert list(vf._SUITES) == keys
        invariance = [r for r in reports
                      if r.check_name.startswith("invariance")]
        assert [r.details["method"] for r in invariance] == ["sampled"] * 2
        assert vf.suite_passed(reports)


class TestJsonify:
    def test_complex_becomes_pair(self):
        assert vf.jsonify({"a": 1 + 2j}) == {"a": [1.0, 2.0]}

    def test_numpy_scalars_coerced(self):
        out = vf.jsonify({"x": np.float64(1.5), "n": np.int64(3),
                          "b": np.bool_(True), "arr": np.array([1.0, 2.0])})
        assert out == {"x": 1.5, "n": 3, "b": True, "arr": [1.0, 2.0]}
        json.dumps(out, allow_nan=False)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            vf.jsonify(object())

    def test_report_round_trips_through_json(self):
        rep = vf.verify_invariance(
            hp.example1_entry().forms["theta"],
            mp.PolyAutomorphism.diagonal([2.0, 2.0]),
            random_annulus(2, 5, seed=241))
        decoded = json.loads(json.dumps(rep.to_json(), allow_nan=False))
        assert decoded["check_name"] == "invariance"
        assert decoded["status"] in ("pass", "fail")


class TestFiniteGenerators:
    def test_finite_part_is_checked_with_the_cyclic_generator(self):
        # example1's forms are invariant under z -> -z as well, so a group
        # whose finite part is {I, -I} passes, each invariance listing both
        # generators.
        ex1 = hp.example1_entry()
        eye = np.eye(2, dtype=complex)
        group = mp.GroupSpec((eye, -eye), ex1.group.cyclic_generator)
        entry = hp.HopfSurfaceCatalogEntry("example1-pm", 2, dict(ex1.forms),
                                           group, {})
        reports = vf.run_suite(entry, vf.SuiteConfig(points=200))
        assert len(reports) == 7 and vf.suite_passed(reports)
        by_name = {r.check_name: r for r in reports}
        for key in ("invariance_theta", "invariance_psi"):
            assert [g["generator"] for g in
                    by_name[key].details["generators"]] == ["cyclic",
                                                            "finite[1]"]
        fpf = by_name["fixed_point_free"]
        assert fpf.passed and fpf.details["min_distance"] == 2.0
        # With the catalog's template in place of the forms, the group's
        # numbers are the deck too, and both invariances are proven.
        templated = hp.HopfSurfaceCatalogEntry(
            "example1-pm", 2, None, group, {}, template=ex1.template)
        again = {r.check_name: r for r in vf.run_suite(
            templated, vf.SuiteConfig(points=200))}
        for key in ("invariance_theta", "invariance_psi"):
            assert again[key].to_json() == by_name[key].to_json()
            assert again[key].details["method"] == "exact-modular"
