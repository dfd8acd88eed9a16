"""Tests for the Lee-form solver, identity checks, and the verification suite."""

import json

import numpy as np
import pytest

import hopflck.expr as ex
import hopflck.forms as fm
import hopflck.hopf as hp
import hopflck.maps as mp
import hopflck.verify as vf
from hopflck.sampling import annulus_points
from oracles import random_annulus


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
        rho = ex.const(0.0)
        for i in range(1, n + 1):
            rho = ex.add(rho, ex.mul(ex.z(i), ex.zbar(i)))
        om = fm.kaehler_form(n, rho).scale(ex.div(ex.const(1.0), rho))
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

    def test_dimension_mismatch(self):
        e1 = hp.example1_entry()
        e3 = hp.example2_entry(n=3)
        with pytest.raises(ex.DimensionMismatch):
            vf.verify_lck(e1.forms["Omega"], e3.forms["theta"],
                          random_annulus(2, 5, seed=215))


class TestVerifyPotential:
    def test_homothety_with_expected_factor(self):
        mu = 1.5 + 0.5j
        phi, group = hp.example2_potential(mu=mu)
        pts = random_annulus(2, 50, seed=221)
        rep = vf.verify_potential(phi, group, pts)
        assert rep.passed
        assert rep.num_points == 52  # axis points appended
        gen = rep.details["generators"][0]
        assert gen["deviation"] < 1e-12
        assert abs(gen["rho"] - abs(mu) ** 2) < 1e-12
        assert rep.details["definiteness"]["sign"] == 1
        assert rep.details["closedness_residual"] < 1e-12

    def test_identity_action_has_unit_ratio(self):
        phi, _ = hp.example2_potential()
        group = mp.GroupSpec((np.eye(2),), mp.PolyAutomorphism.identity(2))
        rep = vf.verify_potential(phi, group, random_annulus(2, 10, seed=222))
        assert rep.passed
        assert rep.details["generators"][0]["rho"] == pytest.approx(1.0)

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


class TestRunSuite:
    def small(self, **kw):
        return vf.SuiteConfig(points=kw.pop("points", 80), **kw)

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

    def test_kodaira_suite_has_only_group_checks(self):
        reports = vf.run_suite(hp.kodaira_entry(), self.small())
        assert [r.check_name for r in reports] == ["fixed_point_free",
                                                   "contraction"]
        assert vf.suite_passed(reports)
        assert reports[-1].details["certified_map"] == "generator"

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
        entry = make()
        config = self.small()
        by_name = {r.check_name: r for r in vf.run_suite(entry, config)}
        pts = annulus_points(entry.ambient_dim, config.points, config.seed)
        lck = vf.verify_lck(entry.forms["Omega"], entry.forms["theta"], pts)
        assert lck.details["lck_residual"] == \
            by_name["lck_residual"].max_residual
        assert lck.details["lee_closedness_residual"] == \
            by_name["lee_closedness"].max_residual

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
            for check, key, form in (
                    ("lck_residual", "lck_residual",
                     fm.exterior_d(omega) - fm.wedge(theta, omega)),
                    ("lee_closedness", "lee_closedness_residual",
                     fm.exterior_d(theta))):
                res = _residual_one_form_at_a_time(form, pts)
                assert by_name[check].max_residual == lck.details[key]
                assert by_name[check].max_residual == res.max(initial=0.0)
                assert by_name[check].details["worst_points"] == \
                    vf._worst_points(pts, res)
            alone = fm.definiteness(fm.bidegree_part(omega, 1, 1), pts)
            details = by_name["definiteness"].details
            assert details == lck.details["definiteness"]
            assert (details["is_definite"], details["is_semidefinite"],
                    details["sign"], details["min_abs_eigenvalue"]) == \
                (alone.is_definite, alone.is_semidefinite, alone.sign,
                 alone.min_abs_eigenvalue)
        for key in ("theta", "psi"):
            if key not in forms:
                continue
            gens = vf._generator_list(entry.group)
            got = by_name["invariance_%s" % key].details["generators"]
            assert [g["generator"] for g in got] == [n for n, _ in gens]
            for g, (_, gen) in zip(got, gens):
                assert g["residual"] == vf.verify_invariance(
                    forms[key], gen, pts).max_residual
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
        # holds t(z) and t(lambda z) once each.
        assert len(at_samples) == 1
        assert _implicit_ops(at_samples[0]) == 2

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
        assert [fixed for _, fixed, _ in vf._SUITES] == [
            (n,) for n in range(5, 13)]
        vf.run_suite(hp.build_entry("example2", {"n": 5}),
                     vf.SuiteConfig(points=20))
        assert [fixed for _, fixed, _ in vf._SUITES][-1] == (5,)

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
        assert [tape for tape, _ in runs] == [
            vf._SUITES[before[-1]].requests.tape]

    def test_support_is_part_of_the_key(self):
        a = hp.build_entry("kodaira", {"t": 1.0})
        b = hp.build_entry("kodaira", {"t": 0.0})
        vf.run_suite(a, self.CONFIG)
        vf.run_suite(b, self.CONFIG)
        assert [support for _, _, support in list(vf._SUITES)[-2:]] == [
            ((((0, 1), (1, 0)), ((0, 1),)),), ((((1, 0),), ((0, 1),)),)]

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
        assert vf.reports_to_json(vf.run_suite(entry, self.CONFIG)) == got


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
