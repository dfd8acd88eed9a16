"""Tests for the catalog of Hopf-surface structures and deformation families."""

import math
import re

import numpy as np
import pytest

import hopflck.expr as ex
import hopflck.forms as fm
import hopflck.hopf as hp
import hopflck.maps as mp
import hopflck.verify as vf
from oracles import (example1_reference_forms, implicit_time_reference,
                     random_annulus, vaisman_reference_forms)

DZ1, DZ2, DZB1, DZB2 = 0, 1, 2, 3


def assert_proven_equal(a, b):
    """Each coefficient of a - b is proven zero, within FALSE_PASS_BOUND."""
    vanished, bounds = ex._prove(list((a - b).terms.values()))
    assert all(vanished) and max(bounds, default=0.0) <= vf.FALSE_PASS_BOUND


def lck_defect(entry, points):
    """max |d Omega - theta ^ Omega| coefficient over the points."""
    omega = entry.forms["Omega"]
    theta = entry.forms["theta"]
    defect = fm.exterior_d(omega) - fm.wedge(theta, omega)
    return fm.max_form_residual(defect, points)


class TestExample1:
    def entry(self):
        return hp.example1_entry()

    def test_metadata(self):
        e = self.entry()
        assert e.name == "example1" and e.ambient_dim == 2
        assert set(e.forms) == {"Omega", "theta", "psi", "fubini_study"}
        assert e.parameters["mu"] == 2.0
        assert e.potential is None

    def test_modulus_guard(self):
        with pytest.raises(hp.BadParameter, match="mu"):
            hp.example1_entry(mu=0.5)
        with pytest.raises(hp.BadParameter):
            hp.example1_entry(mu=1.0)
        hp.example1_entry(mu=-2.0)  # modulus is what matters

    def test_spot_values_at_unit_point(self):
        e = self.entry()
        pt = (1.0, 0.0)
        om = fm.evaluate_form(e.forms["Omega"], pt)
        assert om[(DZ1, DZB1)] == pytest.approx(-1j)
        assert om[(DZ2, DZB2)] == pytest.approx(-1j)
        th = fm.evaluate_form(e.forms["theta"], pt)
        assert th[(DZ1,)] == pytest.approx(-1.0)
        assert th[(DZB1,)] == pytest.approx(-1.0)
        assert th[(DZ2,)] == pytest.approx(0.0)
        ps = fm.evaluate_form(e.forms["psi"], pt)
        assert ps[(DZ1,)] == pytest.approx(-1j)
        assert ps[(DZB1,)] == pytest.approx(1j)
        fs = fm.evaluate_form(e.forms["fubini_study"], pt)
        assert fs[(DZ2, DZB2)] == pytest.approx(2j)
        assert fs[(DZ1, DZB1)] == pytest.approx(0.0)

    def test_lee_form_is_closed(self):
        e = self.entry()
        pts = random_annulus(2, 50, seed=101)
        assert fm.max_form_residual(fm.exterior_d(e.forms["theta"]), pts) < 1e-12

    def test_twisted_closedness(self):
        pts = random_annulus(2, 50, seed=102)
        assert lck_defect(self.entry(), pts) < 1e-12

    def test_degenerate_form_is_differential_of_contact_form(self):
        e = self.entry()
        diff = e.forms["fubini_study"] - fm.exterior_d(e.forms["psi"])
        pts = random_annulus(2, 50, seed=103)
        assert fm.max_form_residual(diff, pts) < 1e-12

    def test_metric_form_signs(self):
        e = self.entry()
        pts = random_annulus(2, 30, seed=104)
        rep = fm.definiteness(e.forms["Omega"], pts)
        assert rep.is_definite and rep.sign == 1
        fs = fm.definiteness(e.forms["fubini_study"], pts)
        assert not fs.is_definite and fs.is_semidefinite and fs.sign == -1

    def test_forms_invariant_under_deck_generator(self):
        e = self.entry()
        gen = e.group.cyclic_generator.as_expressions()
        pts = random_annulus(2, 30, seed=105)
        for key in ("Omega", "theta", "psi", "fubini_study"):
            pulled = fm.pullback(gen, e.forms[key])
            assert fm.max_form_residual(pulled - e.forms[key], pts) < 1e-10


class TestExample2:
    def test_potential_and_homothety_factor(self):
        phi, group = hp.example2_potential(n=2, mu=1.5 + 0.5j)
        z = (0.3 - 0.2j, 1.1 + 0.4j)
        gz = group.cyclic_generator.eval(z)
        ratio = ex.evaluate(phi, gz) / ex.evaluate(phi, z)
        assert abs(ratio - abs(1.5 + 0.5j) ** 2) < 1e-12

    def test_entry_is_constant_coefficient_kaehler(self):
        e = hp.example2_entry()
        assert e.potential is not None
        om = e.forms["Omega"]
        assert om.terms == {(DZ1, DZB1): ex.const(-1j), (DZ2, DZB2): ex.const(-1j)}
        assert fm.exterior_d(om).is_zero()
        assert e.forms["theta"].is_zero()

    def test_entry_definiteness(self):
        pts = random_annulus(2, 20, seed=111)
        rep = fm.definiteness(hp.example2_entry().forms["Omega"], pts)
        assert rep.is_definite and rep.sign == 1

    def test_higher_dimension(self):
        e = hp.example2_entry(n=3, mu=2.0)
        assert e.ambient_dim == 3
        assert len(e.forms["Omega"].terms) == 3

    def test_parameter_guards(self):
        with pytest.raises(hp.BadParameter, match="mu"):
            hp.example2_potential(mu=1.0)
        with pytest.raises(hp.BadParameter, match="dimension"):
            hp.example2_potential(n=1)
        # Refused by name before the n x n generator is built, which at
        # 10^20 would be numpy's "Maximum allowed dimension exceeded".
        for n in (hp.MAX_DIMENSION + 1, 10 ** 20):
            with pytest.raises(hp.BadParameter, match="got n = %d$" % n):
                hp.example2_entry(n=n)


class TestKodaira:
    def test_map_values(self):
        g = hp.kodaira_family(alpha=0.5, t=1.0)
        assert g.eval((1.0, 1.0)) == (1.5, 0.5)
        assert g.eval((0.0, 2.0)) == (2.0, 1.0)
        assert np.allclose(g.linear_part(), [[0.5, 1.0], [0.0, 0.5]])

    def test_alpha_guard(self):
        with pytest.raises(hp.BadParameter):
            hp.kodaira_family(alpha=0.0)
        with pytest.raises(hp.BadParameter):
            hp.kodaira_family(alpha=1.0)
        hp.kodaira_family(alpha=0.5j)

    def test_entry_shape(self):
        e = hp.kodaira_entry(alpha=0.5, t=1.0)
        assert e.name == "kodaira" and dict(e.forms) == {}
        assert e.parameters == {"alpha": 0.5 + 0j, "t": 1.0 + 0j}
        assert e.group.cyclic_generator == hp.kodaira_family(0.5, 1.0)

    def test_generator_is_contraction(self):
        res = mp.contraction_test(hp.kodaira_entry().group.cyclic_generator)
        assert res.is_contraction and res.spectral_radius == pytest.approx(0.5)


class TestLinearizationFamily:
    def test_uniform_family_connects_map_to_linear_part(self):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 0.5, (0, 2): 1.0}, {(0, 1): 0.5, (2, 0): -1j}])
        fam = hp.family_to_linear(g)
        assert fam.at(1.0) == g
        lim = fam.limit0()
        assert lim.is_linear()
        assert np.allclose(lim.linear_part(), g.linear_part())

    def test_halfway_point(self):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 1.0, (0, 2): 1.0}, {(0, 1): 1.0}])
        assert hp.family_to_linear(g).at(0.5).eval((1.0, 1.0)) == (1.5, 1.0)


class TestDiagonalizingFamily:
    def block(self, lam, n):
        j = np.diag([lam] * n).astype(complex)
        for i in range(n - 1):
            j[i, i + 1] = 1.0
        return j

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_superdiagonal_becomes_t(self, n):
        fam = hp.family_to_diagonal(self.block(0.5, n))
        t = 0.3 - 0.1j
        at = fam.at(t).linear_part()
        expected = np.diag([0.5] * n).astype(complex)
        for i in range(n - 1):
            expected[i, i + 1] = t
        assert np.array_equal(at, expected)
        assert np.array_equal(fam.at(1.0).linear_part(), self.block(0.5, n))
        assert np.array_equal(fam.limit0().linear_part(), np.diag([0.5] * n))

    def test_mixed_blocks(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = a[1, 1] = 2.0
        a[0, 1] = 1.0
        a[2, 2] = 5.0
        at = hp.family_to_diagonal(a).at(0.25).linear_part()
        assert at[0, 1] == 0.25 and at[1, 2] == 0.0
        assert np.array_equal(np.diag(at), [2.0, 2.0, 5.0])

    def test_rejects_non_jordan_input(self):
        with pytest.raises(mp.NotJordan, match="neither 0 nor 1"):
            hp.family_to_diagonal([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(mp.NotJordan, match="distinct diagonal"):
            hp.family_to_diagonal([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(mp.NotJordan, match="breaks"):
            hp.family_to_diagonal([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(mp.NotJordan, match="square"):
            hp.family_to_diagonal(np.ones((2, 3)))

    def test_rejects_nan_entries(self):
        nan = float("nan")
        with pytest.raises(mp.NotJordan, match="breaks"):
            hp.family_to_diagonal([[0.5, 0.0], [nan, 0.5]])
        with pytest.raises(mp.NotJordan, match="neither 0 nor 1"):
            hp.family_to_diagonal([[0.5, nan], [0.0, 0.5]])
        with pytest.raises(mp.NotJordan, match="distinct diagonal"):
            hp.family_to_diagonal([[nan, 1.0], [0.0, 0.5]])

    def test_near_entries_snap_to_exact_zero_and_one(self):
        fam = hp.family_to_diagonal([[0.5, 1 - 1e-13], [1e-13, 0.5]])
        assert np.array_equal(fam.at(1.0).linear_part(),
                              [[0.5, 1.0], [0.0, 0.5]])


class TestWeightedContactForm:
    def test_equal_weights_match_catalog_contact_form(self):
        assert_proven_equal(hp.weighted_sasaki((1.0, 1.0)),
                            hp.example1_entry().forms["psi"])

    def test_weight_guards(self):
        with pytest.raises(hp.BadParameter, match="positive"):
            hp.weighted_sasaki((1.0, -2.0))
        with pytest.raises(hp.BadParameter, match="two"):
            hp.weighted_sasaki((1.0, 1.0, 1.0))

    def test_implicit_time_solves_defining_relation(self):
        r = (1.0, 1.5)
        t = hp.implicit_time(r)
        pts = random_annulus(2, 40, seed=121)
        tv = ex.evaluate_many(t, pts)
        lhs = (np.abs(pts[:, 0]) ** 2 * np.exp(2 * r[0] * tv.real)
               + np.abs(pts[:, 1]) ** 2 * np.exp(2 * r[1] * tv.real))
        assert np.max(np.abs(lhs - 1.0)) < 1e-10
        assert np.max(np.abs(tv.imag)) == 0.0

    def test_implicit_time_against_bisection(self):
        r = (0.7, 2.3)
        t = hp.implicit_time(r)
        for pt in random_annulus(2, 10, seed=122):
            ref = implicit_time_reference(r, pt)
            assert abs(complex(ex.evaluate(t, pt)).real - ref) < 1e-10

    def test_equal_weights_closed_form(self):
        t = hp.implicit_time((1.0, 1.0))
        for pt in random_annulus(2, 10, seed=123):
            rho = abs(pt[0]) ** 2 + abs(pt[1]) ** 2
            assert abs(complex(ex.evaluate(t, pt)) + 0.5 * math.log(rho)) < 1e-12

    def test_time_shifts_by_one_under_deck_generator(self):
        r = (1.0, 1.5)
        p = (1.0, 2.0)
        t = hp.implicit_time(r)
        lam = np.array([np.exp(-r[0] + 1j * p[0]), np.exp(-r[1] + 1j * p[1])])
        pts = random_annulus(2, 20, seed=124)
        before = ex.evaluate_many(t, pts)
        after = ex.evaluate_many(t, pts * lam)
        assert np.max(np.abs(after - before - 1.0)) < 1e-10

    def test_invariant_transport_agrees_on_unit_sphere(self):
        r = (1.0, 1.5)
        rng = np.random.default_rng(125)
        raw = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
        sphere = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        diff_vals = []
        inv = hp.weighted_sasaki_invariant(r)
        base = hp.weighted_sasaki(r)
        for key in ((0,), (1,), (2,), (3,)):
            a = fm.evaluate_form_many(inv, sphere).get(key, np.zeros(20))
            b = fm.evaluate_form_many(base, sphere).get(key, np.zeros(20))
            diff_vals.append(np.max(np.abs(a - b)))
        assert max(diff_vals) < 1e-10

    def test_transport_is_deck_invariant_raw_form_is_not(self):
        r = (1.0, 1.5)
        p = (1.0, 2.0)
        gen = mp.PolyAutomorphism.diagonal(
            [np.exp(-r[0] + 1j * p[0]), np.exp(-r[1] + 1j * p[1])])
        exprs = gen.as_expressions()
        pts = random_annulus(2, 30, seed=126)
        inv = hp.weighted_sasaki_invariant(r)
        resid_inv = fm.max_form_residual(fm.pullback(exprs, inv) - inv, pts)
        assert resid_inv < 1e-10
        raw = hp.weighted_sasaki(r)
        resid_raw = fm.max_form_residual(fm.pullback(exprs, raw) - raw, pts)
        assert resid_raw > 0.1


class TestVaismanEntry:
    def entry(self):
        return hp.vaisman_entry(r=(1.0, 1.5), p=(1.0, 2.0))

    def test_metadata(self):
        e = self.entry()
        assert e.name == "vaisman"
        assert set(e.forms) == {"Omega", "theta", "psi"}
        assert e.parameters == {"r1": 1.0, "r2": 1.5, "p1": 1.0, "p2": 2.0}
        lam = np.diag(e.group.cyclic_generator.linear_part())
        assert np.allclose(lam, [np.exp(-1 + 1j), np.exp(-1.5 + 2j)])

    def test_parameter_guards(self):
        with pytest.raises(hp.BadParameter, match="positive"):
            hp.vaisman_entry(r=(0.0, 1.0))
        with pytest.raises(hp.BadParameter, match="nonzero"):
            hp.vaisman_entry(p=(0.0, 1.0))
        with pytest.raises(hp.BadParameter):
            hp.vaisman_entry(r=(1.0,))
        with pytest.raises(hp.BadParameter, match="phases"):
            hp.vaisman_entry(p=(1.0, 2.0, 3.0))

    def test_lee_form_is_exact_hence_closed(self):
        e = self.entry()
        pts = random_annulus(2, 30, seed=131)
        assert fm.max_form_residual(fm.exterior_d(e.forms["theta"]), pts) < 1e-10

    def test_twisted_closedness(self):
        pts = random_annulus(2, 40, seed=132)
        assert lck_defect(self.entry(), pts) < 1e-8

    def test_metric_form_has_single_sign(self):
        pts = random_annulus(2, 25, seed=133)
        rep = fm.definiteness(self.entry().forms["Omega"], pts)
        assert rep.is_definite and rep.sign == -1
        assert rep.min_abs_eigenvalue > 0.05

    def test_forms_invariant_under_deck_generator(self):
        e = self.entry()
        exprs = e.group.cyclic_generator.as_expressions()
        pts = random_annulus(2, 25, seed=134)
        for key in ("Omega", "theta", "psi"):
            resid = fm.max_form_residual(
                fm.pullback(exprs, e.forms[key]) - e.forms[key], pts)
            assert resid < 1e-8

    def test_equal_weight_lee_form_matches_log_derivative(self):
        e = hp.vaisman_entry(r=(1.0, 1.0), p=(1.0, 2.0))
        rho = ex.add(ex.mul(ex.z(1), ex.zbar(1)), ex.mul(ex.z(2), ex.zbar(2)))
        closed = fm.exterior_d(fm.scalar_form(2, ex.mul(ex.const(-0.5), ex.log(rho))))
        pts = random_annulus(2, 25, seed=135)
        assert fm.max_form_residual(e.forms["theta"] - closed, pts) < 1e-10


class TestFromPotential:
    """example1 and vaisman are written from their lcK potentials; each
    form is proven equal to the one written by hand."""

    def test_example1_forms_are_the_hand_written_tables(self):
        forms = hp.example1_entry().forms
        reference = example1_reference_forms()
        assert set(forms) == set(reference)
        for key, form in reference.items():
            assert_proven_equal(forms[key], form)

    def test_vaisman_forms_are_the_transported_contact_structure(self):
        # Over params, so the identities hold for every weight.
        forms, _ = hp.build_entry("vaisman").template.build(symbolic=True)
        reference = vaisman_reference_forms(ex.param("r1"), ex.param("r2"))
        assert set(forms) == set(reference)
        for key, form in reference.items():
            assert_proven_equal(forms[key], form)
        assert forms["theta"] == reference["theta"]

    def test_vaisman_metric_form_is_of_type_11(self):
        omega = hp.vaisman_entry().forms["Omega"]
        assert fm.bidegree_part(omega, 2, 0).is_zero()
        assert fm.bidegree_part(omega, 0, 2).is_zero()
        assert len(omega.terms) == 4


class TestRegistry:
    def test_entry_names(self):
        assert hp.ENTRY_NAMES == ("example1", "example2", "kodaira", "vaisman")

    def test_default_build(self):
        for name in hp.ENTRY_NAMES:
            e = hp.build_entry(name)
            assert e.name == name

    def test_parameters_forwarded(self):
        e = hp.build_entry("example1", {"mu": 3.0})
        assert e.parameters["mu"] == 3.0
        v = hp.build_entry("vaisman", {"r1": 2.0, "p2": -1.0})
        assert v.parameters["r1"] == 2.0 and v.parameters["p2"] == -1.0

    def test_unknown_entry(self):
        with pytest.raises(hp.UnknownEntry, match="known entries"):
            hp.build_entry("nonexistent")

    def test_leftover_parameters_rejected(self):
        with pytest.raises(hp.BadParameter, match="alpha"):
            hp.build_entry("example1", {"mu": 2.0, "alpha": 0.5})

    def test_bad_parameter_propagates(self):
        with pytest.raises(hp.BadParameter):
            hp.build_entry("example1", {"mu": 0.5})

    @pytest.mark.parametrize("name,params", [
        ("vaisman", {"r1": math.nan}),
        ("vaisman", {"p2": math.inf}),
        ("kodaira", {"t": complex(math.nan, 0.0)}),
        ("example1", {"mu": complex(2.0, math.inf)}),
    ])
    def test_non_finite_parameter_rejected(self, name, params):
        (key, value), = params.items()
        with pytest.raises(hp.BadParameter,
                           match="finite.*%s = " % key) as err:
            hp.build_entry(name, params)
        assert repr(value) in str(err.value)


class TestTemplates:
    @pytest.mark.parametrize("name", hp.ENTRY_NAMES)
    def test_forms_built_on_first_access_only(self, monkeypatch, name):
        builds = []
        build = hp.EntryTemplate.build

        def counting(self, symbolic=False):
            builds.append(symbolic)
            return build(self, symbolic)

        monkeypatch.setattr(hp.EntryTemplate, "build", counting)
        entry = hp.build_entry(name)
        assert builds == []
        forms, potential = entry.forms, entry.potential
        assert builds == [False]
        assert entry.forms is forms and entry.potential is potential

    def test_entry_is_immutable_and_takes_forms_or_template(self):
        entry = hp.build_entry("kodaira")
        with pytest.raises(AttributeError, match="immutable"):
            entry.name = "other"
        with pytest.raises(ValueError, match="not both"):
            hp.HopfSurfaceCatalogEntry(
                "x", 2, {"theta": fm.ExteriorForm(2, 1, {})}, entry.group, {},
                template=entry.template)

    def test_form_of_another_dimension_refused_by_name(self):
        group = hp.build_entry("example1").group
        with pytest.raises(ex.DimensionMismatch,
                           match="^form 'theta' has ambient dimension 3, "
                                 "entry expects 2$"):
            hp.HopfSurfaceCatalogEntry("x", 2, {"theta": fm.d_z(3, 1)},
                                       group, {})

    def test_template_with_params_is_the_same_shape_for_all_weights(self):
        a = hp.vaisman_entry(r=(0.8, 1.7)).template.build(symbolic=True)
        b = hp.vaisman_entry(r=(1.9, 0.6)).template.build(symbolic=True)
        assert a == b

    @pytest.mark.parametrize("r", [(1.0, 1.5), (0.8, 1.7), (1.9, 0.6)])
    def test_bound_template_gives_the_forms_bit_for_bit(self, r):
        entry = hp.vaisman_entry(r=r, p=(0.5, -1.1))
        template, _ = entry.template.build(symbolic=True)
        binding = dict(entry.template.inputs)
        pts = random_annulus(2, 40, seed=127)
        for key, form in entry.forms.items():
            want = fm.evaluate_form_many(form, pts)
            got = fm._RequestTape([(template[key], fm._Full)], 2).run(
                pts, binding)[0]
            assert sorted(got) == sorted(want)
            for index in want:
                assert np.array_equal(got[index], want[index])


class TestParameterKinds:
    """build_entry gives every value its default's type, or refuses it."""

    @pytest.mark.parametrize("value", [1j, "x", 10 ** 400],
                             ids=["1j", "x", "10**400"])
    def test_weight_of_another_kind_refused(self, value):
        with pytest.raises(hp.BadParameter, match="r1") as err:
            hp.build_entry("vaisman", {"r1": value})
        assert "real number" in str(err.value)

    @pytest.mark.parametrize("entry,key", [
        ("vaisman", "r1"), ("example1", "mu"), ("example2", "n")])
    @pytest.mark.parametrize("value", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    def test_boolean_refused(self, entry, key, value):
        # bool is an int to Python; no parameter kind takes one.
        with pytest.raises(hp.BadParameter, match="needs .* %s, got %s$"
                           % (key, re.escape(repr(value)))):
            hp.build_entry(entry, {key: value})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_past_the_float_range_is_one_short_message(self, sign):
        with pytest.raises(hp.BadParameter) as err:
            hp.build_entry("vaisman", {"r1": sign * 10 ** 400})
        assert str(err.value) == (
            "entry 'vaisman' needs a real number for r1, got %s~10^400"
            % ("-" if sign < 0 else ""))
        assert len(str(err.value)) < 80

    def test_values_take_their_defaults_types(self):
        e = hp.build_entry("example2", {"mu": 3, "n": 3.0})
        assert type(e.parameters["mu"]) is complex
        assert type(e.parameters["n"]) is int and e.ambient_dim == 3
        v = hp.build_entry("vaisman", {"r1": 2, "p2": np.float64(-1.0)})
        assert all(type(x) is float for x in v.parameters.values())

    @pytest.mark.parametrize("n", [2.5, "3", 1j])
    def test_dimension_must_be_integral(self, n):
        with pytest.raises(hp.BadParameter, match="integer dimension n"):
            hp.build_entry("example2", {"n": n})

    def test_catalog_defaults_are_the_constructors_defaults(self):
        for name in hp.ENTRY_NAMES:
            built = hp.build_entry(name)
            by_name = getattr(hp, name + "_entry")()
            assert dict(built.parameters) == dict(by_name.parameters)
            assert {k: type(v) for k, v in built.parameters.items()} == {
                k: type(v) for k, v in hp._CATALOG[name].defaults.items()}
