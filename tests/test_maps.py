"""Tests for polynomial automorphisms, scaling families, contraction
certification, Jordan form, and group validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hopflck.expr as ex
import hopflck.hopf as hp
import hopflck.maps as mp
from oracles import (conjugated_map_numeric, geometric_contraction_count,
                     poly_eval_naive, random_annulus, stepped_contraction)


def block_key(blocks, digits=10):
    """Sortable (rounded eigenvalue, size) fingerprint of a block list."""
    return sorted(((round(complex(l).real, digits), round(complex(l).imag, digits)), s)
                  for l, s in blocks)


def random_poly_tables(dim, max_degree, seed):
    """Monomial tables for an automorphism: random linear part + higher terms."""
    rng = np.random.default_rng(seed)
    while True:
        lin = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if abs(np.linalg.det(lin)) > 0.1:
            break
    tables = []
    for i in range(dim):
        table = {}
        for j in range(dim):
            mono = tuple(1 if k == j else 0 for k in range(dim))
            table[mono] = complex(lin[i, j])
        for _ in range(3):
            mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, dim))
            if 2 <= sum(mono) <= max_degree:
                table[mono] = complex(rng.normal(), rng.normal())
        tables.append(table)
    return tables


class TestPolynomial:
    def test_zero_coefficients_pruned(self):
        p = mp.Polynomial(2, {(1, 0): 1.0, (0, 1): 0.0})
        assert (0, 1) not in p.coeffs
        assert p.degree() == 1

    def test_degree_of_zero_polynomial(self):
        assert mp.Polynomial(2, {}).degree() == 0

    def test_add_and_scale(self):
        p = mp.Polynomial(1, {(1,): 2.0})
        q = mp.Polynomial(1, {(1,): -2.0, (3,): 1.0})
        assert (p + q).coeffs == {(3,): 1.0}
        assert p.scale(3.0).coeffs == {(1,): 6.0}

    def test_mul_matches_naive_expansion(self):
        p = mp.Polynomial(2, {(1, 0): 1.0, (0, 2): 2.0 - 1j})
        q = mp.Polynomial(2, {(0, 1): 3.0, (1, 1): 0.5j})
        prod = p.mul(q)
        for pt in [(0.3 + 0.1j, -1.2j), (1.0, 1.0), (2.0 - 0.5j, 0.25)]:
            expected = poly_eval_naive(p.coeffs, pt) * poly_eval_naive(q.coeffs, pt)
            assert abs(poly_eval_naive(prod.coeffs, pt) - expected) < 1e-12

    def test_mul_degree_cap(self):
        p = mp.Polynomial(1, {(8,): 1.0})
        assert mp.DEGREE_CAP == 16
        assert p.mul(p).coeffs == {(16,): 1.0}
        with pytest.raises(mp.DegreeOverflow, match="degree 17 exceeds cap 16"):
            p.mul(mp.Polynomial(1, {(9,): 1.0}))

    def test_compose_matches_pointwise_substitution(self):
        p = mp.Polynomial(2, {(2, 0): 1.0, (1, 1): -1j, (0, 0): 0.5})
        args = [mp.Polynomial(2, {(0, 1): 2.0}),
                mp.Polynomial(2, {(1, 0): 1.0, (0, 2): 1.0})]
        comp = p.compose(args)
        for pt in [(0.7, -0.2 + 0.4j), (1.1j, 0.3)]:
            inner = [poly_eval_naive(a.coeffs, pt) for a in args]
            expected = poly_eval_naive(p.coeffs, inner)
            assert abs(poly_eval_naive(comp.coeffs, pt) - expected) < 1e-12

    def test_compose_respects_cap(self):
        p = mp.Polynomial(1, {(5,): 1.0})
        cubic = mp.Polynomial(1, {(4,): 1.0})
        with pytest.raises(mp.DegreeOverflow):
            p.compose([cubic])

    def test_eval_many_matches_naive(self):
        p = mp.Polynomial(2, {(1, 0): 1.5, (2, 1): 1j, (0, 0): -0.25})
        pts = random_annulus(2, 40, seed=7)
        vals = p.eval_many(pts)
        for row, val in zip(pts, vals):
            assert abs(val - poly_eval_naive(p.coeffs, row)) < 1e-12

    def test_as_expression_agrees_with_eval(self):
        p = mp.Polynomial(2, {(1, 1): 2.0, (0, 3): -1j})
        e = p.as_expression()
        pt = (0.4 - 0.3j, 1.2 + 0.1j)
        assert abs(ex.evaluate(e, pt) - poly_eval_naive(p.coeffs, pt)) < 1e-13

    def test_equality_and_hash(self):
        a = mp.Polynomial(1, {(2,): 1.0})
        b = mp.Polynomial(1, {(2,): 1.0 + 0j})
        assert a == b and hash(a) == hash(b)
        assert a != mp.Polynomial(1, {(2,): 2.0})


class TestPolyAutomorphism:
    def test_from_matrix_eval(self):
        a = np.array([[1.0, 2.0], [0.0, 1j]])
        g = mp.PolyAutomorphism.from_matrix(a)
        z = np.array([0.3 + 0.1j, -1.0])
        assert np.allclose(g.eval(z), a @ z)

    def test_identity_and_diagonal(self):
        eye = mp.PolyAutomorphism.identity(3)
        assert eye.eval((1.0, 2.0, 3j)) == (1.0, 2.0, 3j)
        d = mp.PolyAutomorphism.diagonal([2.0, -1j])
        assert d.eval((1.0, 1.0)) == (2.0, -1j)

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            mp.PolyAutomorphism.from_tables([{(0, 0): 1.0, (1, 0): 1.0},
                                             {(0, 1): 1.0}])

    @pytest.mark.parametrize("make,args,error,message", [
        (mp.PolyAutomorphism, ([],), ValueError, "^empty component list$"),
        (mp.PolyAutomorphism, ([1, 2],), TypeError,
         "^components must be Polynomial instances$"),
        (mp.PolyAutomorphism.from_matrix, (np.ones((2, 3)),), ValueError,
         "^matrix must be square$")])
    def test_malformed_input_refused(self, make, args, error, message):
        with pytest.raises(error, match=message):
            make(*args)

    def test_singular_linear_part_rejected(self):
        with pytest.raises(mp.SingularLinearPart):
            mp.PolyAutomorphism.from_tables([{(1, 0): 1.0},
                                             {(1, 0): 1.0}])

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_invertibility_gate_ignores_scale(self, scale):
        # det(scale * I) is 1e-16 at scale 1e-8, but the map is well
        # conditioned at every scale.
        g = mp.PolyAutomorphism.diagonal([scale, scale])
        assert g.eval((1.0, 1.0)) == (scale, scale)

    def test_ill_conditioned_linear_part_rejected(self):
        # det = 1e-3, far from zero, but sigma_min/sigma_max = 1e-15.
        with pytest.raises(mp.SingularLinearPart,
                           match="sigma_min/sigma_max = 1e-15"):
            mp.PolyAutomorphism.diagonal([1e6, 1e-9])
        with pytest.raises(mp.SingularLinearPart,
                           match="sigma_min/sigma_max = 0 "):
            mp.PolyAutomorphism.from_tables([{(0, 2): 1.0}, {(2, 0): 1.0}])

    def test_non_finite_linear_part_rejected(self):
        with pytest.raises(mp.SingularLinearPart, match="non-finite"):
            mp.PolyAutomorphism.diagonal([float("nan"), 1.0])

    def test_component_dimension_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.PolyAutomorphism([mp.Polynomial(2, {(1, 0): 1.0}),
                                 mp.Polynomial(3, {(0, 1, 0): 1.0})])

    def test_degree_and_linearity(self):
        g = mp.PolyAutomorphism.from_tables([{(1, 0): 1.0, (0, 2): 1.0},
                                             {(0, 1): 1.0}])
        assert g.degree() == 2 and not g.is_linear()
        assert mp.PolyAutomorphism.identity(2).is_linear()

    def test_linear_part_extraction(self):
        g = mp.PolyAutomorphism.from_tables([{(1, 0): 2.0, (0, 2): 5.0},
                                             {(1, 0): 1j, (0, 1): 3.0}])
        assert np.allclose(g.linear_part(), [[2.0, 0.0], [1j, 3.0]])

    def test_linear_part_at_the_largest_dimension(self):
        # Read off each component's degree-1 monomials, so n = 512 takes
        # one pass over the coefficients (it built n^2 unit monomials of
        # length n, 8 s for example2's generator at this n).
        n = hp.MAX_DIMENSION
        rng = np.random.default_rng(17)
        diag = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        upper = 0.1 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        tables = [{unit[i]: diag[i]} for i in range(n)]
        for i in range(n - 1):
            tables[i][unit[i + 1]] = upper[i]
        tables[0][tuple(2 * k for k in unit[n - 1])] = 5.0  # z_n^2
        want = np.diag(diag) + np.diag(upper, 1)
        g = mp.PolyAutomorphism.from_tables(tables)
        assert np.array_equal(g.linear_part(), want)
        mu = 1.5 - 0.5j
        gen = hp.build_entry("example2", {"n": n, "mu": mu}).group
        assert np.array_equal(gen.cyclic_generator.linear_part(),
                              mu * np.eye(n))

    def test_compose_agrees_with_pointwise(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 3, seed=11))
        h = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 3, seed=12))
        gh = g.compose(h)
        for pt in random_annulus(2, 10, seed=13):
            assert np.allclose(gh.eval(pt), g.eval(h.eval(pt)), atol=1e-10)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.PolyAutomorphism.identity(2).compose(mp.PolyAutomorphism.identity(3))

    def test_inverse_linear_roundtrip(self):
        a = np.array([[1.0, 1j], [0.5, 2.0]])
        g = mp.PolyAutomorphism.from_matrix(a)
        comp = g.compose(g.inverse_linear())
        assert comp == mp.PolyAutomorphism.identity(2) or np.allclose(
            comp.linear_part(), np.eye(2), atol=1e-12)

    def test_inverse_linear_rejects_nonlinear(self):
        g = mp.PolyAutomorphism.from_tables([{(1, 0): 1.0, (0, 2): 1.0},
                                             {(0, 1): 1.0}])
        with pytest.raises(ValueError, match="linear"):
            g.inverse_linear()

    def test_eval_many_matches_eval(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(3, 4, seed=21))
        pts = random_annulus(3, 15, seed=22)
        batch = g.eval_many(pts)
        for row, out in zip(pts, batch):
            assert np.allclose(out, g.eval(row), atol=1e-12)

    def test_as_expressions_match_eval(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 3, seed=31))
        exprs = g.as_expressions()
        pt = (0.6 - 0.2j, 0.9 + 0.4j)
        vals = [ex.evaluate(e, pt) for e in exprs]
        assert np.allclose(vals, g.eval(pt), atol=1e-12)


class TestConjugation:
    def test_uniform_weights_scale_by_degree_minus_one(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 4, seed=41))
        t = 0.37 - 0.21j
        conj = mp.ScalingFamily(g, (1, 1)).at(t)
        for comp, orig in zip(conj.components, g.components):
            for mono, c in comp.coeffs.items():
                k = sum(mono)
                assert abs(c - orig.coeffs[mono] * t ** (k - 1)) < 1e-12

    def test_matches_numeric_conjugation(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 3, seed=42))
        t = 0.8 + 0.3j
        weights = (2, 1)
        conj = mp.ScalingFamily(g, weights).at(t)
        for pt in random_annulus(2, 8, seed=43):
            expected = conjugated_map_numeric(g.eval, weights, t, pt)
            assert np.allclose(conj.eval(pt), expected, atol=1e-9)

    def test_is_group_homomorphism(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 2, seed=44))
        h = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 2, seed=45))
        lhs = mp.ScalingFamily(g.compose(h), (1, 1)).at(0.5)
        rhs = (mp.ScalingFamily(g, (1, 1)).at(0.5)
               .compose(mp.ScalingFamily(h, (1, 1)).at(0.5)))
        assert lhs == rhs

    def test_weight_length_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.ScalingFamily(mp.PolyAutomorphism.identity(2), (1, 1, 1))


class TestScalingFamily:
    def quadratic(self):
        return mp.PolyAutomorphism.from_tables(
            [{(1, 0): 1.0, (0, 2): 1.0}, {(0, 1): 1.0}])

    def test_at_one_is_base(self):
        fam = mp.ScalingFamily(self.quadratic(), (1, 1))
        assert fam.at(1.0) == self.quadratic()

    def test_limit_is_linear_part_for_uniform_weights(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 4, seed=52))
        lim = mp.ScalingFamily(g, (1, 1)).limit0()
        assert lim.is_linear()
        assert np.allclose(lim.linear_part(), g.linear_part(), atol=1e-14)

    def test_sample_family_value(self):
        fam = mp.ScalingFamily(self.quadratic(), (1, 1))
        assert fam.at(0.5).eval((1.0, 1.0)) == (1.5, 1.0)

    def test_pole_at_zero(self):
        # weight pattern giving the quadratic term a negative shift
        fam = mp.ScalingFamily(self.quadratic(), (3, 1))
        with pytest.raises(ValueError, match="pole"):
            fam.limit0()
        fam.at(0.5)  # fine away from zero

    def test_weights_length_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.ScalingFamily(self.quadratic(), (1, 1, 1))

    # The quadratic term's shift is 2 w_2 - w_1.  Python's complex power
    # raises OverflowError for 1e200 ** 3, raises ZeroDivisionError for
    # 1e-200 ** -2 and returns nan for 1e200 ** -2.
    @pytest.mark.parametrize("weights, t, shift", [
        ((1, 2), 1e200, 3), ((4, 1), 1e-200, -2), ((4, 1), 1e200, -2)])
    def test_non_finite_coefficient_names_t_and_shift(self, weights, t, shift):
        fam = mp.ScalingFamily(self.quadratic(), weights)
        with pytest.raises(ValueError) as info:
            fam.at(t)
        assert str(info.value) == (
            "family coefficient c t^%d is not finite at t = %r"
            % (shift, complex(t)))

    def test_underflowing_coefficient_drops_out(self):
        fam = mp.ScalingFamily(self.quadratic(), (1, 2))
        assert fam.at(1e-200) == fam.limit0()


class TestContraction:
    def test_uniform_half_contraction_iteration_count(self):
        g = mp.PolyAutomorphism.diagonal([0.5, 0.5])
        res = mp.contraction_test(g, radius=2.0, eps=1e-6)
        assert res.is_contraction
        assert res.num_points == 2 * 4 + 64
        assert res.iterations_needed == geometric_contraction_count(0.5, 2.0, 1e-6)
        assert res.iterations_needed == 21
        assert res.spectral_radius == pytest.approx(0.5)

    def test_jordan_block_contracts_eventually(self):
        g = mp.PolyAutomorphism.from_matrix([[0.7, 1.0], [0.0, 0.7]])
        res = mp.contraction_test(g)
        assert res.is_contraction
        assert res.iterations_needed == 51

    def test_spectral_gate_rejects_mixed_scaling(self):
        g = mp.PolyAutomorphism.diagonal([1.2, 0.5])
        res = mp.contraction_test(g)
        assert not res.is_contraction
        assert res.iterations_needed is None
        assert res.spectral_radius == pytest.approx(1.2)
        assert "spectral" in res.reason

    def test_reason_prints_spectral_radius_in_full(self):
        g = mp.PolyAutomorphism.diagonal([1.0000001, 0.5])
        res = mp.contraction_test(g)
        assert not res.is_contraction
        assert "1.0000001" in res.reason
        assert float(res.reason.split()[2]) == res.spectral_radius

    def test_identity_is_not_a_contraction(self):
        res = mp.contraction_test(mp.PolyAutomorphism.identity(2))
        assert not res.is_contraction and res.spectral_radius == pytest.approx(1.0)

    def test_inverse_of_expansion_contracts(self):
        g = mp.PolyAutomorphism.diagonal([2.0, 2.0 + 1j])
        assert not mp.contraction_test(g).is_contraction
        assert mp.contraction_test(g.inverse_linear()).is_contraction

    def test_nonlinear_contraction(self):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 0.5, (0, 2): 0.1}, {(0, 1): 0.5}])
        res = mp.contraction_test(g)
        assert res.is_contraction and res.iterations_needed is not None

    def test_divergent_orbit_raises(self):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 0.5, (2, 0): 1.0}, {(0, 1): 0.5}])
        with pytest.raises(mp.IterationDiverged):
            mp.contraction_test(g, radius=10.0)

    @pytest.mark.parametrize("radius,eps", [
        (0.0, 1e-6), (-1.0, 1e-6), (float("inf"), 1e-6), (float("nan"), 1e-6),
        (1.0, 0.0), (1.0, float("nan")),
    ])
    def test_radius_and_eps_must_be_finite_and_positive(self, radius, eps):
        g = mp.PolyAutomorphism.diagonal([0.5, 0.5])
        with pytest.raises(ValueError, match="finite and > 0"):
            mp.contraction_test(g, radius=radius, eps=eps)

    def test_deterministic_given_seed(self):
        g = mp.PolyAutomorphism.from_matrix([[0.7, 1.0], [0.0, 0.7]])
        a = mp.contraction_test(g)
        b = mp.contraction_test(g)
        assert a == b

    @pytest.mark.parametrize("name", hp.ENTRY_NAMES + ("jordan",))
    @pytest.mark.parametrize("inverse", [False, True])
    def test_matrix_step_gives_polynomial_step_verdict(self, monkeypatch,
                                                      name, inverse):
        if name == "jordan":
            g = mp.PolyAutomorphism.from_matrix([[0.7, 1.0], [0.0, 0.7]])
        else:
            g = hp.build_entry(name).group.cyclic_generator
        if inverse:
            g = g.inverse_linear()

        def refuse(self, pts):
            raise AssertionError("a linear orbit stepped by eval_many")

        with monkeypatch.context() as patch:
            patch.setattr(mp.PolyAutomorphism, "eval_many", refuse)
            fast = mp.contraction_test(g)
        monkeypatch.setattr(mp.PolyAutomorphism, "is_linear", lambda self: False)
        slow = mp.contraction_test(g)
        assert fast == slow


def _catalog_draw(name, rng):
    """Admissible parameters of a catalog entry, wider than perfbench's."""
    def phase(lo, hi):
        return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-np.pi,
                                                                      np.pi)))
    if name == "vaisman":
        r1, r2 = rng.uniform(0.05, 4.0, 2)
        p1, p2 = rng.uniform(0.0, 3.2, 2) * rng.choice([-1, 1], 2)
        return {"r1": r1, "r2": r2, "p1": p1, "p2": p2}
    if name == "example1":
        return {"mu": phase(1.01, 6.0)}
    if name == "example2":
        return {"mu": phase(1.01, 6.0), "n": int(rng.integers(2, 5))}
    return {"alpha": phase(0.05, 0.995),
            "t": complex(*rng.uniform(-20.0, 20.0, 2))}


def _verdict(result):
    """The compared fields of a contraction result, or the divergence
    message."""
    if isinstance(result, str):
        return result
    return (result.is_contraction, result.iterations_needed, result.reason,
            result.spectral_radius)


def _blocked(g):
    try:
        return _verdict(mp.contraction_test(g))
    except mp.IterationDiverged as err:
        return str(err)


def _both_orientations(gen):
    """(blocked, stepped) verdicts of the generator and of its inverse, the
    inverse given to contraction_test as run_suite gives it, a matrix."""
    return [(_blocked(gen), _verdict(stepped_contraction(gen))),
            (_blocked(gen.inverse_matrix()),
             _verdict(stepped_contraction(gen.inverse_linear())))]


class TestBlockedOrbit:
    """The linear orbit from stacked powers of A^T against the orbit
    stepped one product at a time: a power replaces k products, so only a
    norm within rounding of eps could move a count."""

    DRAWS = 1000

    @pytest.mark.parametrize("name", hp.ENTRY_NAMES)
    def test_catalog_draws_match_the_stepped_orbit(self, name):
        rng = np.random.default_rng([1234, hp.ENTRY_NAMES.index(name)])
        spec = hp._CATALOG[name]
        counts = set()
        for _ in range(self.DRAWS):
            gen = spec.deck(**{**spec.defaults, **_catalog_draw(name, rng)})
            for got, want in _both_orientations(gen):
                assert got == want, (name, gen.linear_part())
                counts.add(want[1])
        assert len(counts) > 10  # the draws reach many iteration counts

    @pytest.mark.parametrize("alpha,t,steps", [
        (0.99, 100, None), (0.9, 5, 198), (0.95, 1, 386), (0.5, 1, 26)])
    def test_kodaira_full_budget_and_slow_orbits(self, alpha, t, steps):
        gen = hp.build_entry("kodaira", {"alpha": alpha, "t": t}
                             ).group.cyclic_generator
        (got, want), _ = _both_orientations(gen)
        assert got == want and got[1] == steps
        if steps is None:
            assert got[2] == "norms still >= eps after 1000 iterations"

    # They diverge after 3, 6, 17 and 73 (the second block) steps.
    @pytest.mark.parametrize("alpha,t", [
        (0.9, 5e5), (0.9, 3e5), (0.97, 1e5), (0.99, 2.9e4)])
    def test_divergence_message_matches_the_stepped_orbit(self, alpha, t):
        gen = mp.PolyAutomorphism.from_matrix([[alpha, t], [0.0, alpha]])
        got, want = _blocked(gen), _verdict(stepped_contraction(gen))
        assert got == want and "exceeded 1e+06" in got

    def test_nonlinear_map_keeps_its_step_loop(self):
        g = mp.PolyAutomorphism.from_tables(
            [{(1, 0): 0.5, (0, 2): 0.1}, {(0, 1): 0.6, (1, 1): -0.2j}])
        assert _blocked(g) == _verdict(stepped_contraction(g))

    def test_wide_map_orbit_is_evaluated_in_slices(self):
        # 16 x 16: each slice of the orbit holds fewer steps than a block.
        rng = np.random.default_rng(9)
        a = np.triu(rng.normal(size=(16, 16)) * 0.1) + 0.93 * np.eye(16)
        g = mp.PolyAutomorphism.from_matrix(a)
        count = 2 * 16 * 16 + 64
        assert mp.ORBIT_ENTRIES // (count * 16) < mp.ORBIT_BLOCK
        assert _blocked(g) == _verdict(stepped_contraction(g))

    def test_matrix_is_tested_as_its_linear_map(self):
        a = np.array([[0.7, 1.0], [0.0, 0.7j]])
        assert mp.contraction_test(a) == mp.contraction_test(
            mp.PolyAutomorphism.from_matrix(a))

    @pytest.mark.parametrize("matrix,error", [
        ([[0.5, np.inf], [0.0, 0.5]], mp.SingularLinearPart),
        ([[0.5, 1.0], [0.25, 0.5]], mp.SingularLinearPart),
        ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], ValueError),
        (np.zeros((0, 0)), ValueError)])
    def test_matrix_is_refused_as_a_linear_part_is(self, matrix, error):
        with pytest.raises(error):
            mp.contraction_test(np.array(matrix, dtype=complex))

    def test_inverse_matrix_is_inverse_linears_linear_part(self):
        for gen in (hp.build_entry("kodaira", {"alpha": -0.3 + 0.4j,
                                               "t": 2.0}).group.cyclic_generator,
                    hp.build_entry("example2", {"n": 3}).group.cyclic_generator):
            got = gen.inverse_matrix()
            assert got.tobytes() == gen.inverse_linear().linear_part().tobytes()

    def test_start_points_are_cached_read_only(self):
        pts = mp._orbit_start(2, 1.0)
        assert pts is mp._orbit_start(2, 1.0) and not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0


class TestJordanForm:
    def test_diagonalizable_matrix(self):
        dec = mp.jordan_form(np.diag([2.0, 3.0, -1.0]))
        assert block_key(dec.blocks) == [((-1.0, 0.0), 1), ((2.0, 0.0), 1), ((3.0, 0.0), 1)]
        assert dec.reconstruction_residual < 1e-12

    def test_single_defective_block(self):
        a = np.array([[0.5, 1.0], [0.0, 0.5]])
        dec = mp.jordan_form(a)
        assert len(dec.blocks) == 1
        lam, size = dec.blocks[0]
        assert size == 2 and abs(lam - 0.5) < 1e-10
        p = dec.transform
        assert np.linalg.norm(p @ dec.jordan_matrix() @ np.linalg.inv(p) - a) < 1e-10

    def test_mixed_block_structure(self):
        j = np.zeros((4, 4), dtype=complex)
        j[0, 0] = j[1, 1] = j[2, 2] = 2.0
        j[0, 1] = j[1, 2] = 1.0
        j[3, 3] = -1.0
        dec = mp.jordan_form(j)
        assert block_key(dec.blocks) == [((-1.0, 0.0), 1), ((2.0, 0.0), 3)]

    @staticmethod
    def dense_two_blocks(seed):
        """p J(i, 2) (+) J(-0.5, 2) p^-1 for a well-conditioned dense p."""
        rng = np.random.default_rng(seed)
        j = np.zeros((4, 4), dtype=complex)
        j[0, 0] = j[1, 1] = 1j
        j[0, 1] = 1.0
        j[2, 2] = j[3, 3] = -0.5
        j[2, 3] = 1.0
        while True:
            p = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if np.linalg.cond(p) < 50:
                break
        return p @ j @ np.linalg.inv(p)

    def test_conjugated_defective_matrix_recovers_structure(self):
        dec = mp.jordan_form(self.dense_two_blocks(99))
        assert block_key(dec.blocks, digits=6) == [((-0.5, 0.0), 2), ((0.0, 1.0), 2)]
        assert dec.reconstruction_residual < 1e-8

    @pytest.mark.parametrize("seed", range(40))
    def test_dense_conjugates_read_at_defaults(self, seed):
        # Rounding splits a 2-block by about sqrt(1e-16) = 1e-8 (seed 35:
        # -0.5 +- 3e-8), inside the cluster radius CLUSTER_TOL = 1e-6.
        dec = mp.jordan_form(self.dense_two_blocks(seed))
        assert block_key(dec.blocks, digits=6) == [((-0.5, 0.0), 2), ((0.0, 1.0), 2)]
        assert dec.reconstruction_residual < 1e-8

    @pytest.mark.parametrize("diagonal", [[1.0] * 4 + [1.003],
                                          [1.003] + [1.0] * 4,
                                          [0.5, 0.5, 0.50002],
                                          [1.0] * 15 + [1.15]])
    def test_repeated_eigenvalue_keeps_distinct_ones_apart(self, diagonal):
        # An exactly repeated eigenvalue does not widen the cluster radius.
        dec = mp.jordan_form(np.diag(diagonal))
        assert [s for _, s in dec.blocks] == [1] * len(diagonal)
        assert sorted(round(lam.real, 6) for lam, _ in dec.blocks) == sorted(diagonal)

    @pytest.mark.parametrize("gap, sizes", [(1e-5, [1, 1]), (2e-6, [1, 1]),
                                            (5e-7, None), (1e-7, None)])
    def test_close_distinct_pair_boundary(self, gap, sizes):
        # A pair closer than CLUSTER_TOL = 1e-6 forms one cluster, which the
        # rank test refuses as ambiguous; a wider pair is resolved.
        a = np.diag([1.0, 1.0 + gap])
        if sizes is None:
            with pytest.raises(mp.IllConditioned):
                mp.jordan_form(a)
        else:
            assert [s for _, s in mp.jordan_form(a).blocks] == sizes

    def test_takes_only_the_matrix(self):
        import inspect
        assert list(inspect.signature(mp.jordan_form).parameters) == ["matrix"]

    @pytest.mark.parametrize("i, j, value", [(0, 0, np.nan), (1, 0, np.inf),
                                             (1, 1, complex(0.5, -np.inf))])
    def test_non_finite_entry_named(self, i, j, value):
        a = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        a[i, j] = value
        with pytest.raises(ValueError) as info:
            mp.jordan_form(a)
        assert str(info.value) == ("matrix entry (%d, %d) = %r is not finite"
                                   % (i, j, complex(value)))

    def test_zero_matrix(self):
        dec = mp.jordan_form(np.zeros((3, 3)))
        assert dec.blocks == ((0j, 1), (0j, 1), (0j, 1))
        assert dec.reconstruction_residual == 0.0

    def test_block_jump_across_family(self):
        base = np.array([[0.5, 1.0], [0.0, 0.5]])
        scaled = lambda t: np.array([[0.5, t], [0.0, 0.5]])
        assert [s for _, s in mp.jordan_form(scaled(1e-3)).blocks] == [2]
        assert [s for _, s in mp.jordan_form(scaled(0.0)).blocks] == [1, 1]
        del base

    def test_gray_zone_raises_ill_conditioned(self):
        with pytest.raises(mp.IllConditioned):
            mp.jordan_form(np.array([[0.5, 5e-9], [0.0, 0.5]]))

    def test_rejects_large_and_nonsquare(self):
        with pytest.raises(ValueError, match="16"):
            mp.jordan_form(np.eye(17))
        with pytest.raises(ValueError, match="square"):
            mp.jordan_form(np.ones((2, 3)))

    @given(st.integers(min_value=0, max_value=200))
    def test_random_diagonalizable_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dec = mp.jordan_form(a)
        p = dec.transform
        rebuilt = p @ dec.jordan_matrix() @ np.linalg.inv(p)
        assert np.linalg.norm(rebuilt - a) / np.linalg.norm(a) < 1e-8


class TestGroupSpec:
    def two_element_group(self):
        return (np.eye(2), -np.eye(2))

    def test_valid_group_accepted(self):
        g = mp.GroupSpec(self.two_element_group(),
                         mp.PolyAutomorphism.diagonal([0.5, 0.5]))
        assert g.dim == 2
        assert len(g.non_identity_elements()) == 1

    def test_trivial_finite_part(self):
        g = mp.GroupSpec((np.eye(2),), mp.PolyAutomorphism.diagonal([0.5, 0.5j]))
        assert g.non_identity_elements() == []

    def test_empty_finite_part_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            mp.GroupSpec((), mp.PolyAutomorphism.identity(2))

    def test_missing_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            mp.GroupSpec((-np.eye(2),), mp.PolyAutomorphism.identity(2))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            mp.GroupSpec((np.eye(2), np.diag([2.0, 0.5])),
                         mp.PolyAutomorphism.identity(2))

    def test_closure_violation_rejected(self):
        theta = 2 * np.pi / 3
        r = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        with pytest.raises(ValueError, match="closed"):
            mp.GroupSpec((np.eye(2), r), mp.PolyAutomorphism.identity(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.GroupSpec((np.eye(3),), mp.PolyAutomorphism.identity(2))

    def test_product_outside_the_finite_part_named(self):
        # diag(-1, 1) diag(1, -1) = -I is not in the finite part.
        with pytest.raises(ValueError, match=r"^finite part not closed under "
                                             r"products \(matrices 1, 2\)$"):
            mp.GroupSpec((np.eye(2), np.diag([-1.0, 1.0]),
                          np.diag([1.0, -1.0])),
                         mp.PolyAutomorphism.identity(2))


class TestFixedPointFree:
    def test_antipodal_group_is_free(self):
        g = mp.GroupSpec((np.eye(2), -np.eye(2)),
                         mp.PolyAutomorphism.diagonal([0.5, 0.5]))
        rep = mp.fixed_point_free_check(g)
        assert rep.is_free
        assert rep.min_distance == pytest.approx(2.0)
        assert rep.distances == ((1, pytest.approx(2.0)),)

    def test_reflection_has_fixed_points(self):
        g = mp.GroupSpec((np.eye(2), np.diag([1.0, -1.0])),
                         mp.PolyAutomorphism.diagonal([0.5, 0.5]))
        rep = mp.fixed_point_free_check(g)
        assert not rep.is_free
        assert rep.min_distance == pytest.approx(0.0)

    def test_trivial_group_is_free(self):
        g = mp.GroupSpec((np.eye(2),), mp.PolyAutomorphism.diagonal([0.5, 0.5]))
        rep = mp.fixed_point_free_check(g)
        assert rep.is_free and rep.distances == ()


class TestEquivariance:
    def samples(self, dim, seed):
        rng = np.random.default_rng(seed)
        return [(float(rng.uniform(-2, 2)),
                 rng.normal(size=dim) + 1j * rng.normal(size=dim))
                for _ in range(100)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trivialization_intertwines(self, k):
        res = mp.equivariance_check((1.0, 1.5), (1.0, 2.0), k,
                                    self.samples(2, seed=60 + k))
        assert res < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.equivariance_check((1.0,), (1.0, 2.0), 1, [])


class TestSerialization:
    def test_map_roundtrip_identity(self):
        g = mp.PolyAutomorphism.from_tables(random_poly_tables(2, 4, seed=71))
        assert mp.map_from_json(mp.map_to_json(g)) == g

    def test_matrix_roundtrip(self):
        a = np.array([[1.0 + 2j, 0.5], [0.0, -1j]])
        assert np.array_equal(mp.matrix_from_json(mp.matrix_to_json(a)), a)

    def test_malformed_map_json(self):
        with pytest.raises(ValueError, match="dim"):
            mp.map_from_json({"components": []})

    def test_component_count_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            mp.map_from_json({"dim": 2, "components": [[]]})

    def test_nonsquare_matrix_json(self):
        with pytest.raises(ValueError, match="square"):
            mp.matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]])


class TestDegreeCapOnEveryPolynomial:
    def test_degree_sixteen_accepted_seventeen_refused(self):
        assert mp.Polynomial(2, {(10, 6): 1.0}).degree() == mp.DEGREE_CAP
        with pytest.raises(mp.DegreeOverflow,
                           match=r"monomial \(10, 7\) of degree 17"):
            mp.Polynomial(2, {(10, 7): 1.0})

    @pytest.mark.parametrize("exponent", [17, 40, 10 ** 400],
                             ids=["17", "40", "10**400"])
    def test_map_file_above_the_cap_refused(self, exponent):
        obj = {"dim": 2, "components": [
            [{"monomial": [exponent, 0], "coeff": [1, 0]}],
            [{"monomial": [0, 1], "coeff": [0.5, 0]}]]}
        with pytest.raises(mp.DegreeOverflow, match="exceeds cap 16"):
            mp.map_from_json(obj)
