"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single pass/fail line with the measured quantity so the
whole battery can be audited from the pytest -v -s transcript.
"""

import json
import math
import time

import numpy as np

import hopflck.cli as cli
import hopflck.expr as ex
import hopflck.forms as fm
import hopflck.hopf as hp
import hopflck.maps as mp
import hopflck.verify as vf
from hopflck.sampling import annulus_points


def report(num, name, ok, detail):
    print("criterion %02d %-28s %s  (%s)"
          % (num, name + ":", "PASS" if ok else "FAIL", detail))
    return ok


def random_automorphism(dim, max_degree, rng):
    while True:
        lin = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if abs(np.linalg.det(lin)) > 0.1:
            break
    tables = []
    for i in range(dim):
        table = {tuple(1 if k == j else 0 for k in range(dim)): complex(lin[i, j])
                 for j in range(dim)}
        for _ in range(4):
            mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, dim))
            if 2 <= sum(mono) <= max_degree:
                table[mono] = complex(rng.normal(), rng.normal())
        tables.append(table)
    return mp.PolyAutomorphism.from_tables(tables)


def test_criterion_01_twisted_closedness_at_scale():
    entry = hp.example1_entry()
    pts = annulus_points(2, 1000, 42)
    start = time.perf_counter()
    omega, theta = entry.forms["Omega"], entry.forms["theta"]
    lck = fm.max_form_residual(fm.exterior_d(omega) - fm.wedge(theta, omega), pts)
    closed = fm.max_form_residual(fm.exterior_d(theta), pts)
    elapsed = time.perf_counter() - start
    ok = lck < 1e-10 and closed < 1e-10 and elapsed < 5.0
    assert report(1, "lck identity", ok,
                  "residual %.3g, d-theta %.3g, %.2fs over 1000 points"
                  % (lck, closed, elapsed))


def test_criterion_02_degenerate_projective_form():
    entry = hp.example1_entry()
    pts = annulus_points(2, 1000, 42)
    fs = entry.forms["fubini_study"]
    diff = fm.max_form_residual(fm.exterior_d(entry.forms["psi"]) - fs, pts)
    rep = fm.definiteness(fs, pts)
    worst_null = float(np.max(np.min(np.abs(rep.eigenvalues), axis=1)))
    ok = diff < 1e-10 and worst_null < 1e-9
    assert report(2, "projective 2-form", ok,
                  "d-psi mismatch %.3g, worst null eigenvalue %.3g"
                  % (diff, worst_null))


def test_criterion_03_potential_homothety():
    mu = 1.5 + 0.5j
    om = hp.example2_entry().forms["Omega"]
    structural = om.terms == {(0, 2): ex.const(-1j), (1, 3): ex.const(-1j)}
    phi, group = hp.example2_potential(mu=mu)
    rep = vf.verify_potential(phi, group, annulus_points(2, 100, 42))
    gen = rep.details["generators"][0]
    dev = gen["deviation"]
    mean_err = abs(gen["rho"] - abs(mu) ** 2)
    ok = structural and dev < 1e-12 and mean_err < 1e-12
    assert report(3, "potential homothety", ok,
                  "terms exact %s, deviation %.3g, mean error %.3g"
                  % (structural, dev, mean_err))


def test_criterion_04_lee_form_solver():
    entry = hp.example1_entry()
    pts = annulus_points(2, 200, 42)
    results = vf.solve_lee_many(entry.forms["Omega"], pts)
    theta_vals = fm.evaluate_form_many(entry.forms["theta"], pts)
    coeff_err = max(
        max(abs(res.theta_coeffs[i] - theta_vals[(i,)][k]) for i in range(4))
        for k, res in enumerate(results))
    reality = max(res.reality_defect for res in results)
    kaehler = vf.solve_lee_pointwise(hp.example2_entry().forms["Omega"],
                                     (0.8 + 0.1j, -0.6))
    kaehler_norm = max(abs(c) for c in kaehler.theta_coeffs)
    ok = (coeff_err < 1e-9 and reality < 1e-9
          and kaehler.residual < 1e-12 and kaehler_norm < 1e-12)
    assert report(4, "lee-form solver", ok,
                  "coefficient error %.3g, reality %.3g, kaehler residual %.3g"
                  % (coeff_err, reality, kaehler.residual))


def test_criterion_05_conformal_covariance():
    entry = hp.example1_entry()
    pts = annulus_points(2, 200, 42)
    base = vf.verify_lck(entry.forms["Omega"], entry.forms["theta"], pts)
    s = ex.mul(ex.z(1), ex.zbar(1))
    rescaled = entry.forms["Omega"].scale(ex.exp(ex.mul(ex.const(-1.0), s)))
    shifted = entry.forms["theta"] - fm.exterior_d(fm.scalar_form(2, s))
    moved = vf.verify_lck(rescaled, shifted, pts, tolerance=1e-9)
    ok = base.passed and moved.passed
    assert report(5, "conformal covariance", ok,
                  "base residual %.3g, rescaled residual %.3g"
                  % (base.max_residual, moved.max_residual))


def test_criterion_06_family_to_linear_exact():
    rng = np.random.default_rng(2024)
    t_values = (0.7 - 0.4j, 0.2, 1.5j)
    checked = 0
    exact = True
    for dim in (2, 3):
        for _ in range(10):
            g = random_automorphism(dim, 4, rng)
            fam = hp.family_to_linear(g)
            for t in t_values:
                at = fam.at(t)
                for comp, orig in zip(at.components, g.components):
                    for mono, c in comp.coeffs.items():
                        k = sum(mono)
                        exact = exact and c == orig.coeffs[mono] * t ** (k - 1)
            lim = fam.limit0()
            exact = exact and lim.is_linear()
            exact = exact and np.array_equal(lim.linear_part(), g.linear_part())
            checked += 1
    ok = exact and checked == 20
    assert report(6, "linearizing family", ok,
                  "%d automorphisms, coefficientwise exact %s" % (checked, exact))


def test_criterion_07_family_to_diagonal_exact():
    alpha = 0.5
    t = 0.3 - 0.8j
    exact = True
    for n in range(2, 7):
        j = np.diag([alpha] * n).astype(complex)
        for i in range(n - 1):
            j[i, i + 1] = 1.0
        at = hp.family_to_diagonal(j).at(t).linear_part()
        exact = exact and all(at[i, i] == alpha for i in range(n))
        exact = exact and all(at[i, i + 1] == t for i in range(n - 1))
        exact = exact and np.count_nonzero(at) == 2 * n - 1
    two = hp.family_to_diagonal([[alpha, 1.0], [0.0, alpha]]).at(t)
    two = two.linear_part()
    exact = exact and np.array_equal(two, np.array([[alpha, t], [0.0, alpha]]))
    assert report(7, "diagonalizing family", exact,
                  "blocks n=2..6, superdiagonal exactly t")


def test_criterion_08_jordan_type_jump():
    alpha = 0.5
    sizes = {}
    for t in (1.0, 1e-3, 0.0):
        fam = hp.family_to_diagonal([[alpha, 1.0], [0.0, alpha]])
        mat = fam.at(t).linear_part()
        dec = mp.jordan_form(mat)
        sizes[t] = sorted(size for _, size in dec.blocks)
    ok = sizes[1.0] == [2] and sizes[1e-3] == [2] and sizes[0.0] == [1, 1]
    assert report(8, "jordan-type jump", ok,
                  "t=1 %s, t=1e-3 %s, t=0 %s"
                  % (sizes[1.0], sizes[1e-3], sizes[0.0]))


def test_criterion_09_contraction_certificates():
    res_half = mp.contraction_test(mp.PolyAutomorphism.diagonal([0.5, 0.5]),
                                   radius=2.0, eps=1e-6)
    res_jordan = mp.contraction_test(
        mp.PolyAutomorphism.from_matrix([[0.7, 1.0], [0.0, 0.7]]))
    res_mixed = mp.contraction_test(mp.PolyAutomorphism.diagonal([1.2, 0.5]))
    ok = (res_half.is_contraction and res_half.iterations_needed == 21
          and res_jordan.is_contraction
          and res_jordan.iterations_needed is not None
          and not res_mixed.is_contraction)
    assert report(9, "contraction certificates", ok,
                  "half: %s its, jordan block: %s its, mixed rejected: %s"
                  % (res_half.iterations_needed, res_jordan.iterations_needed,
                     not res_mixed.is_contraction))


def test_criterion_10_weighted_vaisman():
    entry = hp.vaisman_entry(r=(1.0, 1.5), p=(1.0, 2.0))
    pts = annulus_points(2, 500, 42)
    lck = vf.verify_lck(entry.forms["Omega"], entry.forms["theta"], pts,
                        tolerance=1e-8)
    gen = entry.group.cyclic_generator
    inv_theta = vf.verify_invariance(entry.forms["theta"], gen, pts,
                                     tolerance=1e-8)
    inv_psi = vf.verify_invariance(entry.forms["psi"], gen, pts,
                                   tolerance=1e-8)
    rep = fm.definiteness(entry.forms["Omega"], pts)
    ok = (lck.passed and inv_theta.passed and inv_psi.passed
          and rep.is_definite and rep.sign is not None)
    assert report(10, "weighted vaisman", ok,
                  "lck %.3g, theta inv %.3g, psi inv %.3g, sign %s"
                  % (lck.max_residual, inv_theta.max_residual,
                     inv_psi.max_residual, rep.sign))


def test_criterion_11_equal_weight_consistency():
    pts = annulus_points(2, 200, 42)
    t = hp.implicit_time((1.0, 1.0))
    tv = ex.evaluate_many(t, pts)
    rho = np.abs(pts[:, 0]) ** 2 + np.abs(pts[:, 1]) ** 2
    closed_form_err = float(np.max(np.abs(tv - (-np.log(rho) / 2))))

    v = hp.vaisman_entry(r=(1.0, 1.0), p=(1.0, 2.0))
    e1 = hp.example1_entry()
    lee_v = vf.solve_lee_many(v.forms["Omega"], pts)
    lee_1 = vf.solve_lee_many(e1.forms["Omega"], pts)
    ratios = []
    for a, b in zip(lee_v, lee_1):
        va = np.array(a.theta_coeffs)
        vb = np.array(b.theta_coeffs)
        ratios.append((vb.conj() @ va) / (vb.conj() @ vb))
    variance = float(np.var(np.real_if_close(np.array(ratios))))
    ok = closed_form_err < 1e-10 and variance < 1e-10
    assert report(11, "equal-weight consistency", ok,
                  "log-form error %.3g, proportionality variance %.3g"
                  % (closed_form_err, variance))


def test_criterion_12_negative_control():
    phi, _ = hp.example2_potential()
    group = hp.kodaira_entry(alpha=0.5, t=1.0).group
    rep = vf.verify_potential(phi, group, annulus_points(2, 100, 42))
    dev = rep.details["generators"][0]["deviation"]
    gen = group.cyclic_generator
    at_e1 = ex.evaluate(phi, gen.eval((1.0, 0.0)))
    at_e2 = ex.evaluate(phi, gen.eval((0.0, 1.0)))
    axis_ok = (abs(at_e1 - 0.25) < 1e-12 and abs(at_e2 - 1.25) < 1e-12)
    ok = (not rep.passed) and dev >= 0.9 and axis_ok
    assert report(12, "negative control", ok,
                  "deviation %.4f, axis ratios %.2f vs %.2f"
                  % (dev, at_e1.real, at_e2.real))


def test_criterion_13_cylinder_equivariance():
    rng = np.random.default_rng(7)
    samples = [(float(rng.uniform(-2, 2)),
                rng.normal(size=2) + 1j * rng.normal(size=2))
               for _ in range(100)]
    worst = max(mp.equivariance_check((1.0, 1.5), (1.0, 2.0), k, samples)
                for k in (1, 2, 3))
    ok = worst < 1e-12
    assert report(13, "cylinder equivariance", ok,
                  "worst residual %.3g over k in {1,2,3}" % worst)


def test_criterion_14_deterministic_reports(tmp_path, capsys):
    argv = ["verify", "--entry", "example1", "--seed", "42"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = cli.main(argv + ["--out", str(first)])
    code_b = cli.main(argv + ["--out", str(second)])
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    ok = identical and code_a == code_b == 0 and payload["status"] == "pass"
    assert report(14, "deterministic reports", ok,
                  "byte-identical %s, %d bytes" % (identical, len(first.read_bytes())))
