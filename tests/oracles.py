"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented from first principles (finite
differences, closed-form decay counts, direct numeric conjugation) so that
the symbolic machinery is checked against arithmetic it does not share.
The catalog's references are its forms written by hand, coefficient by
coefficient, against which the forms the catalog derives from potentials
are proven.
"""

import itertools
import math

import numpy as np

from hopflck import expr as ex
from hopflck import forms as fm
from hopflck import maps as mp
from hopflck.sampling import sphere_points


def fd_wirtinger(func, point, index, conjugate=False, h=1e-5):
    """Central finite-difference Wirtinger derivative of a scalar function.

    d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2 applied to
    the realified coordinate ``index`` (0-based) of ``point``.
    """
    point = [complex(c) for c in point]

    def shifted(delta):
        q = list(point)
        q[index] = q[index] + delta
        return func(q)

    dx = (shifted(h) - shifted(-h)) / (2 * h)
    dy = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
    if conjugate:
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)


def geometric_contraction_count(scale, radius, eps):
    """Smallest k with radius * scale^k < eps, for a uniform linear decay."""
    k = 0
    norm = float(radius)
    while norm >= eps:
        norm *= scale
        k += 1
    return k


def poly_eval_naive(table, point):
    """Evaluate a monomial table {exponents: coeff} without the library."""
    total = 0j
    for mono, c in table.items():
        term = complex(c)
        for z, e in zip(point, mono):
            term *= complex(z) ** e
        total += term
    return total


def conjugated_map_numeric(g_eval, weights, t, point):
    """T^-1(g(T(point))) for the diagonal scaling with the given weights."""
    tz = [t ** w * complex(c) for w, c in zip(weights, point)]
    gz = g_eval(tz)
    return [t ** (-w) * complex(c) for w, c in zip(weights, gz)]


def implicit_time_reference(weights, point, tol=1e-14):
    """Solve sum_i |w_i|^2 e^{2 r_i t} = 1 by bisection, independently."""
    s = [abs(complex(c)) ** 2 for c in point]

    def rel(t):
        return sum(si * math.exp(2 * r * t) for si, r in zip(s, weights)) - 1.0

    lo, hi = -50.0, 50.0
    assert rel(lo) < 0 < rel(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rel(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_annulus(dim, count, seed, inner=0.5, outer=2.0):
    """Reference annulus sampler (matches the library's distribution law)."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.uniform(inner, outer, size=(count, 1))
    return raw * radii


def lee_least_squares(w, v, nn):
    """theta (m, nn) with theta ^ Omega = d Omega in the least-squares sense
    at each point, and the largest entry of |theta ^ Omega - d Omega| (m,),
    by one batched QR solve of each point's design matrix.

    ``w`` holds Omega's W_ij for i < j and ``v`` d Omega's V_abc for
    a < b < c as rows in lexicographic order; the design matrix has one row
    per triple, (theta ^ Omega)_abc = theta_a W_bc - theta_b W_ac
    + theta_c W_ab, and must have full column rank.
    """
    pair = {ij: k for k, ij in enumerate(itertools.combinations(range(nn), 2))}
    triples = list(itertools.combinations(range(nn), 3))
    design = np.zeros((w.shape[1], len(triples), nn), dtype=complex)
    for row, (a, b, c) in enumerate(triples):
        design[:, row, a] = w[pair[b, c]]
        design[:, row, b] = -w[pair[a, c]]
        design[:, row, c] = w[pair[a, b]]
    target = v.T[:, :, None]
    q, r = np.linalg.qr(design)
    coeffs = np.linalg.solve(r, np.conj(q.swapaxes(1, 2)) @ target)
    residual = np.abs(design @ coeffs - target).max(axis=(1, 2))
    return coeffs[..., 0], residual


def gaussian_zero_mod(p, root):
    """x + iy or x - iy, with x^2 + y^2 = p (Cornacchia), whichever is 0
    modulo the prime p = 1 mod 4 where i is ``root``, a square root of -1
    modulo p; |x + iy| is about sqrt(p), and exact as a float for p < 2^106.
    """
    a, b = p, root
    while b * b > p:
        a, b = b, a % b
    x = b
    y = math.isqrt(p - x * x)
    assert x * x + y * y == p
    return complex(x, y if (x + root * y) % p == 0 else -y)


def example1_reference_forms():
    """example1's Omega, theta, psi and fubini_study as coefficient tables:
    Omega = -i (dz1 ^ dzbar1 + dz2 ^ dzbar2) / rho, theta = -d rho / rho,
    psi = i (z dzbar - zbar dz) / rho and fubini_study = d psi, with
    rho = |z1|^2 + |z2|^2."""
    z1, z2, zb1, zb2 = ex.z(1), ex.z(2), ex.zbar(1), ex.zbar(2)
    rho = ex.add(ex.mul(z1, zb1), ex.mul(z2, zb2))
    rho2 = ex.mul(rho, rho)
    # dz_i and dzbar_i carry zbar_i and z_i.
    coords = (zb1, zb2, z1, z2)
    return {
        "Omega": fm.form_from_terms(2, 2, {(0, 2): ex.div(-1j, rho),
                                           (1, 3): ex.div(-1j, rho)}),
        "theta": fm.form_from_terms(2, 1, {
            (k,): ex.div(ex.mul(-1.0, c), rho) for k, c in enumerate(coords)}),
        "psi": fm.form_from_terms(2, 1, {
            (k,): ex.div(ex.mul(-1j if k < 2 else 1j, c), rho)
            for k, c in enumerate(coords)}),
        "fubini_study": fm.form_from_terms(2, 2, {
            (0, 2): ex.div(ex.mul(2j, ex.mul(z2, zb2)), rho2),
            (1, 3): ex.div(ex.mul(2j, ex.mul(z1, zb1)), rho2),
            (0, 3): ex.div(ex.mul(-2j, ex.mul(zb1, z2)), rho2),
            (1, 2): ex.div(ex.mul(-2j, ex.mul(zb2, z1)), rho2)}),
    }


def vaisman_reference_forms(r1, r2):
    """vaisman's theta = dt, psi the weighted contact form transported off
    the unit sphere along w = e^{-r t} z,

        i (sum_j r_j |w_j|^2 e^{2 r_j t})^-1
          sum_i e^{2 r_i t} (w_i dwbar_i - wbar_i dw_i),

    and Omega = d psi - theta ^ psi; the weights numbers or params."""
    t = ex.implicit_t((r1, r2))
    e = [ex.exp(ex.mul(ex.mul(2.0, r), t)) for r in (r1, r2)]
    den = ex.add(ex.mul(r1, ex.mul(ex.mul(ex.z(1), ex.zbar(1)), e[0])),
                 ex.mul(r2, ex.mul(ex.mul(ex.z(2), ex.zbar(2)), e[1])))
    coords = (ex.zbar(1), ex.zbar(2), ex.z(1), ex.z(2))
    psi = fm.form_from_terms(2, 1, {
        (k,): ex.div(ex.mul(-1j if k < 2 else 1j, ex.mul(c, e[k % 2])), den)
        for k, c in enumerate(coords)})
    theta = fm.exterior_d(fm.scalar_form(2, t))
    return {"Omega": fm.exterior_d(psi) - fm.wedge(theta, psi),
            "theta": theta, "psi": psi}


def stepped_contraction(g, radius=1.0, eps=1e-6):
    """The contraction test as it stepped every orbit: one matrix product
    (a linear map) or one evaluation and one norm per step, from the same
    start points.  The ContractionResult, or the IterationDiverged message.
    """
    n = g.dim
    count = 2 * n * n + 64
    rho = mp.spectral_radius(g.linear_part())
    if rho >= 1.0:
        return mp.ContractionResult(False, None, rho, count, radius, eps,
                                    reason="spectral radius %.17g >= 1" % rho)
    step = g.eval_many
    if g.is_linear():
        a_t = g.linear_part().T
        step = lambda z: z @ a_t  # noqa: E731
    current = sphere_points(n, count, radius, mp.CONTRACTION_SEED)
    for k in range(mp.CONTRACTION_MAX_ITER + 1):
        largest = float(np.linalg.norm(current, axis=1).max())
        if largest < eps:
            return mp.ContractionResult(True, k, rho, count, radius, eps)
        if largest > mp.ORBIT_DIVERGENCE * radius:
            return ("orbit norm %.3g exceeded %.0g after %d steps"
                    % (largest, mp.ORBIT_DIVERGENCE * radius, k))
        current = step(current)
    return mp.ContractionResult(
        False, None, rho, count, radius, eps,
        reason="norms still >= eps after %d iterations"
        % mp.CONTRACTION_MAX_ITER)
