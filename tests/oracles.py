"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented from first principles (finite
differences, closed-form decay counts, direct numeric conjugation) so that
the symbolic machinery is checked against arithmetic it does not share.
"""

import itertools
import math

import numpy as np


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
