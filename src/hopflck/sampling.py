"""Deterministic seeded point sampling used by every numeric check.

All verification routines draw their sample points from the annulus
0.5 <= |z| <= 2.0 in C^n (Euclidean norm of the whole point), which keeps
every catalog denominator bounded away from zero.  Sampling is a pure
function of (dimension, count, seed), so reports are reproducible bit for
bit.
"""

from __future__ import annotations

import numpy as np

ANNULUS_INNER = 0.5
ANNULUS_OUTER = 2.0

# Rows per slice of the norm computation, whose temporaries are one slice's.
_SLICE = 4096
# Widest row that numpy's add.reduce sums in sequence; from 8 entries on it
# sums pairwise.
_SEQUENTIAL = 7


def _squared_norms(x):
    """np.add.reduce((x.conj() * x).real, axis=1), with its bits.

    A row of at most _SEQUENTIAL entries is summed in sequence, so adding
    whole columns one after another gives the same sums without the
    strided reduction.
    """
    if not 0 < x.shape[1] <= _SEQUENTIAL:
        return np.add.reduce((x.conj() * x).real, axis=1)
    total = None
    for column in x.T:
        part = (column.conj() * column).real
        total = part if total is None else np.add(total, part, out=total)
    return total


def _gaussian_points(rng, dim: int, count: int):
    """(count, dim) complex standard normals, real parts drawn first, and
    each row's Euclidean norm (1.0 where it is 0).

    The points take one complex array and one float buffer, which holds
    the draws and then the norms.  The norms are np.linalg.norm's own
    expression, over slices of rows (see _squared_norms).
    """
    raw = np.empty((count, dim), dtype=complex)
    buffer = np.empty(count * max(dim, 1))
    draws = buffer[:count * dim].reshape(count, dim)
    raw.real = rng.standard_normal(out=draws)
    raw.imag = rng.standard_normal(out=draws)
    norms = buffer[:count]
    for lo in range(0, count, _SLICE):
        x = raw[lo:lo + _SLICE]
        np.sqrt(_squared_norms(x), out=norms[lo:lo + _SLICE])
    norms[norms == 0] = 1.0
    return raw, norms


def _scaled(raw, factor):
    """raw * factor[:, None], with the bits of that complex product, in
    place: each part of each row times its real factor."""
    parts = raw.view(np.float64)  # (count, 2 dim)
    parts *= factor[:, None]
    return raw


def annulus_points(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) complex array with ANNULUS_INNER <= |z| <= ANNULUS_OUTER."""
    rng = np.random.default_rng(seed)
    raw, norms = _gaussian_points(rng, dim, count)
    radii = rng.uniform(ANNULUS_INNER, ANNULUS_OUTER, size=count)
    return _scaled(raw, np.divide(radii, norms, out=radii))


def sphere_points(dim: int, count: int, radius: float, seed: int) -> np.ndarray:
    """(count, dim) complex array with |z| = radius exactly (up to rounding)."""
    rng = np.random.default_rng(seed)
    raw, norms = _gaussian_points(rng, dim, count)
    return _scaled(raw, np.divide(radius, norms, out=norms))
