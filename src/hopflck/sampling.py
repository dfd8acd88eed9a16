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


def annulus_points(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) complex array with ANNULUS_INNER <= |z| <= ANNULUS_OUTER."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    radii = rng.uniform(ANNULUS_INNER, ANNULUS_OUTER, size=count)
    return raw * (radii / norms)[:, None]


def sphere_points(dim: int, count: int, radius: float, seed: int) -> np.ndarray:
    """(count, dim) complex array with |z| = radius exactly (up to rounding)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    return raw * (radius / norms)[:, None]
