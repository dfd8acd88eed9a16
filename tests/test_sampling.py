"""Tests for the seeded point samplers shared by library and CLI."""

import numpy as np
import pytest

from hopflck.sampling import annulus_points, sphere_points


class TestAnnulusPoints:
    def test_shape_and_dtype(self):
        pts = annulus_points(3, 100, seed=1)
        assert pts.shape == (100, 3) and pts.dtype == complex

    def test_radii_within_bounds(self):
        pts = annulus_points(2, 500, seed=2)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.min() >= 0.5 and norms.max() <= 2.0

    def test_deterministic_per_seed(self):
        a = annulus_points(2, 50, seed=4)
        b = annulus_points(2, 50, seed=4)
        c = annulus_points(2, 50, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpherePoints:
    def test_exact_radius(self):
        pts = sphere_points(2, 300, radius=2.0, seed=6)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 2.0)) < 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(sphere_points(3, 40, 1.0, seed=7),
                              sphere_points(3, 40, 1.0, seed=7))


def _annulus_reference(dim, count, seed):
    """The formula annulus_points replaced, with its (count, dim) temporaries."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    radii = rng.uniform(0.5, 2.0, size=count)
    return raw * (radii / norms)[:, None]


def _sphere_reference(dim, count, radius, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    return raw * (radius / norms)[:, None]


class TestSameBitsAsWholeArrayFormula:
    """The samplers build the points in place, taking norms over slices of
    rows: every bit must be that of the whole-array formula."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("count", [0, 1, 4095, 4097, 9000])
    def test_annulus(self, dim, count):
        for seed in (0, 42, 1234):
            got = annulus_points(dim, count, seed)
            want = _annulus_reference(dim, count, seed)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    @pytest.mark.parametrize("count", [1, 4096, 4097])
    def test_sphere(self, dim, count):
        for seed, radius in ((0, 1.0), (7, 2.5), (99, 1e-3)):
            got = sphere_points(dim, count, radius, seed)
            want = _sphere_reference(dim, count, radius, seed)
            assert got.tobytes() == want.tobytes()

    def test_fifty_thousand_points(self):
        assert (annulus_points(2, 50_000, 1).tobytes()
                == _annulus_reference(2, 50_000, 1).tobytes())
