"""Tests for the seeded point samplers shared by library and CLI."""

import numpy as np

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
