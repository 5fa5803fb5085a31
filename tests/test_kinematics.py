import math

import numpy as np

from rollingdisk.kinematics import euler_rotation, rotation_vector


def random_angles(rng) -> tuple:
    return tuple(rng.uniform(-math.pi, math.pi, size=3))


def test_zero_angles_is_identity():
    assert np.array_equal(euler_rotation((0.0, 0.0, 0.0)), np.eye(3))


def test_rotation_is_proper_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        R = euler_rotation(random_angles(rng))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_angles_are_not_wrapped():
    # Shifting any angle by 2*pi must give the same matrix; inputs outside
    # (-pi, pi] are legitimate.
    a = (0.4, -0.9, 2.0)
    b = (0.4 + 2.0 * math.pi, -0.9 - 2.0 * math.pi, 2.0 + 4.0 * math.pi)
    assert np.allclose(euler_rotation(a), euler_rotation(b), atol=1e-12)


class TestRotationVector:
    def test_pure_spin(self):
        w = rotation_vector((0.3, 0.0, 0.0), (2.0, 0.0, 0.0))
        assert np.allclose(w, [2.0, 0.0, 0.0], atol=1e-15)

    def test_pure_stand_rate(self):
        phi = 0.6
        w = rotation_vector((phi, 0.2, 0.0), (0.0, 1.5, 0.0))
        expected = [0.0, 1.5 * math.cos(phi), -1.5 * math.sin(phi)]
        assert np.allclose(w, expected, atol=1e-15)

    def test_pure_heading_rate(self):
        phi, theta = 0.6, 0.2
        w = rotation_vector((phi, theta, 1.1), (0.0, 0.0, 0.8))
        expected = [
            -0.8 * math.sin(theta),
            0.8 * math.sin(phi) * math.cos(theta),
            0.8 * math.cos(theta) * math.cos(phi),
        ]
        assert np.allclose(w, expected, atol=1e-15)

