import math
import struct

import numpy as np
import pytest

from rollingdisk.kinematics import euler_rotation, rotation_vector


def random_angles(rng) -> tuple:
    return tuple(rng.uniform(-math.pi, math.pi, size=3))


def test_zero_angles_is_identity():
    assert np.array_equal(np.asarray(euler_rotation((0.0, 0.0, 0.0))), np.eye(3))


def test_rotation_is_proper_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        R = np.asarray(euler_rotation(random_angles(rng)))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_angles_are_not_wrapped():
    # Shifting any angle by 2*pi must give the same matrix; inputs outside
    # (-pi, pi] are legitimate.
    a = (0.4, -0.9, 2.0)
    b = (0.4 + 2.0 * math.pi, -0.9 - 2.0 * math.pi, 2.0 + 4.0 * math.pi)
    assert np.allclose(np.asarray(euler_rotation(a)), np.asarray(euler_rotation(b)), atol=1e-12)


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

    def test_returns_plain_numbers(self):
        # Three floats for real angles and rates; with both angles complex, as
        # a complex step hands them, three complex numbers.
        w = rotation_vector((0.6, 0.2, 1.1), (0.3, -1.5, 0.8))
        assert type(w) is tuple and [type(x) for x in w] == [float] * 3
        w = rotation_vector((complex(0.6, 1e-30), complex(0.2, 1e-30), 1.1), (0.3, -1.5, 0.8))
        assert type(w) is tuple and [type(x) for x in w] == [complex] * 3

    @pytest.mark.parametrize("k", [0, 1])
    def test_one_complex_angle_makes_every_entry_complex(self, k):
        # One cmath-or-math choice per call: a complex phi or theta alone makes
        # all three entries complex, and their real parts keep the real call's bits.
        angles, rates = (0.6, 0.2, 1.1), (0.3, -1.5, 0.8)
        probe = list(angles)
        probe[k] = complex(angles[k], 1e-30)
        w = rotation_vector(probe, rates)
        assert [type(x) for x in w] == [complex] * 3
        assert struct.pack("3d", *(x.real for x in w)) == struct.pack("3d", *rotation_vector(angles, rates))
