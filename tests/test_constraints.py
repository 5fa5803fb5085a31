import math

import numpy as np

from rollingdisk.constraints import (
    _constraint_entries,
    consistent_velocity,
    constraint_residual,
)
from rollingdisk.energetics import Params

P = Params()


def constraint_matrix(q, p: Params) -> np.ndarray:
    """A(q), shape (2, 5), from the ten entries the program writes it with."""
    entries = _constraint_entries(p.r, math.sin(q[3]), math.cos(q[3]), math.sin(q[4]), math.cos(q[4]))
    return np.reshape(entries, (2, 5))


def random_coords(rng) -> tuple:
    return (
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1.2, 1.2),
        rng.uniform(-math.pi, math.pi),
    )


def test_matrix_rows_heading_zero():
    A = constraint_matrix((0, 0, 0.3, 0.0, 0.0), P)
    assert np.allclose(A[0], [1, 0, 0, -1, 0], atol=1e-15)
    assert np.allclose(A[1], [0, 1, 1, 0, 0], atol=1e-15)


def test_matrix_rows_heading_quarter_turn():
    A = constraint_matrix((0, 0, 0.0, 0.0, math.pi / 2), P)
    assert np.allclose(A[0], [1, 0, -1, 0, 0], atol=1e-15)
    assert np.allclose(A[1], [0, 1, 0, -1, 0], atol=1e-15)


def test_identity_block_on_center_rates():
    rng = np.random.default_rng(31)
    for _ in range(100):
        A = constraint_matrix(random_coords(rng), P)
        assert np.array_equal(A[:, 0:2], np.eye(2))


def test_consistent_velocity_straight_roll():
    # Upright wheel, heading zero, spinning: center moves along -c2.
    v = consistent_velocity((0, 0, 0, 0.0, 0.0), (2.5, 0.0, 0.0), P)
    assert v[0] == 0.0
    assert v[1] == -2.5
    assert v[2:5] == (2.5, 0.0, 0.0)


def test_consistent_velocity_annihilated_by_matrix():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(1000):
        q = random_coords(rng)
        v = consistent_velocity(q, tuple(rng.uniform(-3.0, 3.0, 3)), P)
        worst = max(worst, float(np.max(np.abs(constraint_residual(q, v, P)))))
    assert worst < 1e-14, f"slip of reconstructed velocity: {worst:.3e}"


def test_residual_sees_slip():
    q = (0, 0, 0, 0.0, 0.0)
    sliding = (1.0, 0.0, 0.0, 0.0, 0.0)  # pure center translation, no rotation
    slip = constraint_residual(q, sliding, P)
    assert type(slip) is tuple and [type(x) for x in slip] == [float, float]
    assert np.allclose(slip, [1.0, 0.0], atol=1e-15)
