"""Rolling-without-slipping constraints.

The rim point touching the plane must have zero world velocity. Written in
the generalized velocities this is a pair of velocity-level (nonholonomic)
conditions A(q) qdot = 0 with

    A(q) = [[1, 0, -r sin(psi), -r cos(psi) cos(theta),  r sin(psi) sin(theta)],
            [0, 1,  r cos(psi), -r sin(psi) cos(theta), -r cos(psi) sin(theta)]]

The identity block on (dc1, dc2) means the center velocity is slaved to the
angle rates; the conditions are not integrable to position constraints.
Constraint reactions enter the equations of motion as A^T lambda and do no
work on any velocity satisfying A qdot = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .energetics import GenCoords, GenVel, Params


def constraint_matrix(q: GenCoords, p: Params) -> np.ndarray:
    """Velocity constraint matrix A(q), shape (2, 5), identity block on (dc1, dc2)."""
    sp, cp = math.sin(q[4]), math.cos(q[4])
    st, ct = math.sin(q[3]), math.cos(q[3])
    r = p.r
    return np.array(
        [1.0, 0.0, -r * sp, -r * cp * ct, r * sp * st,
         0.0, 1.0, r * cp, -r * sp * ct, -r * cp * st]
    ).reshape(2, 5)


def consistent_velocity(
    q: GenCoords, rates: tuple[float, float, float], p: Params
) -> GenVel:
    """Full generalized velocity with (dc1, dc2) reconstructed from the contact.

    Given free angle rates (dphi, dtheta, dpsi), returns the unique GenVel
    satisfying A(q) qdot = 0.
    """
    dphi, dtheta, dpsi = rates
    r = p.r
    rsp, rcp = r * math.sin(q[4]), r * math.cos(q[4])
    st, ct = math.sin(q[3]), math.cos(q[3])
    dc1 = rsp * dphi + rcp * ct * dtheta - rsp * st * dpsi
    dc2 = -rcp * dphi + rsp * ct * dtheta + rcp * st * dpsi
    return tuple.__new__(GenVel, (dc1, dc2, dphi, dtheta, dpsi))  # skips GenVel's Python __new__


def constraint_residual(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Slip velocity A(q) v of the contact point, shape (2,). Zero when rolling."""
    # numpy's gemv, not a scalar sum (it rounds differently); .dot and a plain v[:] cost less.
    return constraint_matrix(q, p).dot(np.array(v[:]))


def constraint_forces(q: GenCoords, lam, p: Params) -> np.ndarray:
    """Generalized constraint force A(q)^T lambda, shape (5,), for the
    reaction strengths lam = (lambda1, lambda2) of the two contact rows."""
    return constraint_matrix(q, p).T @ np.array(lam)
