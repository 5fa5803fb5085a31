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
    sp, cp = math.sin(q.psi), math.cos(q.psi)
    st, ct = math.sin(q.theta), math.cos(q.theta)
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
    sp, cp = math.sin(q.psi), math.cos(q.psi)
    st, ct = math.sin(q.theta), math.cos(q.theta)
    r = p.r
    dc1 = r * sp * dphi + r * cp * ct * dtheta - r * sp * st * dpsi
    dc2 = -r * cp * dphi + r * sp * ct * dtheta + r * cp * st * dpsi
    return GenVel(dc1, dc2, dphi, dtheta, dpsi)


def constraint_residual(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Slip velocity A(q) v of the contact point, shape (2,). Zero when rolling."""
    # Keep numpy's product: scalar sums round differently, and residuals sit at rounding.
    return constraint_matrix(q, p) @ np.array(v)


def constraint_forces(q: GenCoords, lam, p: Params) -> np.ndarray:
    """Generalized constraint force A(q)^T lambda, shape (5,), for the
    reaction strengths lam = (lambda1, lambda2) of the two contact rows."""
    return constraint_matrix(q, p).T @ np.array(lam)
