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

constraint_residual sums each row of A v in one fixed order, with the last
term fused, fma(a4, v4, (a0 v0 + a2 v2) + (a1 v1 + a3 v3)), so its bits are
fixed by the program and the platform's libm, not by a BLAS kernel.
"""

from __future__ import annotations

import math

from .energetics import Params
from .fma import fma


def _constraint_entries(r: float, st: float, ct: float, sp: float, cp: float) -> tuple:
    """The ten entries of A(q), row by row, from r and sin, cos of theta and psi."""
    return (1.0, 0.0, -r * sp, -r * cp * ct, r * sp * st,
            0.0, 1.0, r * cp, -r * sp * ct, -r * cp * st)


def consistent_velocity(q, rates: tuple[float, float, float], p: Params) -> tuple[float, ...]:
    """Full generalized velocity with (dc1, dc2) reconstructed from the contact.

    Given free angle rates (dphi, dtheta, dpsi), returns the unique
    (dc1, dc2, dphi, dtheta, dpsi) satisfying A(q) qdot = 0.
    """
    dphi, dtheta, dpsi = rates
    r = p.r
    rsp, rcp = r * math.sin(q[4]), r * math.cos(q[4])
    st, ct = math.sin(q[3]), math.cos(q[3])
    dc1 = rsp * dphi + rcp * ct * dtheta - rsp * st * dpsi
    dc2 = -rcp * dphi + rsp * ct * dtheta + rcp * st * dpsi
    return dc1, dc2, dphi, dtheta, dpsi


def constraint_residual(q, v, p: Params) -> tuple[float, float]:
    """Slip velocity A(q) v of the contact point, two floats. Zero when rolling."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = _constraint_entries(
        p.r, math.sin(q[3]), math.cos(q[3]), math.sin(q[4]), math.cos(q[4]))
    v0, v1, v2, v3, v4 = v
    return (fma(a4, v4, (a0 * v0 + a2 * v2) + (a1 * v1 + a3 * v3)),
            fma(a9, v4, (a5 * v0 + a7 * v2) + (a6 * v1 + a8 * v3)))
