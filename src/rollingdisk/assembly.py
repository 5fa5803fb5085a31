"""Assembly and solution of the constrained equations of motion.

Applying the constrained variational principle to the rolling disk gives, per
generalized coordinate, d/dt(dL/dqdot) - dL/dq = (A^T lambda) on that
coordinate, plus the differentiated contact conditions

    d/dt (A qdot) = A(q) qddot + (dA/dq qdot) qdot = 0

which close the system at acceleration level. Collecting the seven unknowns

    x = (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi)

yields a linear system M(q) x = b(q, qdot). Row and unknown ordering is
frozen: rows are (contact-1, contact-2, c1, c2, phi, theta, psi) and the two
multipliers lead the unknowns. Every consumer of assemble_system and
solve_system relies on this layout; do not reorder.

The motion rows come from the split d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot)
into generalized_mass G and generalized_force f, so M depends on configuration
only and every velocity term lives in b. det M = (15/32) m^3 r^6 cos^2(theta),
so the cos(theta) band of the singularity guard is the exact rank test.

oracle_lhs recomputes the Euler-Lagrange left side purely by finite
differences of the scalar lagrangian, sharing no algebra with the closed
form, and exists to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import Multipliers, constraint_matrix
from .energetics import GenCoords, GenVel, Params, lagrangian
from .singularity import SingularConfiguration, checked_cos_theta


@dataclass(frozen=True)
class GenAccel:
    """Generalized accelerations (ddc1, ddc2, ddphi, ddtheta, ddpsi)."""

    ddc1: float
    ddc2: float
    ddphi: float
    ddtheta: float
    ddpsi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.ddc1, self.ddc2, self.ddphi, self.ddtheta, self.ddpsi])

    @classmethod
    def from_array(cls, a) -> "GenAccel":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]), float(a[4]))


@dataclass(frozen=True)
class AugmentedSystem:
    """Linear system M x = b in the frozen (multipliers, accelerations) ordering."""

    M: np.ndarray
    b: np.ndarray


def generalized_mass(q: GenCoords, p: Params) -> np.ndarray:
    """Coefficient G(q) of qddot in the Euler-Lagrange left side, shape (5, 5).

    Rows and columns ordered (c1, c2, phi, theta, psi); configuration only.
    """
    m, r = p.m, p.r
    st = math.sin(q.theta)
    mr2 = m * r * r
    return np.array(
        [
            [m, 0.0, 0.0, 0.0, 0.0],
            [0.0, m, 0.0, 0.0, 0.0],
            [0.0, 0.0, mr2 / 2.0, 0.0, -mr2 * st / 2.0],
            [0.0, 0.0, 0.0, mr2 * (st * st + 0.25), 0.0],
            [0.0, 0.0, -mr2 * st / 2.0, 0.0, mr2 * (st * st + 1.0) / 4.0],
        ]
    )


def generalized_force(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Velocity and gravity part f(q, qdot) of the left side, shape (5,).

    The Euler-Lagrange left side is G(q) qddot - f(q, qdot), so f collects
    the gravity torque and the terms quadratic in the rates.
    """
    m, g, r = p.m, p.g, p.r
    st, ct = math.sin(q.theta), math.cos(q.theta)
    s2t = math.sin(2.0 * q.theta)
    dphi, dtheta, dpsi = v.dphi, v.dtheta, v.dpsi
    mr2 = m * r * r
    stand_rates = 4.0 * dtheta * dtheta * s2t + 4.0 * dphi * dpsi * ct - dpsi * dpsi * s2t
    return np.array(
        [
            0.0,
            0.0,
            mr2 * dtheta * dpsi * ct / 2.0,
            m * g * r * st - mr2 * stand_rates / 8.0,
            mr2 * (dphi - dpsi * st) * dtheta * ct / 2.0,
        ]
    )


def euler_lagrange_lhs(q: GenCoords, v: GenVel, a: GenAccel, p: Params) -> np.ndarray:
    """Closed-form d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot).

    Parameters
    ----------
    q, v, a : GenCoords, GenVel, GenAccel
        Configuration, generalized velocity, generalized acceleration. The
        velocity need not satisfy the rolling constraint; the expression is
        algebraic in (q, v, a).
    p : Params

    Returns
    -------
    ndarray, shape (5,)
        Rows ordered (c1, c2, phi, theta, psi). Equals the generalized
        constraint force A^T lambda on solutions of the rolling problem.
    """
    return generalized_mass(q, p) @ a.as_array() - generalized_force(q, v, p)


def _central_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    """Gradient of the scalar f at x by central differences of step h."""
    grad = np.empty(5)
    work = x.copy()
    for i in range(5):
        xi = x[i]
        work[i] = xi + h
        above = f(work)
        work[i] = xi - h
        below = f(work)
        work[i] = xi
        grad[i] = (above - below) / (2.0 * h)
    return grad


def _velocity_gradient(qa: np.ndarray, va: np.ndarray, p: Params, h: float) -> np.ndarray:
    """dL/dqdot by central differences. L is quadratic in the velocities, so
    the difference is truncation-free and h only controls roundoff."""
    q = GenCoords.from_array(qa)
    return _central_gradient(lambda w: lagrangian(q, GenVel.from_array(w), p), va, h)


def _coordinate_gradient(qa: np.ndarray, va: np.ndarray, p: Params, h: float) -> np.ndarray:
    """dL/dq by central differences."""
    v = GenVel.from_array(va)
    return _central_gradient(lambda w: lagrangian(GenCoords.from_array(w), v, p), qa, h)


def oracle_lhs(
    q: GenCoords,
    v: GenVel,
    a: GenAccel,
    p: Params,
    h: float = 1e-6,
    h_t: float = 1e-5,
    h_v: float = 1.0,
) -> np.ndarray:
    """Euler-Lagrange left side from finite differences of the Lagrangian only.

    The time derivative is differenced along the synthetic path
    q(s) = q + s*v, qdot(s) = v + s*a, so d/dt(dL/dqdot) is evaluated with no
    knowledge of the closed-form expressions.

    Parameters
    ----------
    h : float
        Step for the position gradient dL/dq.
    h_t : float
        Step of the outer time difference along the synthetic path.
    h_v : float
        Step for the nested velocity gradient. The Lagrangian is exactly
        quadratic in the velocities, so this central difference is exact for
        any step; the step only scales the roundoff, which the outer division
        by h_t then amplifies. A unit step keeps the oracle's error near 1e-8,
        against 1e-5 for a step of 1e-3.

    Returns
    -------
    ndarray, shape (5,)
    """
    qa, va, aa = q.as_array(), v.as_array(), a.as_array()
    grad_ahead = _velocity_gradient(qa + h_t * va, va + h_t * aa, p, h_v)
    grad_behind = _velocity_gradient(qa - h_t * va, va - h_t * aa, p, h_v)
    momentum_rate = (grad_ahead - grad_behind) / (2.0 * h_t)
    return momentum_rate - _coordinate_gradient(qa, va, p, h)


def constraint_accel_rows(
    q: GenCoords, v: GenVel, p: Params
) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration-level contact rows: A(q) and the drift term.

    Differentiating A(q) qdot = 0 in time gives A(q) qddot + resid = 0 with
    resid = (dA/dq qdot) qdot. Returns (A, resid), shapes (2, 5) and (2,).
    """
    sp, cp = math.sin(q.psi), math.cos(q.psi)
    st, ct = math.sin(q.theta), math.cos(q.theta)
    r = p.r
    dphi, dtheta, dpsi = v.dphi, v.dtheta, v.dpsi
    sq_rates = dtheta * dtheta + dpsi * dpsi
    resid = np.array(
        [
            r * (-cp * dphi * dpsi + 2.0 * sp * ct * dtheta * dpsi + cp * st * sq_rates),
            r * (-sp * dphi * dpsi - 2.0 * cp * ct * dtheta * dpsi + sp * st * sq_rates),
        ]
    )
    return constraint_matrix(q, p), resid


def _augmented(
    A: np.ndarray, resid: np.ndarray, mass: np.ndarray, force: np.ndarray
) -> AugmentedSystem:
    """Lay out the contact rows A qddot = -resid and the motion rows
    mass qddot - A^T lambda = force in the frozen ordering."""
    M = np.zeros((7, 7))
    M[0:2, 2:7] = A
    M[2:7, 0:2] = -A.T
    M[2:7, 2:7] = mass
    return AugmentedSystem(M, np.concatenate([-resid, force]))


def assemble_system(q: GenCoords, v: GenVel, p: Params) -> AugmentedSystem:
    """Closed-form augmented system from generalized_mass and generalized_force."""
    A, resid = constraint_accel_rows(q, v, p)
    return _augmented(A, resid, generalized_mass(q, p), generalized_force(q, v, p))


def oracle_system(q: GenCoords, v: GenVel, p: Params) -> AugmentedSystem:
    """Augmented system rebuilt from oracle_lhs and constraint_accel_rows.

    The acceleration dependence of the finite-difference left side is probed
    column by column (it is linear in qddot), so this shares no closed-form
    dynamics algebra with assemble_system. Used for cross-validation.
    """
    A, resid = constraint_accel_rows(q, v, p)
    base = oracle_lhs(q, v, GenAccel(0.0, 0.0, 0.0, 0.0, 0.0), p)
    columns = np.empty((5, 5))
    for j, probe in enumerate(np.eye(5)):
        columns[:, j] = oracle_lhs(q, v, GenAccel.from_array(probe), p) - base
    return _augmented(A, resid, columns, -base)


def _solve_checked(system: AugmentedSystem, theta: float) -> tuple[Multipliers, GenAccel]:
    """Dense solve, unpacked. Callers check the cos(theta) band first; an exactly
    singular M (the oracle's can be one next to the band) still raises."""
    try:
        x = np.linalg.solve(system.M, system.b)
    except np.linalg.LinAlgError as err:
        raise SingularConfiguration(theta) from err
    return Multipliers(float(x[0]), float(x[1])), GenAccel.from_array(x[2:7])


def solve_system(q: GenCoords, v: GenVel, p: Params) -> tuple[Multipliers, GenAccel]:
    """Multipliers and generalized accelerations from the augmented system.

    Parameters
    ----------
    q, v : GenCoords, GenVel
    p : Params

    Returns
    -------
    (Multipliers, GenAccel)
        Contact reactions and accelerations in the frozen ordering.

    Raises
    ------
    SingularConfiguration
        When the disk is numerically horizontal, the only place M is singular.
    """
    checked_cos_theta(q.theta)
    return _solve_checked(assemble_system(q, v, p), q.theta)


def solve_oracle_system(q: GenCoords, v: GenVel, p: Params) -> tuple[Multipliers, GenAccel]:
    """Like solve_system but on the finite-difference-assembled system."""
    checked_cos_theta(q.theta)
    return _solve_checked(oracle_system(q, v, p), q.theta)
