"""Assembly and solution of the constrained equations of motion.

Applying the constrained variational principle to the rolling disk gives, per
generalized coordinate, d/dt(dL/dqdot) - dL/dq = (A^T lambda) on that
coordinate, plus the differentiated contact conditions

    d/dt (A qdot) = A(q) qddot + (dA/dq qdot) qdot = 0

which close the system at acceleration level. Collecting the seven unknowns

    x = (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi)

yields a linear system M(q) x = b(q, qdot). Row and unknown ordering is
frozen: rows are (contact-1, contact-2, c1, c2, phi, theta, psi) and the two
multipliers lead the unknowns. One function, _augmented, lays out (M, b) from
flat sequences of entries for both assemble_system and oracle_system;
solve_system and solve_oracle_system return x itself, a length-7 array in
exactly this order, as does dynamics.closed_form_solution. Do not reorder.

The motion rows come from the split d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot)
into generalized_mass G and generalized_force f, so M depends on configuration
only and every velocity term lives in b. Each entry is written once, in a
helper returning plain floats; assemble_system builds M and b from those in
one numpy call each. det M = (15/32) m^3 r^6 cos^2(theta), so the cos(theta)
band of the singularity guard is the exact rank test.

solve_system hands (M, b) straight to LAPACK's gesv through the gufunc that
np.linalg.solve itself runs, _umath_linalg.solve1, and so gets the same bits
without the wrapper's argument conversion and errstate. The direct call is
made only where M is known to be regular in floating point: finite theta and
psi, and m and r within [1e-50, 1e50]. M depends on nothing else, its LU
pivots scale like m r^2 cos^2(theta) / 4, and outside the band that stays
far above the underflow threshold, so LAPACK meets no zero pivot, raises no
floating-point flag and numpy emits no warning. Every other system, and any
non-finite result, goes through np.linalg.solve with its checks.

oracle_lhs recomputes the Euler-Lagrange left side purely by finite
differences of the scalar lagrangian, sharing no algebra with the closed
form, and exists to cross-check it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .constraints import _constraint_entries, constraint_matrix
from .energetics import GenCoords, GenVel, Params, lagrangian
from .singularity import SINGULAR_COS_THETA, SingularConfiguration, checked_cos_theta

# The LAPACK gesv gufunc behind np.linalg.solve for a (n, n) matrix and a (n,) vector.
_gesv = _umath_linalg.solve1
# Range of m and r in which M, outside the cos(theta) band, has its smallest
# LU pivot above 2e-163 and its largest entry below 2e150.
_DIRECT_SCALE_MIN, _DIRECT_SCALE_MAX = 1e-50, 1e50


def _mass_entries(p: Params, st: float) -> tuple:
    """The 25 entries of G(q), row by row, from sin(theta)."""
    m, mr2 = p.m, p.m * p.r * p.r
    coupling = -mr2 * st / 2.0
    return (m, 0.0, 0.0, 0.0, 0.0,
            0.0, m, 0.0, 0.0, 0.0,
            0.0, 0.0, mr2 / 2.0, 0.0, coupling,
            0.0, 0.0, 0.0, mr2 * (st * st + 0.25), 0.0,
            0.0, 0.0, coupling, 0.0, mr2 * (st * st + 1.0) / 4.0)


def _force_entries(p: Params, st: float, ct: float, s2t: float, v) -> tuple:
    """The 5 entries of f(q, qdot) from sin, cos and sin(2 theta) and the rates in v."""
    m, g, r = p.m, p.g, p.r
    dphi, dtheta, dpsi = v[2], v[3], v[4]
    mr2 = m * r * r
    stand_rates = 4.0 * dtheta * dtheta * s2t + 4.0 * dphi * dpsi * ct - dpsi * dpsi * s2t
    return (0.0, 0.0, mr2 * dtheta * dpsi * ct / 2.0, m * g * r * st - mr2 * stand_rates / 8.0,
            mr2 * (dphi - dpsi * st) * dtheta * ct / 2.0)


def _drift_entries(r: float, st: float, ct: float, sp: float, cp: float, v) -> tuple:
    """The 2 entries of the contact drift (dA/dq qdot) qdot."""
    dphi, dtheta, dpsi = v[2], v[3], v[4]
    sq_rates = dtheta * dtheta + dpsi * dpsi
    return (r * (-cp * dphi * dpsi + 2.0 * sp * ct * dtheta * dpsi + cp * st * sq_rates),
            r * (-sp * dphi * dpsi - 2.0 * cp * ct * dtheta * dpsi + sp * st * sq_rates))


def generalized_mass(q: GenCoords, p: Params) -> np.ndarray:
    """Coefficient G(q) of qddot in the Euler-Lagrange left side, shape (5, 5).

    Rows and columns ordered (c1, c2, phi, theta, psi); configuration only.
    """
    return np.array(_mass_entries(p, math.sin(q[3]))).reshape(5, 5)


def generalized_force(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Velocity and gravity part f(q, qdot) of the left side, shape (5,).

    The Euler-Lagrange left side is G(q) qddot - f(q, qdot), so f collects
    the gravity torque and the terms quadratic in the rates.
    """
    theta = q[3]
    return np.array(_force_entries(p, math.sin(theta), math.cos(theta), math.sin(2.0 * theta), v))


def euler_lagrange_lhs(q: GenCoords, v: GenVel, a, p: Params) -> np.ndarray:
    """Closed-form d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot).

    Parameters
    ----------
    q, v : GenCoords, GenVel
        Configuration and generalized velocity. The velocity need not satisfy
        the rolling constraint; the expression is algebraic in (q, v, a).
    a : sequence of 5 floats
        Generalized acceleration (ddc1, ddc2, ddphi, ddtheta, ddpsi).
    p : Params

    Returns
    -------
    ndarray, shape (5,)
        Rows ordered (c1, c2, phi, theta, psi). Equals the generalized
        constraint force A^T lambda on solutions of the rolling problem.
    """
    return generalized_mass(q, p) @ np.array(a) - generalized_force(q, v, p)


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
    q = GenCoords(*qa.tolist())
    return _central_gradient(lambda w: lagrangian(q, GenVel(*w.tolist()), p), va, h)


def _coordinate_gradient(qa: np.ndarray, va: np.ndarray, p: Params, h: float) -> np.ndarray:
    """dL/dq by central differences."""
    v = GenVel(*va.tolist())
    return _central_gradient(lambda w: lagrangian(GenCoords(*w.tolist()), v, p), qa, h)


def oracle_lhs(
    q: GenCoords,
    v: GenVel,
    a,
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
    qa, va, aa = (np.array(x, dtype=float) for x in (q, v, a))
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
    theta, psi = q[3], q[4]
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    return constraint_matrix(q, p), np.array(_drift_entries(p.r, st, ct, sp, cp, v))


def _augmented(a, drift, mass, force) -> tuple[np.ndarray, np.ndarray]:
    """Lay out the contact rows A qddot = -drift and the motion rows
    mass qddot - A^T lambda = force in the frozen ordering; returns (M, b).
    a (2 x 5) and mass (5 x 5) come flat, row by row."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    M = np.array((
        0.0, 0.0, a0, a1, a2, a3, a4,
        0.0, 0.0, a5, a6, a7, a8, a9,
        -a0, -a5, *mass[0:5],
        -a1, -a6, *mass[5:10],
        -a2, -a7, *mass[10:15],
        -a3, -a8, *mass[15:20],
        -a4, -a9, *mass[20:25],
    ))
    return M.reshape(7, 7), np.array((-drift[0], -drift[1], *force))


def assemble_system(q: GenCoords, v: GenVel, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form augmented system (M, b): the entries of generalized_mass,
    generalized_force and constraint_accel_rows, with each sine and cosine
    taken once."""
    theta, psi = q[3], q[4]
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    return _augmented(
        _constraint_entries(p.r, st, ct, sp, cp),
        _drift_entries(p.r, st, ct, sp, cp, v),
        _mass_entries(p, st),
        _force_entries(p, st, ct, math.sin(2.0 * theta), v),
    )


def oracle_system(q: GenCoords, v: GenVel, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Augmented system (M, b) rebuilt from oracle_lhs and constraint_accel_rows.

    The acceleration dependence of the finite-difference left side is probed
    column by column (it is linear in qddot), so this shares no closed-form
    dynamics algebra with assemble_system. Used for cross-validation.
    """
    A, resid = constraint_accel_rows(q, v, p)
    base = oracle_lhs(q, v, np.zeros(5), p)
    columns = np.empty((5, 5))
    for j, probe in enumerate(np.eye(5)):
        columns[:, j] = oracle_lhs(q, v, probe, p) - base
    return _augmented(A.ravel(), resid, columns.ravel(), -base)


def _solve_checked(system: tuple[np.ndarray, np.ndarray], theta: float) -> np.ndarray:
    """Dense solve. Callers check the cos(theta) band first; an exactly
    singular M (the oracle's can be one next to the band) still raises
    SingularConfiguration, and a system holding inf or NaN raises ValueError."""
    try:
        return np.linalg.solve(*system)
    except np.linalg.LinAlgError as err:
        if not all(np.isfinite(part).all() for part in system):
            raise ValueError(f"non-finite augmented system at theta={theta!r}") from err
        raise SingularConfiguration(theta) from err


def solve_system(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Contact multipliers and generalized accelerations from the augmented system.

    LAPACK's gesv is called directly where M cannot have a zero pivot (finite
    theta and psi, m and r in [1e-50, 1e50]; see the module docstring), with
    the bits np.linalg.solve gives; np.linalg.solve handles everything else.

    Parameters
    ----------
    q, v : GenCoords, GenVel, or sequences of the same five numbers each
    p : Params

    Returns
    -------
    ndarray, shape (7,)
        (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi), the frozen
        ordering of the unknowns.

    Raises
    ------
    SingularConfiguration
        When the disk is numerically horizontal, the only place M is singular.
    ValueError
        When the system holds inf or NaN and the solve fails on it.
    """
    theta = q[3]
    if abs(math.cos(theta)) <= SINGULAR_COS_THETA:  # checked_cos_theta, inlined: 4 calls per RK4 step
        raise SingularConfiguration(theta)
    system = assemble_system(q, v, p)
    if (
        math.isfinite(theta) and math.isfinite(q[4])
        and _DIRECT_SCALE_MIN <= p.m <= _DIRECT_SCALE_MAX
        and _DIRECT_SCALE_MIN <= p.r <= _DIRECT_SCALE_MAX
    ):
        x = _gesv(*system, signature="dd->d")
        if math.isfinite(sum(x.tolist())):  # an overflowing sum only costs the fallback
            return x
    return _solve_checked(system, theta)


def solve_oracle_system(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Like solve_system but on the finite-difference-assembled system."""
    checked_cos_theta(q[3])
    return _solve_checked(oracle_system(q, v, p), q[3])
