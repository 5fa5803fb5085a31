"""Assembly and solution of the constrained equations of motion.

Applying the constrained variational principle to the rolling disk gives, per
generalized coordinate, d/dt(dL/dqdot) - dL/dq = (A^T lambda) on that
coordinate, plus the differentiated contact conditions

    d/dt (A qdot) = A(q) qddot + (dA/dq qdot) qdot = 0

which close the system at acceleration level. Collecting the seven unknowns

    x = (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi)

yields a linear system M(q) x = b(q, qdot). Row and unknown ordering is
frozen: rows are (contact-1, contact-2, c1, c2, phi, theta, psi) and the two
multipliers lead the unknowns. solve_system and solve_oracle_system return x
itself, a tuple of seven floats in exactly this order, as does
dynamics.closed_form_solution. Do not reorder.

Both systems here are those of the unit disk. With lengths measured in r,
L is m r^2 times the Lagrangian of a disk with m = r = 1 under gravity g/r,
taken at the center rates dc/r and the same angles and angle rates. So m and
r leave the system, and its solution y gives the disk's as
lambda = m r y[0:2], ddc = r y[2:4] and the angle accelerations y[4:7]
unchanged.

The motion rows come from the split d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot)
into the generalized mass G and force f, so every velocity term lives in b.
_augmented alone knows the block layout: it lays out M's 49 floats row by
row, each contact row (0, 0, A row) and each motion row (-A column, G row),
so negating A's zeros gives the -0.0 at M[2, 1] and M[3, 0], and b's 7 as
(-drift, f). assemble_system hands it the closed-form entries, each written
once in a helper returning plain floats. det M = (15/32) cos^2(theta), so the
cos(theta) band of the singularity guard is the exact rank test.

Both solves pack (M, b) into fresh float64 arrays for LAPACK's gesv, called
through the gufunc that np.linalg.solve itself runs, _umath_linalg.solve1,
so they get the same bits without the wrapper's argument conversion and
errstate. M's LU pivots are about cos^2(theta) / 4, at least 2.5e-13 outside
the band, so for finite theta and psi LAPACK meets no zero pivot; a
non-finite theta or psi raises ValueError first. An inf or NaN in b gives a
non-finite solution, returned as it is with no warning, as the gufunc clears
the floating-point flags it raises. The scaling back runs on Python floats,
which overflow to inf silently. Only _solve_unit imports numpy, on first use:
building either system, or running simulate's reduced route, needs none.

oracle_lhs recomputes the Euler-Lagrange left side purely from the scalar
lagrangian, E_kin - E_pot built from omega's definition, the inertia and
c(q) and never expanded, so it shares no algebra with the closed form that
it exists to cross-check. It differentiates L by the complex step (Squire &
Trapp, SIAM Review 40, 1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003):
one constant step h = 1e-30, no difference of nearby values and so no step
to tune. oracle_system reads each of G's 15 distinct entries from one call of
L at rest and f from oracle_lhs's 15 calls, 30 calls in all, on the unit
disk; A and the drift are the closed forms', as L alone has no contact rows.
"""

from __future__ import annotations

import math
import struct

from .constraints import _constraint_entries
from .energetics import Params, lagrangian
from .singularity import checked_cos_theta

# Step of the oracle's complex-step derivatives: Im f(x + ih) / h = f'(x) +
# O(h^2) takes no difference of nearby values, so h can sit far below
# roundoff and needs no tuning to the state or the disk size.
_COMPLEX_STEP = 1e-30


def _mass_entries(st: float) -> tuple:
    """The 25 entries of the unit disk's G(q), row by row, from sin(theta)."""
    coupling = -st / 2.0
    return (1.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.5, 0.0, coupling,
            0.0, 0.0, 0.0, st * st + 0.25, 0.0,
            0.0, 0.0, coupling, 0.0, (st * st + 1.0) / 4.0)


def _force_entries(g_over_r: float, st: float, ct: float, s2t: float, rates) -> tuple:
    """The 5 entries of the unit disk's f(q, qdot), from sin, cos and sin(2 theta)."""
    dphi, dtheta, dpsi = rates
    stand_rates = 4.0 * dtheta * dtheta * s2t + 4.0 * dphi * dpsi * ct - dpsi * dpsi * s2t
    return (0.0, 0.0, dtheta * dpsi * ct / 2.0, g_over_r * st - stand_rates / 8.0,
            (dphi - dpsi * st) * dtheta * ct / 2.0)


def _drift_entries(st: float, ct: float, sp: float, cp: float, rates) -> tuple:
    """The 2 entries of the unit disk's contact drift (dA/dq qdot) qdot."""
    dphi, dtheta, dpsi = rates
    sq_rates = dtheta * dtheta + dpsi * dpsi
    return (-cp * dphi * dpsi + 2.0 * sp * ct * dtheta * dpsi + cp * st * sq_rates,
            -sp * dphi * dpsi - 2.0 * cp * ct * dtheta * dpsi + sp * st * sq_rates)


def oracle_lhs(q, v, a, p: Params) -> tuple[float, ...]:
    """Euler-Lagrange left side from complex-step derivatives of the Lagrangian only.

    dL/dq_i is Im L(q + ih e_i, qdot) / h. The time derivative of dL/dqdot_i
    is taken along the synthetic path q(s) = q + s*v, qdot(s) = v + s*a at
    s = ih, as Im[L(q(ih), qdot(ih) + e_i) - L(q(ih), qdot(ih) - e_i)] / (2h).
    L is quadratic in the rates, so this unit central difference in qdot_i is
    exact; the imaginary parts are differenced before the division, so a term
    common to both cancels instead of overflowing. That holds while
    h^2 |v| |a| << 1: beyond it the cross terms of the complex path and the
    complex rates reach the real parts: at h = 1e-30 and unit rates the theta
    and psi rows lose an acceleration's term from about 1e75 and read NaN at
    1e200, silently. oracle_system passes a = 0. It uses no closed form.

    Returns
    -------
    tuple of five floats
    """
    path_q = [complex(x, _COMPLEX_STEP * dx) for x, dx in zip(q, v)]
    path_v = [complex(dx, _COMPLEX_STEP * ddx) for dx, ddx in zip(v, a)]
    lhs = []
    for i in range(5):
        ahead, behind, probe = list(path_v), list(path_v), list(q)
        ahead[i] += 1.0
        behind[i] -= 1.0
        probe[i] = complex(q[i], _COMPLEX_STEP)
        momentum_rate = (lagrangian(path_q, ahead, p).imag
                         - lagrangian(path_q, behind, p).imag) / (2.0 * _COMPLEX_STEP)
        lhs.append(momentum_rate - lagrangian(probe, v, p).imag / _COMPLEX_STEP)
    return tuple(lhs)


def _augmented(a, g, drift, f) -> tuple[tuple, tuple]:
    """(M's 49 floats row by row, b's 7) from A's 10 entries, G's 25 (row by
    row), the drift's 2 and f's 5: the one place that knows where each goes."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    (g0, g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12,
     g13, g14, g15, g16, g17, g18, g19, g20, g21, g22, g23, g24) = g
    return ((0.0, 0.0, a0, a1, a2, a3, a4,
             0.0, 0.0, a5, a6, a7, a8, a9,
             -a0, -a5, g0, g1, g2, g3, g4,
             -a1, -a6, g5, g6, g7, g8, g9,
             -a2, -a7, g10, g11, g12, g13, g14,
             -a3, -a8, g15, g16, g17, g18, g19,
             -a4, -a9, g20, g21, g22, g23, g24),
            (-drift[0], -drift[1], *f))


def assemble_system(theta: float, psi: float, rates, g_over_r: float) -> tuple[tuple, tuple]:
    """Closed-form augmented system (M, b) of the unit disk, with rates =
    (dphi, dtheta, dpsi), each sine and cosine taken once. theta and psi must
    be finite, which the two solves check first; nothing here does, on the hot
    path, so an infinite angle raises math's ValueError and a NaN gives NaN in M."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    return _augmented(_constraint_entries(1.0, st, ct, sp, cp), _mass_entries(st),
                      _drift_entries(st, ct, sp, cp, rates),
                      _force_entries(g_over_r, st, ct, math.sin(2.0 * theta), rates))


def unit_disk(p: Params) -> Params:
    """Params(1, g/r, 1): the disk whose system assemble_system builds for p.

    Raises ValueError when g/r is not a positive finite float.
    """
    g_over_r = p.g / p.r
    if not 0.0 < g_over_r < math.inf:
        raise ValueError(f"g/r = {p.g:g}/{p.r:g} rounds to {g_over_r!r}, not a positive finite number")
    return Params(1.0, g_over_r, 1.0)


def oracle_system(q, v, p: Params) -> tuple[tuple, tuple]:
    """Augmented unit-disk system (M, b) with G and f rebuilt from the Lagrangian.

    G and f are values of lagrangian alone, on unit_disk(p); A and the drift
    are the closed forms'. L is quadratic in the rates, so G does not depend
    on them and is read at rest, with q real, where T is the quadratic form
    qdot^T G qdot / 2 and V is real: G_ij is Im L(q, e_i + ih e_j) / h, one
    call per distinct entry, and no term holds a rate that could swamp G. f
    is -oracle_lhs at the unit disk's rates (dc/r, angle rates) and no
    acceleration. Used for cross-validation.

    Raises unit_disk's ValueError, and cmath's OverflowError once h times a
    phi or theta rate passes cosh's range, at about 7.1e32. theta and psi
    must be finite, which only the solves check.
    """
    unit = unit_disk(p)
    st, ct, sp, cp = math.sin(q[3]), math.cos(q[3]), math.sin(q[4]), math.cos(q[4])
    g = [0.0] * 25
    for i in range(5):
        for j in range(i, 5):
            probe = [0.0] * 5
            probe[j] = complex(0.0, _COMPLEX_STEP)
            probe[i] += 1.0
            g[5 * i + j] = g[5 * j + i] = lagrangian(q, probe, unit).imag / _COMPLEX_STEP
    lhs = oracle_lhs(q, (v[0] / p.r, v[1] / p.r, v[2], v[3], v[4]), (0.0,) * 5, unit)
    return _augmented(_constraint_entries(1.0, st, ct, sp, cp), g,
                      _drift_entries(st, ct, sp, cp, v[2:5]), [-x for x in lhs])


def _checked_angles(q) -> None:
    """ValueError for a non-finite theta or psi, before any sine of them; then the flat-disk guard."""
    if not (math.isfinite(q[3]) and math.isfinite(q[4])):
        raise ValueError(f"non-finite angle at theta={q[3]!r}, psi={q[4]!r}")
    checked_cos_theta(q[3])


# Packing M's 49 Python floats costs about 1 us less per call than np.array on
# them, and the unreduced route solves four times per step.
_pack_49 = struct.Struct("49d").pack_into


def _solve_unit(system: tuple[tuple, tuple], p: Params) -> tuple[float, ...]:
    """Solve a unit-disk system (M's 49 floats, b's 7) with gesv and scale its
    solution back to the disk p."""
    import numpy as np

    entries, b = system
    M = np.empty((7, 7))
    _pack_49(M, 0, *entries)
    y0, y1, y2, y3, y4, y5, y6 = np.linalg._umath_linalg.solve1(M, np.array(b)).tolist()
    mr, r = p.m * p.r, p.r
    return mr * y0, mr * y1, r * y2, r * y3, y4, y5, y6


def solve_system(q, v, p: Params) -> tuple[float, ...]:
    """Contact multipliers and generalized accelerations from the augmented
    system of the unit disk, scaled back to the disk p.

    Parameters
    ----------
    q, v : sequences of the five coordinates and the five velocities
    p : Params

    Returns
    -------
    tuple of seven floats
        (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi), the frozen
        ordering of the unknowns.

    Raises
    ------
    SingularConfiguration
        When the disk is numerically horizontal, the only place M is singular.
    ValueError
        When theta or psi is not finite.
    """
    _checked_angles(q)
    return _solve_unit(assemble_system(q[3], q[4], v[2:5], p.g / p.r), p)


def solve_oracle_system(q, v, p: Params) -> tuple[float, ...]:
    """solve_system on oracle_system's system; raises OverflowError past a phi or theta rate of 7.1e32."""
    _checked_angles(q)
    return _solve_unit(oracle_system(q, v, p), p)
