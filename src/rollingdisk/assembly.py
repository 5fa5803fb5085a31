"""The constrained equations of motion as one 7x7 linear system M x = b.

The unknowns are x = (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi)
and the rows (contact-1, contact-2, c1, c2, phi, theta, psi): first the
differentiated contact conditions A(q) qddot + (dA/dq qdot) qdot = 0, then
d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot) = A^T lambda per
coordinate. solve_system, solve_oracle_system and
dynamics.closed_form_solution return x as seven floats in this order.

Both systems are the unit disk's: with lengths in r, L is m r^2 times the
Lagrangian of a disk with m = r = 1 under gravity g/r, at the center rates
dc/r and the same angles and angle rates. Their solution y scales back to
the disk as lambda = m r y[0:2], ddc = r y[2:4] and the angle accelerations
y[4:7]. det M = (15/32) cos^2(theta), so the flat-disk band of
singularity is the exact rank test.

The oracle rebuilds G and f from lagrangian alone by the complex step
(Squire & Trapp, SIAM Review 40, 1998), so it shares no algebra with the
closed forms it checks. L has no contact rows, so A and the drift are the
closed forms'. Only _solve_unit imports numpy.
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


def _augmented(a, g, drift, f) -> tuple[tuple, tuple]:
    """(M's 49 floats row by row, b's 7) from A's 10 entries, G's 25 (row by
    row), the drift's 2 and f's 5: the one place that knows the block layout.
    Contact rows are (0, 0, A row) and motion rows (-A column, G row), so the
    signed zeros of -A^T come from negating A's; b is (-drift, f)."""
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
    """Closed-form system (M, b) of the unit disk, with rates = (dphi, dtheta,
    dpsi). theta and psi must be finite: only the solves check, so here an
    infinite angle raises math's ValueError and a NaN gives NaN in M."""
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
    """Unit-disk system (M, b) with G and f from lagrangian alone, on unit_disk(p).

    L is quadratic in the rates, so G is read at rest, where T is
    qdot^T G qdot / 2 and V is real: G_ij = Im L(q, e_i + ih e_j) / h, one
    call per distinct entry, with no rate term to swamp G. f_i is dL/dq_i,
    Im L(q + ih e_i, u) / h, less d/dt dL/dqdot_i, taken along q + s u at the
    unit disk's rates u = (dc/r, angle rates) and no acceleration as
    Im[L(q + ih u, u + e_i) - L(q + ih u, u - e_i)] / (2h): a unit central
    difference in the rates, exact as L is quadratic in them, whose imaginary
    parts are differenced before the division, so a common term cancels.

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
    rates = (v[0] / p.r, v[1] / p.r, v[2], v[3], v[4])
    path = [complex(x, _COMPLEX_STEP * dx) for x, dx in zip(q, rates)]
    f = []
    for i in range(5):
        ahead, behind, probe = [complex(x) for x in rates], [complex(x) for x in rates], list(q)
        ahead[i] += 1.0
        behind[i] -= 1.0
        probe[i] = complex(q[i], _COMPLEX_STEP)
        momentum_rate = (lagrangian(path, ahead, unit).imag
                         - lagrangian(path, behind, unit).imag) / (2.0 * _COMPLEX_STEP)
        f.append(-(momentum_rate - lagrangian(probe, rates, unit).imag / _COMPLEX_STEP))
    return _augmented(_constraint_entries(1.0, st, ct, sp, cp), g,
                      _drift_entries(st, ct, sp, cp, v[2:5]), f)


def _checked_angles(q) -> None:
    """ValueError for a non-finite theta or psi, before any sine of them; then the flat-disk guard."""
    if not (math.isfinite(q[3]) and math.isfinite(q[4])):
        raise ValueError(f"non-finite angle at theta={q[3]!r}, psi={q[4]!r}")
    checked_cos_theta(q[3])


# struct packs M's 49 Python floats faster than np.array does, and the
# unreduced route solves four times a step.
_pack_49 = struct.Struct("49d").pack_into


def _solve_unit(system: tuple[tuple, tuple], p: Params) -> tuple[float, ...]:
    """Solve a unit-disk system (M's 49 floats, b's 7) with LAPACK's gesv and
    scale its solution back to the disk p.

    gesv runs through _umath_linalg.solve1, the gufunc np.linalg.solve runs,
    so the bits are np.linalg.solve's without its argument conversion. The
    smallest LU pivot is about cos^2(theta) / 4, so outside the flat-disk band
    none is zero. A non-finite b gives a non-finite solution and no warning,
    as the gufunc clears the flags it raises; the scale-back runs on Python
    floats, which overflow to inf silently."""
    import numpy as np

    entries, b = system
    M = np.empty((7, 7))
    _pack_49(M, 0, *entries)
    y0, y1, y2, y3, y4, y5, y6 = np.linalg._umath_linalg.solve1(M, np.array(b)).tolist()
    mr, r = p.m * p.r, p.r
    return mr * y0, mr * y1, r * y2, r * y3, y4, y5, y6


def solve_system(q, v, p: Params) -> tuple[float, ...]:
    """The seven unknowns x of the disk p, from the closed-form system of its
    unit disk; q and v are sequences of the five coordinates and velocities.

    Raises SingularConfiguration in the flat-disk band, the only place M is
    singular, and ValueError, before any sine, when theta or psi is not finite.
    """
    _checked_angles(q)
    return _solve_unit(assemble_system(q[3], q[4], v[2:5], p.g / p.r), p)


def solve_oracle_system(q, v, p: Params) -> tuple[float, ...]:
    """solve_system on oracle_system's system; raises OverflowError past a phi or theta rate of 7.1e32."""
    _checked_angles(q)
    return _solve_unit(oracle_system(q, v, p), p)
