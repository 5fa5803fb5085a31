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
itself, a length-7 array in exactly this order, as does
dynamics.closed_form_solution. Do not reorder.

Both systems here are those of the unit disk. With lengths measured in r,
L is m r^2 times the Lagrangian of a disk with m = r = 1 under gravity g/r,
taken at the center rates dc/r and the same angles and angle rates. So M
depends on theta and psi only, b on the angle rates and g/r only, and the
solution y of the unit disk's system gives the disk's as lambda = m r y[0:2],
ddc = r y[2:4] and the angle accelerations y[4:7] unchanged.

The motion rows come from the split d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot)
into the generalized mass G (_mass_entries) and force f (_force_entries), so M
depends on configuration only and every velocity term lives in b; they are
M[2:7, 2:7] and b[2:7]. Each entry is written once, in a helper returning
plain floats. 30 of M's 49 entries never change: the 2 x 2 zero block, the
identity columns of A and their negation in -A^T, and the zeros of G.
assemble_system copies them from _TEMPLATE and puts the other 19 into the
copy in one call; b is one numpy call. Negating A's zeros gives -0.0 at
M[2, 1] and M[3, 0], and the template holds those signs. det M =
(15/32) cos^2(theta), so the cos(theta) band of the singularity guard is the
exact rank test.

Both solves hand (M, b) straight to LAPACK's gesv through the gufunc that
np.linalg.solve itself runs, _umath_linalg.solve1, and so get the same bits
without the wrapper's argument conversion and errstate. M's LU pivots are
about cos^2(theta) / 4, at least 2.5e-13 outside the band, so for finite
theta and psi LAPACK meets no zero pivot and numpy emits no warning; a
non-finite theta or psi raises ValueError first. An inf or NaN in b gives a
non-finite solution, which is returned as it is. The scaling back runs on
Python floats, which overflow to inf without a warning.

oracle_lhs recomputes the Euler-Lagrange left side purely from the scalar
lagrangian, sharing no algebra with the closed form, and exists to
cross-check it. It differentiates L by the complex step (Squire & Trapp,
SIAM Review 40, 1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003): one
constant step h = 1e-30, no difference of nearby values and so no step to
tune. oracle_system reads G from L at rest and f from oracle_lhs, both on the
unit disk, and takes the contact rows and -A^T from assemble_system itself.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np
from numpy.linalg import _umath_linalg

from .constraints import _constraint_entries
from .energetics import GenCoords, GenVel, Params, lagrangian
from .singularity import SINGULAR_COS_THETA, SingularConfiguration, checked_cos_theta

# The LAPACK gesv gufunc behind np.linalg.solve for a (n, n) matrix and a (n,) vector.
_gesv = _umath_linalg.solve1
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


def _force_entries(g_over_r: float, st: float, ct: float, s2t: float, v) -> tuple:
    """The 5 entries of the unit disk's f(q, qdot) under gravity g/r, from sin,
    cos and sin(2 theta) and the rates in v."""
    dphi, dtheta, dpsi = v[2], v[3], v[4]
    stand_rates = 4.0 * dtheta * dtheta * s2t + 4.0 * dphi * dpsi * ct - dpsi * dpsi * s2t
    return (0.0, 0.0, dtheta * dpsi * ct / 2.0, g_over_r * st - stand_rates / 8.0,
            (dphi - dpsi * st) * dtheta * ct / 2.0)


def _drift_entries(st: float, ct: float, sp: float, cp: float, v) -> tuple:
    """The 2 entries of the unit disk's contact drift (dA/dq qdot) qdot."""
    dphi, dtheta, dpsi = v[2], v[3], v[4]
    sq_rates = dtheta * dtheta + dpsi * dpsi
    return (-cp * dphi * dpsi + 2.0 * sp * ct * dtheta * dpsi + cp * st * sq_rates,
            -sp * dphi * dpsi - 2.0 * cp * ct * dtheta * dpsi + sp * st * sq_rates)


def oracle_lhs(q: GenCoords, v: GenVel, a, p: Params) -> np.ndarray:
    """Euler-Lagrange left side from complex-step derivatives of the Lagrangian only.

    dL/dq_i is Im L(q + ih e_i, qdot) / h. The time derivative of dL/dqdot_i
    is taken along the synthetic path q(s) = q + s*v, qdot(s) = v + s*a at
    s = ih, as Im[L(q(ih), qdot(ih) + e_i) - L(q(ih), qdot(ih) - e_i)] / (2h):
    L is quadratic in the rates, so the unit central difference in qdot_i is
    exact. Nothing of the closed-form expressions is used.

    Returns
    -------
    ndarray, shape (5,)
    """
    def im_lagrangian(qs, vs) -> float:
        return lagrangian(GenCoords(*qs), GenVel(*vs), p).imag / _COMPLEX_STEP

    q, v = list(q), list(v)
    path_q = [complex(x, _COMPLEX_STEP * dx) for x, dx in zip(q, v)]
    path_v = [complex(dx, _COMPLEX_STEP * ddx) for dx, ddx in zip(v, a)]
    lhs = np.empty(5)
    for i in range(5):
        ahead, behind, probe = path_v.copy(), path_v.copy(), q.copy()
        ahead[i] += 1.0
        behind[i] -= 1.0
        probe[i] = complex(q[i], _COMPLEX_STEP)
        momentum_rate = (im_lagrangian(path_q, ahead) - im_lagrangian(path_q, behind)) / 2.0
        lhs[i] = momentum_rate - im_lagrangian(probe, v)
    return lhs


# Flat positions in M of the entries of A that depend on (q, p), of their
# negatives in -A^T and of the nonzero entries of G, both counted row by row:
# entry k of A is M[k // 5, 2 + k % 5] and M[2 + k % 5, k // 5] in -A^T,
# entry j of G is M[2 + j // 5, 2 + j % 5].
_VARYING_A, _NONZERO_G = (2, 3, 4, 7, 8, 9), (0, 6, 12, 14, 18, 22, 24)
_VARYING = np.array([7 * (k // 5) + 2 + k % 5 for k in _VARYING_A]
                    + [7 * (2 + k % 5) + k // 5 for k in _VARYING_A]
                    + [16 + 7 * (j // 5) + j % 5 for j in _NONZERO_G])
_varying_a, _nonzero_g = itemgetter(*_VARYING_A), itemgetter(*_NONZERO_G)
# The other 30 entries of M: A's identity columns, their negation in -A^T
# (whose zeros are -0.0), and zeros.
_TEMPLATE = np.zeros((7, 7))
_TEMPLATE[0, 2] = _TEMPLATE[1, 3] = 1.0
_TEMPLATE[2, 0] = _TEMPLATE[3, 1] = -1.0
_TEMPLATE[2, 1] = _TEMPLATE[3, 0] = -0.0
_TEMPLATE.flags.writeable = False


def assemble_system(q: GenCoords, v: GenVel, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form augmented system (M, b) of the unit disk under gravity g/r:
    the entries of A, G, f and the contact drift, with each sine and cosine
    taken once."""
    theta, psi = q[3], q[4]
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    a2, a3, a4, a7, a8, a9 = a = _varying_a(_constraint_entries(1.0, st, ct, sp, cp))
    M = _TEMPLATE.copy()
    M.put(_VARYING, (*a, -a2, -a3, -a4, -a7, -a8, -a9, *_nonzero_g(_mass_entries(st))))
    drift = _drift_entries(st, ct, sp, cp, v)
    return M, np.array((-drift[0], -drift[1], *_force_entries(p.g / p.r, st, ct, math.sin(2.0 * theta), v)))


def unit_disk(p: Params) -> Params:
    """Params(1, g/r, 1): the disk whose system assemble_system builds for p.

    Raises ValueError when g/r is not a positive finite float.
    """
    g_over_r = p.g / p.r
    if not 0.0 < g_over_r < math.inf:
        raise ValueError(f"g/r = {p.g:g}/{p.r:g} rounds to {g_over_r!r}, not a positive finite number")
    return Params(1.0, g_over_r, 1.0)


def oracle_system(q: GenCoords, v: GenVel, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Augmented unit-disk system (M, b) with G and f rebuilt from the Lagrangian.

    Starts from assemble_system's system, whose contact rows, -A^T and b[0:2]
    it keeps, and overwrites G = M[2:7, 2:7] and f = b[2:7] with values of
    lagrangian alone, on unit_disk(p). L is quadratic in the rates, so G does
    not depend on them and is read at rest, with q real:
    G_ij = Im[L(q, ih e_j + e_i) - L(q, ih e_j - e_i)] / (2h), where no term
    holds a rate that could swamp G, and the central difference cancels any
    term linear in the rates. f is -oracle_lhs at the unit disk's rates
    (dc/r, angle rates) and no acceleration. Used for cross-validation.

    Raises unit_disk's ValueError.
    """
    unit, q = unit_disk(p), GenCoords(*q)
    M, b = assemble_system(q, v, p)
    for i in range(5):
        for j in range(i, 5):
            ahead, behind = [0.0] * 5, [0.0] * 5
            ahead[j] = behind[j] = complex(0.0, _COMPLEX_STEP)
            ahead[i] += 1.0
            behind[i] -= 1.0
            rise = lagrangian(q, GenVel(*ahead), unit).imag - lagrangian(q, GenVel(*behind), unit).imag
            M[2 + i, 2 + j] = M[2 + j, 2 + i] = rise / (2.0 * _COMPLEX_STEP)
    b[2:7] = -oracle_lhs(q, (v[0] / p.r, v[1] / p.r, v[2], v[3], v[4]), (0.0,) * 5, unit)
    return M, b


def _solve_unit(system: tuple[np.ndarray, np.ndarray], q, p: Params) -> np.ndarray:
    """Solve a unit-disk system with gesv and scale its solution back to the
    disk p; ValueError for a non-finite theta or psi."""
    if not (math.isfinite(q[3]) and math.isfinite(q[4])):
        raise ValueError(f"non-finite augmented system at theta={q[3]!r}")
    y = _gesv(*system, signature="dd->d").tolist()
    mr, r = p.m * p.r, p.r
    return np.array((mr * y[0], mr * y[1], r * y[2], r * y[3], y[4], y[5], y[6]))


def solve_system(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Contact multipliers and generalized accelerations from the augmented
    system of the unit disk, scaled back to the disk p.

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
        When theta or psi is not finite.
    """
    theta = q[3]
    if abs(math.cos(theta)) <= SINGULAR_COS_THETA:  # checked_cos_theta, inlined: 4 calls per RK4 step
        raise SingularConfiguration(theta)
    return _solve_unit(assemble_system(q, v, p), q, p)


def solve_oracle_system(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Like solve_system but on the system that oracle_system rebuilds."""
    checked_cos_theta(q[3])
    return _solve_unit(oracle_system(q, v, p), q, p)
