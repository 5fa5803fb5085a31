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

The motion rows come from the split d/dt(dL/dqdot) - dL/dq = G(q) qddot - f(q, qdot)
into the generalized mass G (_mass_entries) and force f (_force_entries), so M
depends on configuration only and every velocity term lives in b; they are
M[2:7, 2:7] and b[2:7]. Each entry is written once, in a helper returning
plain floats. 30 of M's 49 entries never change: the 2 x 2 zero block, the
identity columns of A and their negation in -A^T, and the zeros of G.
assemble_system copies them from _TEMPLATE and puts the other 19 into the
copy in one call; b is one numpy call. Negating A's zeros gives -0.0 at
M[2, 1] and M[3, 0], and the template holds those signs. det M =
(15/32) m^3 r^6 cos^2(theta), so the cos(theta) band of the singularity guard
is the exact rank test.

solve_system hands (M, b) straight to LAPACK's gesv through the gufunc that
np.linalg.solve itself runs, _umath_linalg.solve1, and so gets the same bits
without the wrapper's argument conversion and errstate. The direct call is
made only where M is known to be regular in floating point: finite theta and
psi, and m and r within [1e-50, 1e50]. M depends on nothing else, its LU
pivots scale like m r^2 cos^2(theta) / 4, and outside the band that stays
far above the underflow threshold, so LAPACK meets no zero pivot, raises no
floating-point flag and numpy emits no warning. Every other system, and any
non-finite result, goes through np.linalg.solve with its checks.

oracle_lhs recomputes the Euler-Lagrange left side purely from the scalar
lagrangian, sharing no algebra with the closed form, and exists to
cross-check it. It differentiates L by the complex step (Squire & Trapp,
SIAM Review 40, 1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003): one
constant step h = 1e-30, no difference of nearby values and so no step to
tune, which leaves the rebuilt G and f within roundoff of assemble_system's;
oracle_system takes the contact rows and -A^T from assemble_system itself.
Solved, it does not meet validate's 1e-8 bar at every disk size: at seed 42
it passes for r in [1e-4, 1e3] at m = 5 and for m up to 1e12 at r = 1, and
fails at r = 1e-5, r = 1e4 and m = 1e14.
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
    """Closed-form augmented system (M, b): the entries of A, G, f and the
    contact drift, with each sine and cosine taken once."""
    theta, psi = q[3], q[4]
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
    a2, a3, a4, a7, a8, a9 = a = _varying_a(_constraint_entries(p.r, st, ct, sp, cp))
    M = _TEMPLATE.copy()
    M.put(_VARYING, (*a, -a2, -a3, -a4, -a7, -a8, -a9, *_nonzero_g(_mass_entries(p, st))))
    drift = _drift_entries(p.r, st, ct, sp, cp, v)
    return M, np.array((-drift[0], -drift[1], *_force_entries(p, st, ct, math.sin(2.0 * theta), v)))


def oracle_system(q: GenCoords, v: GenVel, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Augmented system (M, b) with G and f rebuilt from oracle_lhs.

    Starts from assemble_system's system, whose contact rows, -A^T and b[0:2]
    it keeps, and overwrites G = M[2:7, 2:7] and f = b[2:7]. The acceleration
    dependence of the complex-step left side is probed column by column (it
    is linear in qddot), so the motion rows share no closed-form dynamics
    algebra with assemble_system. Used for cross-validation.
    """
    M, b = assemble_system(q, v, p)
    base = oracle_lhs(q, v, np.zeros(5), p)
    for j, probe in enumerate(np.eye(5)):
        M[2:7, 2 + j] = oracle_lhs(q, v, probe, p) - base
    b[2:7] = -base
    return M, b


def _solve_checked(system: tuple[np.ndarray, np.ndarray], theta: float) -> np.ndarray:
    """Dense solve. Callers check the cos(theta) band first; an exactly
    singular M (one whose scale underflows) still raises
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
    M, b = assemble_system(q, v, p)
    if (
        math.isfinite(theta) and math.isfinite(q[4])
        and _DIRECT_SCALE_MIN <= p.m <= _DIRECT_SCALE_MAX
        and _DIRECT_SCALE_MIN <= p.r <= _DIRECT_SCALE_MAX
    ):
        x = _gesv(M, b, signature="dd->d")
        if math.isfinite(sum(x.tolist())):  # an overflowing sum only costs the fallback
            return x
    return _solve_checked((M, b), theta)


def solve_oracle_system(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Like solve_system but on the system that oracle_system rebuilds."""
    checked_cos_theta(q[3])
    return _solve_checked(oracle_system(q, v, p), q[3])
