"""Orientation kinematics of the disk.

The attitude is three angles applied in fixed order: spin phi about the
body symmetry axis x, stand angle theta about the intermediate y axis and
heading psi about the vertical z axis, so R = R_heading(psi) @
R_stand(theta) @ R_spin(phi) maps body to world coordinates. Angles are
never wrapped into a principal range, so trajectories keep them continuous.
"""

from __future__ import annotations

import cmath
import math


def euler_rotation(angles):
    """R at angles = (phi, theta, psi) in radians: three rows, each a tuple of
    three floats, read as R[i][j]."""
    sf, cf = math.sin(angles[0]), math.cos(angles[0])
    st, ct = math.sin(angles[1]), math.cos(angles[1])
    sp, cp = math.sin(angles[2]), math.cos(angles[2])
    return ((ct * cp, -cf * sp + st * cp * sf, sp * sf + st * cp * cf),
            (ct * sp, cp * cf + st * sp * sf, -cp * sf + st * cf * sp),
            (-st, ct * sf, ct * cf))


def rotation_vector(angles, rates: tuple[float, float, float]) -> tuple:
    """Body-frame angular velocity omega, the three independent entries of the
    skew matrix R^T dR/dt, at angles (phi, theta, psi) and rates (dphi,
    dtheta, dpsi). A complex angle takes cmath's sine and cosine, a real one
    math's; an entry is complex where an input it reads is."""
    dphi, dtheta, dpsi = rates
    phi, theta = angles[0], angles[1]
    trig_phi = cmath if isinstance(phi, complex) else math
    trig_theta = cmath if isinstance(theta, complex) else math
    sf, cf = trig_phi.sin(phi), trig_phi.cos(phi)
    st, ct = trig_theta.sin(theta), trig_theta.cos(theta)
    return dphi - dpsi * st, dtheta * cf + dpsi * sf * ct, -dtheta * sf + dpsi * ct * cf

