"""Orientation kinematics of the disk.

The disk's attitude is parameterized by three angles applied in fixed order:
spin phi about the body symmetry axis (x), stand angle theta about the
intermediate y axis, heading psi about the vertical z axis. The world
orientation matrix is the product

    R = R_heading(psi) @ R_stand(theta) @ R_spin(phi)

Angles are plain numbers, complex too for the complex-step oracle, and are
never wrapped into a principal range; trajectories keep them continuous.

The body-frame angular velocity follows from W = R^T dR/dt, which is skew
symmetric for any differentiable rotation; its three independent entries are
the rotation vector

    omega = (dphi - dpsi*sin(theta),
             dtheta*cos(phi) + dpsi*sin(phi)*cos(theta),
            -dtheta*sin(phi) + dpsi*cos(theta)*cos(phi))
"""

from __future__ import annotations

import cmath
import math


def euler_rotation(angles):
    """World orientation matrix R = R_heading @ R_stand @ R_spin, written out.

    Parameters
    ----------
    angles : (phi, theta, psi)
        Spin, stand, heading angles in radians.

    Returns
    -------
    tuple of three rows, each a tuple of three floats
        Proper orthogonal matrix mapping body coordinates to world coordinates.
    """
    sf, cf = math.sin(angles[0]), math.cos(angles[0])
    st, ct = math.sin(angles[1]), math.cos(angles[1])
    sp, cp = math.sin(angles[2]), math.cos(angles[2])
    return ((ct * cp, -cf * sp + st * cp * sf, sp * sf + st * cp * cf),
            (ct * sp, cp * cf + st * sp * sf, -cp * sf + st * cf * sp),
            (-st, ct * sf, ct * cf))


def rotation_vector(angles, rates: tuple[float, float, float]) -> tuple:
    """Body-frame angular velocity for given angles and angle rates.

    Parameters
    ----------
    angles : (phi, theta, psi) sequence, in radians; a complex angle takes
        cmath's sine and cosine, a real one math's
    rates : tuple of numbers
        (dphi, dtheta, dpsi), time derivatives of the angles.

    Returns
    -------
    tuple of three numbers
        Angular velocity omega expressed in body axes; an entry is complex
        where an input it reads is.
    """
    dphi, dtheta, dpsi = rates
    phi, theta = angles[0], angles[1]
    trig_phi = cmath if isinstance(phi, complex) else math
    trig_theta = cmath if isinstance(theta, complex) else math
    sf, cf = trig_phi.sin(phi), trig_phi.cos(phi)
    st, ct = trig_theta.sin(theta), trig_theta.cos(theta)
    return dphi - dpsi * st, dtheta * cf + dpsi * sf * ct, -dtheta * sf + dpsi * ct * cf

