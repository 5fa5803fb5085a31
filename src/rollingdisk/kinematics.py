"""Orientation kinematics of the disk.

The disk's attitude is parameterized by three angles applied in fixed order:
spin phi about the body symmetry axis (x), stand angle theta about the
intermediate y axis, heading psi about the vertical z axis. The world
orientation matrix is the product

    R = R_heading(psi) @ R_stand(theta) @ R_spin(phi)

Angles are plain real numbers and are never wrapped into a principal range;
trajectories keep them continuous.

The body-frame angular velocity follows from W = R^T dR/dt, which is skew
symmetric for any differentiable rotation; its three independent entries are
the rotation vector

    omega = (dphi - dpsi*sin(theta),
             dtheta*cos(phi) + dpsi*sin(phi)*cos(theta),
            -dtheta*sin(phi) + dpsi*cos(theta)*cos(phi))
"""

from __future__ import annotations

import math

import numpy as np


def euler_rotation(angles) -> np.ndarray:
    """World orientation matrix R = R_heading @ R_stand @ R_spin, written out.

    Parameters
    ----------
    angles : (phi, theta, psi)
        Spin, stand, heading angles in radians.

    Returns
    -------
    ndarray, shape (3, 3)
        Proper orthogonal matrix mapping body coordinates to world coordinates.
    """
    sf, cf = math.sin(angles[0]), math.cos(angles[0])
    st, ct = math.sin(angles[1]), math.cos(angles[1])
    sp, cp = math.sin(angles[2]), math.cos(angles[2])
    return np.array(
        [
            [ct * cp, -cf * sp + st * cp * sf, sp * sf + st * cp * cf],
            [ct * sp, cp * cf + st * sp * sf, -cp * sf + st * cf * sp],
            [-st, ct * sf, ct * cf],
        ]
    )


def rotation_vector(angles, rates: tuple[float, float, float]) -> np.ndarray:
    """Body-frame angular velocity for given angles and angle rates.

    Parameters
    ----------
    angles : (phi, theta, psi) sequence, in radians
    rates : tuple of float
        (dphi, dtheta, dpsi), time derivatives of the angles.

    Returns
    -------
    ndarray, shape (3,)
        Angular velocity omega expressed in body axes.
    """
    dphi, dtheta, dpsi = rates
    sf, cf = math.sin(angles[0]), math.cos(angles[0])
    st, ct = math.sin(angles[1]), math.cos(angles[1])
    return np.array(
        [
            dphi - dpsi * st,
            dtheta * cf + dpsi * sf * ct,
            -dtheta * sf + dpsi * ct * cf,
        ]
    )


def skew_extract(W: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Axial vector of a (numerically) skew-symmetric matrix.

    Parameters
    ----------
    W : ndarray, shape (3, 3)
    tol : float
        Largest tolerated entry of W + W^T. Inputs further from skew symmetry
        raise ValueError instead of being silently projected.

    Returns
    -------
    ndarray, shape (3,)
        Vector (-W[1,2], W[0,2], -W[0,1]).
    """
    W = np.asarray(W, dtype=float)
    defect = float(np.max(np.abs(W + W.T)))
    if defect > tol:
        raise ValueError(
            f"matrix is not skew-symmetric: max |W + W^T| = {defect:.3e} > tol {tol:g}"
        )
    return np.array([-W[1, 2], W[0, 2], -W[0, 1]])
