"""Energies and the Lagrangian of the rolling disk.

Generalized coordinates are q = (c1, c2, phi, theta, psi): the horizontal
position of the disk center, spin, stand angle, and heading. Generalized
velocities are their rates v = (dc1, dc2, dphi, dtheta, dpsi). Every function
takes q and v as plain sequences of five numbers in these orders. The center
height is slaved to the stand angle while the rim touches the plane,

    c = (c1, c2, r*cos(theta))

so the center velocity is (dc1, dc2, -r*sin(theta)*dtheta). With principal
body inertia diag(m r^2/2, m r^2/4, m r^2/4) (axial moment first) the
energies are

    E_kin = 1/2 omega . I omega + 1/2 m |dc/dt|^2
    E_pot = m g r cos(theta)

and expanding E_kin - E_pot gives the closed-form Lagrangian

    L = 1/2 m (dc1^2 + dc2^2 + r^2 sin^2(theta) dtheta^2)
        + 1/8 m r^2 (2 (dphi - sin(theta) dpsi)^2
                     + dtheta^2 + cos^2(theta) dpsi^2)
        - m g r cos(theta)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import rotation_vector


@dataclass(frozen=True)
class Params:
    """Physical constants: disk mass m [kg], gravity g [m/s^2], radius r [m]."""

    m: float = 5.0
    g: float = 9.81
    r: float = 1.0

    def __post_init__(self):
        for name in ("m", "g", "r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def potential_energy(q, p: Params) -> float:
    """Gravitational energy m g r cos(theta), zero level at the plane."""
    return p.m * p.g * p.r * math.cos(q[3])


def kinetic_energy(q, v, p: Params) -> float:
    """Rotational plus translational kinetic energy, built from definitions.

    Evaluates 1/2 omega . I omega + 1/2 m |dc/dt|^2 with omega from
    rotation_vector and dc/dt = (dc1, dc2, -r sin(theta) dtheta). Kept
    definitional on purpose: it cross-checks the closed-form lagrangian.
    """
    w = rotation_vector(q[2:5], v[2:5])
    w0, w1, w2 = w.tolist()
    axial = 0.5 * p.m * p.r * p.r  # each transverse moment is half of it
    spin = np.array((axial * w0, 0.5 * axial * w1, 0.5 * axial * w2))  # I omega
    dc = np.array([v[0], v[1], -p.r * math.sin(q[3]) * v[3]])
    # numpy's dot products, not scalar sums (they round differently); .dot costs less than @.
    return 0.5 * float(w.dot(spin)) + 0.5 * p.m * float(dc.dot(dc))


def lagrangian(q, v, p: Params) -> float:
    """Closed-form L = E_kin - E_pot.

    Parameters
    ----------
    q, v : sequences of the five coordinates and the five velocities
    p : Params
        q and v may hold complex numbers, as assembly.oracle_lhs passes them;
        a complex theta takes cmath's sine and cosine, a real one math's.

    Returns
    -------
    float, or complex for complex arguments
        Lagrangian value in joules.
    """
    dc1, dc2, dphi, dtheta, dpsi = v
    theta = q[3]
    trig = cmath if isinstance(theta, complex) else math
    st = trig.sin(theta)
    ct = trig.cos(theta)
    relative_spin = dphi - st * dpsi
    translational = dc1 * dc1 + dc2 * dc2 + (p.r * st * dtheta) ** 2
    rotational = 2.0 * relative_spin * relative_spin + dtheta * dtheta + (ct * dpsi) ** 2
    return (
        0.5 * p.m * translational
        + 0.125 * p.m * p.r * p.r * rotational
        - p.m * p.g * p.r * ct
    )
