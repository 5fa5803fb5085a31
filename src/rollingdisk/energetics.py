"""Energies and the Lagrangian of the rolling disk.

Generalized coordinates are q = (c1, c2, phi, theta, psi): the horizontal
position of the disk center, spin, stand angle, and heading. The center
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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class GenCoords(NamedTuple):
    """Generalized coordinates (c1, c2, phi, theta, psi)."""

    c1: float
    c2: float
    phi: float
    theta: float
    psi: float


class GenVel(NamedTuple):
    """Generalized velocities (dc1, dc2, dphi, dtheta, dpsi)."""

    dc1: float
    dc2: float
    dphi: float
    dtheta: float
    dpsi: float

    def angular_rates(self) -> tuple[float, float, float]:
        return (self.dphi, self.dtheta, self.dpsi)


def center_position(q: GenCoords, p: Params) -> np.ndarray:
    """Disk center in world coordinates, height slaved to the stand angle."""
    return np.array([q.c1, q.c2, p.r * math.cos(q.theta)])


def center_velocity(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    """Velocity of the disk center; the vertical part is -r sin(theta) dtheta."""
    return np.array([v[0], v[1], -p.r * math.sin(q[3]) * v[3]])


@functools.lru_cache(maxsize=32)
def inertia_matrix(p: Params) -> np.ndarray:
    """Principal body inertia diag(m r^2/2, m r^2/4, m r^2/4), axial first; shared, read-only."""
    mr2 = p.m * p.r * p.r
    inertia = np.diag([mr2 / 2.0, mr2 / 4.0, mr2 / 4.0])
    inertia.flags.writeable = False
    return inertia


def potential_energy(q: GenCoords, p: Params) -> float:
    """Gravitational energy m g r cos(theta), zero level at the plane."""
    return p.m * p.g * p.r * math.cos(q[3])


def kinetic_energy(q: GenCoords, v: GenVel, p: Params) -> float:
    """Rotational plus translational kinetic energy, built from definitions.

    Evaluates 1/2 omega . I omega + 1/2 m |dc/dt|^2 with omega from
    rotation_vector and the center velocity from center_velocity. Kept
    definitional on purpose: it cross-checks the closed-form lagrangian.
    """
    w = rotation_vector(q[2:5], v[2:5])
    dc = center_velocity(q, v, p)
    # numpy's products, not scalar sums (they round differently); .dot costs less than @.
    return 0.5 * float(w.dot(inertia_matrix(p)).dot(w)) + 0.5 * p.m * float(dc.dot(dc))


def lagrangian(q: GenCoords, v: GenVel, p: Params) -> float:
    """Closed-form L = E_kin - E_pot.

    Parameters
    ----------
    q : GenCoords
    v : GenVel
    p : Params

    Returns
    -------
    float
        Lagrangian value in joules.
    """
    st = math.sin(q.theta)
    ct = math.cos(q.theta)
    relative_spin = v.dphi - st * v.dpsi
    translational = v.dc1 * v.dc1 + v.dc2 * v.dc2 + (p.r * st * v.dtheta) ** 2
    rotational = 2.0 * relative_spin * relative_spin + v.dtheta * v.dtheta + (ct * v.dpsi) ** 2
    return (
        0.5 * p.m * translational
        + 0.125 * p.m * p.r * p.r * rotational
        - p.m * p.g * p.r * ct
    )
