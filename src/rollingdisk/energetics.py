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

with omega from kinematics.rotation_vector, and the Lagrangian is
L = E_kin - E_pot, evaluated from these definitions and never expanded.
Each function takes complex arguments too, for the complex-step oracle of
assembly: a complex angle takes cmath's sine and cosine, a real one math's.

kinetic_energy takes each 3-term dot product as the fma chain
fma(x2, y2, fma(x1, y1, x0*y0)) on its factors' real parts, so its bits are
fixed by that order and the platform's libm. A complex call takes its
imaginary part from the plain complex sums, before any scaling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fma import fma
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
    return p.m * p.g * p.r * (cmath if isinstance(q[3], complex) else math).cos(q[3])


def kinetic_energy(q, v, p: Params) -> float:
    """Rotational plus translational kinetic energy, built from definitions.

    Evaluates 1/2 omega . I omega + 1/2 m |dc/dt|^2 with omega from
    rotation_vector and dc/dt = (dc1, dc2, -r sin(theta) dtheta). Complex
    for complex arguments, as the products are never conjugated, with the
    real call's value as the real part.
    """
    w0, w1, w2 = rotation_vector(q[2:5], v[2:5])
    axial = 0.5 * p.m * p.r * p.r  # each transverse moment is half of it
    s0, s1, s2 = axial * w0, 0.5 * axial * w1, 0.5 * axial * w2  # I omega
    st = (cmath if isinstance(q[3], complex) else math).sin(q[3])
    dc0, dc1, dc2 = v[0], v[1], -p.r * st * v[3]
    rotational = fma(w2.real, s2.real, fma(w1.real, s1.real, w0.real * s0.real))
    translational = fma(dc2.real, dc2.real, fma(dc1.real, dc1.real, dc0.real * dc0.real))
    energy = 0.5 * rotational + 0.5 * p.m * translational
    if type(w0) is type(w1) is type(w2) is type(dc0) is type(dc1) is type(dc2) is float:
        return energy
    if not any(isinstance(x, complex) for x in (w0, w1, w2, dc0, dc1, dc2)):
        return energy  # ints or numpy floats
    # Imaginary parts before any scaling: 0.5 * complex(inf, y) would put inf * 0 = NaN in y.
    return complex(energy, 0.5 * (w0 * s0 + w1 * s1 + w2 * s2).imag
                   + 0.5 * p.m * (dc0 * dc0 + dc1 * dc1 + dc2 * dc2).imag)


def lagrangian(q, v, p: Params) -> float:
    """L = E_kin - E_pot, from the definitions of kinetic_energy and potential_energy.

    Parameters
    ----------
    q, v : sequences of the five coordinates and the five velocities
    p : Params
        q and v may hold complex numbers, as assembly.oracle_lhs passes them.

    Returns
    -------
    float, or complex for complex arguments
        Lagrangian value in joules.
    """
    return kinetic_energy(q, v, p) - potential_energy(q, p)
