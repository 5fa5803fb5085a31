"""Energies and the Lagrangian of the rolling disk, from their definitions.

Every function takes q = (c1, c2, phi, theta, psi), the center's position
over the plane, spin, stand angle and heading, and v = (dc1, dc2, dphi,
dtheta, dpsi), as plain sequences of five numbers. While the rim touches
the plane the center is c = (c1, c2, r cos(theta)); the principal inertia
is diag(m r^2/2, m r^2/4, m r^2/4), axial moment first. L is never
expanded, as assembly's oracle differentiates it to check the closed forms.
Each function takes complex arguments too, for that oracle: a complex angle
takes cmath's sine and cosine, a real one math's, so a real call keeps its
bits.
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
    """1/2 omega . I omega + 1/2 m |dc/dt|^2, with omega from rotation_vector
    and dc/dt = (dc1, dc2, -r sin(theta) dtheta).

    Each dot product is the fma chain fma(x2, y2, fma(x1, y1, x0*y0)) on its
    factors' real parts, so its bits are fixed by that order and libm, and a
    complex call's real part is the real call's value. The imaginary part
    comes from the plain complex sums, never conjugated, taken before the
    factors 1/2 and m.
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
    """L = kinetic_energy - potential_energy in joules; complex for complex
    arguments, as assembly's oracle passes them."""
    return kinetic_energy(q, v, p) - potential_energy(q, p)
