"""Closed-form state equations of the rolling disk.

Eliminating the multipliers and the slaved center accelerations from the
augmented system leaves three angle equations driven only by (theta, rates):

    ddphi   = 2 dphi dtheta tan(theta) + (5/3) dtheta dpsi cos(theta)
    ddtheta = (4/(5r)) g sin(theta) - (6/5) dphi dpsi cos(theta)
              + (1/2) dpsi^2 sin(2 theta)
    ddpsi   = 2 dphi dtheta / cos(theta)

together with the reconstructed center rates from the contact conditions.
The center accelerations have a closed form as well, and the center rows of
the constrained equations give the contact reactions as lambda = m * ddc; both
are kept here so the elimination can be checked against the direct linear
solve: closed_form_solution returns all seven unknowns in the order of
assembly.solve_system.

Each cos(theta) here comes from singularity.checked_cos_theta, the one guard,
so in the flat-disk band every division by it (tan included) raises instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constraints import consistent_velocity
from .energetics import Params
from .singularity import checked_cos_theta


class State(NamedTuple):
    """Reduced simulation state: positions, angles, and angle rates.

    The center rates (dc1, dc2) are not part of the state; the rolling
    contact determines them from the angle rates at every instant.
    """

    c1: float
    c2: float
    phi: float
    theta: float
    psi: float
    dphi: float
    dtheta: float
    dpsi: float

    def coords(self) -> tuple[float, ...]:
        return self[:5]

    def rates(self) -> tuple[float, float, float]:
        return (self.dphi, self.dtheta, self.dpsi)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)

    @classmethod
    def from_iterable(cls, values) -> "State":
        return cls(*(float(x) for x in values))


def closed_form_accels(q, rates: tuple[float, float, float], p: Params) -> tuple[float, float, float]:
    """Angle accelerations (ddphi, ddtheta, ddpsi) in closed form.

    Raises SingularConfiguration when the disk is numerically horizontal.
    """
    dphi, dtheta, dpsi = rates
    ct = checked_cos_theta(q[3])
    st = math.sin(q[3])
    ddpsi = 2.0 * dphi * dtheta / ct
    ddphi = 2.0 * dphi * dtheta * (st / ct) + (5.0 / 3.0) * dtheta * dpsi * ct
    ddtheta = (
        (4.0 / 5.0) * (p.g / p.r) * st
        - (6.0 / 5.0) * dphi * dpsi * ct
        + dpsi * dpsi * st * ct
    )
    return ddphi, ddtheta, ddpsi


def closed_form_center_accels(q, rates: tuple[float, float, float], p: Params) -> tuple[float, float]:
    """Center accelerations (ddc1, ddc2) in closed form."""
    dphi, dtheta, dpsi = rates
    ct = checked_cos_theta(q[3])
    st = math.sin(q[3])
    sp, cp = math.sin(q[4]), math.cos(q[4])
    s2t = 2.0 * st * ct
    g, r = p.g, p.r
    common = (
        (2.0 / 5.0) * g * s2t
        - r * dtheta * dtheta * st
        + (6.0 / 5.0) * r * dphi * dpsi * st * st
        - (r / 5.0) * dphi * dpsi
        - r * dpsi * dpsi * st ** 3
    )
    swing = (r / 3.0) * dtheta * dpsi * ct
    ddc1 = common * cp - swing * sp
    ddc2 = common * sp + swing * cp
    return ddc1, ddc2


def closed_form_solution(q, rates: tuple[float, float, float], p: Params) -> tuple[float, ...]:
    """All seven eliminated unknowns, ordered like the linear solve.

    Returns (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi) as a tuple
    of seven floats. The center rows of the constrained equations read
    m * ddc = lambda, which gives the reactions.
    """
    ddc1, ddc2 = closed_form_center_accels(q, rates, p)
    return (p.m * ddc1, p.m * ddc2, ddc1, ddc2, *closed_form_accels(q, rates, p))


def state_derivative(x: State, p: Params) -> tuple[float, ...]:
    """Right-hand side of the reduced 8-dimensional state equation.

    x is a State or any sequence of its eight numbers in the same order; the
    derivative comes back as a plain 8-tuple in State's field order. Center
    rates come from the rolling contact, angle accelerations from the closed
    forms. Raises SingularConfiguration in the flat-disk band.
    """
    q, rates = x[:5], x[5:]
    accels = closed_form_accels(q, rates, p)
    v = consistent_velocity(q, rates, p)
    return (v[0], v[1], *rates, *accels)


def circular_spin(theta: float, dpsi: float, p: Params) -> float:
    """Spin rate that makes a tilted, turning disk trace a steady circle.

    Solves ddtheta = 0 at dtheta = 0 for dphi:

        dphi = 2 g tan(theta) / (3 r dpsi) + (5/6) dpsi sin(theta)

    Parameters
    ----------
    theta : float
        Constant stand angle of the steady motion.
    dpsi : float
        Heading rate; must be nonzero, otherwise no steady circle exists.
    p : Params

    Returns
    -------
    float
        The required spin rate dphi.
    """
    if dpsi == 0.0:
        raise ValueError("steady circular rolling needs a nonzero heading rate dpsi")
    ct = checked_cos_theta(theta)
    st = math.sin(theta)
    return 2.0 * p.g * (st / ct) / (3.0 * p.r * dpsi) + (5.0 / 6.0) * dpsi * st
