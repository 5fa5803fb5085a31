import math
import struct

import numpy as np
import pytest

from rollingdisk.energetics import (
    Params,
    kinetic_energy,
    lagrangian,
    potential_energy,
)
from rollingdisk.fma import fma

P = Params()  # m=5, g=9.81, r=1


def random_sample(rng):
    q = (
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1.2, 1.2),
        rng.uniform(-math.pi, math.pi),
    )
    v = tuple(rng.uniform(-3.0, 3.0, size=5))
    return q, v


@pytest.mark.parametrize("bad", [dict(m=0.0), dict(m=-1.0), dict(g=0.0), dict(r=-0.5), dict(r=float("nan"))])
def test_params_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        Params(**bad)


def test_center_velocity_vertical_component():
    # The center sinks at r sin(theta) dtheta as the disk tilts; at phi = 0 the
    # stand rate turns about body axis 2 alone, with moment m r^2 / 4.
    q = (0.0, 0.0, 0.0, 0.4, 0.0)
    v = (1.0, 2.0, 0.0, 1.5, 0.0)
    translational = 0.5 * P.m * (1.0 + 4.0 + (P.r * math.sin(0.4) * 1.5) ** 2)
    rotational = 0.5 * (P.m * P.r**2 / 4.0) * 1.5**2
    assert kinetic_energy(q, v, P) == pytest.approx(translational + rotational, rel=1e-14)


def test_potential_energy_values():
    assert potential_energy((0, 0, 0, 0.0, 0), P) == pytest.approx(49.05, abs=1e-12)
    assert abs(potential_energy((0, 0, 0, math.pi / 2, 0), P)) < 1e-10


def test_kinetic_energy_pure_spin():
    # Upright disk spinning about its own axis: only the axial moment acts.
    q = (0, 0, 0.9, 0.0, -0.4)
    w = 2.2
    v = (0, 0, w, 0, 0)
    assert kinetic_energy(q, v, P) == pytest.approx(0.25 * P.m * P.r**2 * w**2, rel=1e-14)


def test_kinetic_energy_pure_translation():
    q = (0, 0, 0, 0.5, 1.0)
    v = (1.0, -2.0, 0, 0, 0)
    assert kinetic_energy(q, v, P) == pytest.approx(0.5 * P.m * 5.0, rel=1e-14)


def test_kinetic_energy_definite_on_sample_domain():
    rng = np.random.default_rng(21)
    for _ in range(500):
        q, v = random_sample(rng)
        assert kinetic_energy(q, v, P) > 0.0
    q, _ = random_sample(rng)
    assert kinetic_energy(q, (0, 0, 0, 0, 0), P) == 0.0


@pytest.mark.parametrize("kind", [float, int, np.float64])
def test_kinetic_energy_real_call_is_the_two_fma_chains(kind):
    # A real call, of floats, ints or numpy scalars, runs the fma chains on
    # the factors themselves and returns a float with their bits.
    p = Params(m=3.0, r=0.7)
    q = tuple(map(kind, (1, -2, 3, 1, 2)))
    v = tuple(map(kind, (2, -1, 3, -2, 1)))
    (dc1, dc2, dphi, dtheta, dpsi), r = v, p.r
    sf, cf, st, ct = math.sin(q[2]), math.cos(q[2]), math.sin(q[3]), math.cos(q[3])
    w0, w1, w2 = dphi - dpsi * st, dtheta * cf + dpsi * sf * ct, -dtheta * sf + dpsi * ct * cf
    axial = 0.5 * p.m * r * r
    s0, s1, s2 = axial * w0, 0.5 * axial * w1, 0.5 * axial * w2
    dc3 = -r * st * dtheta
    want = 0.5 * fma(w2, s2, fma(w1, s1, w0 * s0)) + 0.5 * p.m * fma(dc3, dc3, fma(dc2, dc2, dc1 * dc1))
    got = kinetic_energy(q, v, p)
    assert isinstance(got, float)
    assert struct.pack("d", got) == struct.pack("d", want)


def test_lagrangian_upright_spinning_value():
    q = (2.0, 0.0, 0.0, 0.1, 0.0)
    v = (0.0, 0.0, 2.5, 0.0, 0.0)
    expected = 0.125 * P.m * P.r**2 * 2.0 * 2.5**2 - P.m * P.g * P.r * math.cos(0.1)
    assert lagrangian(q, v, P) == pytest.approx(expected, abs=1e-12)

