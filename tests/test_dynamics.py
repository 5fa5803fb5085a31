import math
import struct

import numpy as np
import pytest

from rollingdisk.assembly import solve_system
from rollingdisk.constraints import consistent_velocity
from rollingdisk.dynamics import (
    State,
    circular_spin,
    closed_form_accels,
    closed_form_solution,
    state_derivative,
)
from rollingdisk.energetics import GenCoords, Params, kinetic_energy, potential_energy
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import sample_state

P = Params()


def random_state(rng) -> State:
    return State(
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1.2, 1.2),
        rng.uniform(-math.pi, math.pi),
        *rng.uniform(-3.0, 3.0, 3),
    )


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def total_energy(x: State, p: Params) -> float:
    q = x.coords()
    v = consistent_velocity(q, x.rates(), p)
    return kinetic_energy(q, v, p) + potential_energy(q, p)


class TestClosedFormAccels:
    def test_matches_linear_solve(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            q, v = sample_state(rng)
            got = closed_form_accels(q, v.angular_rates(), P)
            want = solve_system(q, v, P)[4:7]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-10, abs=1e-11)

    def test_heading_coupling_identity(self):
        # ddpsi * cos(theta) must reproduce 2*dphi*dtheta at working precision
        rng = np.random.default_rng(62)
        for _ in range(1000):
            q, v = sample_state(rng)
            _, _, ddpsi = closed_form_accels(q, v.angular_rates(), P)
            lhs = ddpsi * math.cos(q.theta)
            rhs = 2.0 * v.dphi * v.dtheta
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_upright_rest_is_equilibrium(self):
        acc = closed_form_accels(GenCoords(0, 0, 0, 0.0, 0), (0.0, 0.0, 0.0), P)
        assert acc == (0.0, 0.0, 0.0)

    def test_flat_band_raises(self):
        for theta in (math.pi / 2, math.pi / 2 - 1e-9, -(math.pi / 2 - 1e-9)):
            with pytest.raises(SingularConfiguration) as info:
                closed_form_accels(GenCoords(0, 0, 0, theta, 0), (1.0, 1.0, 1.0), P)
            assert info.value.theta == theta


class TestClosedFormMultipliers:
    def test_rest_tilted_reference(self):
        lam = closed_form_solution(GenCoords(0, 0, 0, 0.3, 0.0), (0.0, 0.0, 0.0), P)[0:2]
        assert lam[0] == pytest.approx(P.m * 6.0 * P.g * math.sin(0.6) / 15.0, rel=1e-14)
        assert lam[1] == 0.0

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(64)
        for _ in range(300):
            q, v = sample_state(rng)
            lam = closed_form_solution(q, v.angular_rates(), P)[0:2]
            lam_solve = solve_system(q, v, P)[0:2]
            assert lam[0] == pytest.approx(lam_solve[0], rel=1e-10, abs=1e-11)
            assert lam[1] == pytest.approx(lam_solve[1], rel=1e-10, abs=1e-11)


class TestStateDerivative:
    def test_reference_start(self):
        x = State(2.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0)
        dx = state_derivative(x, P)
        assert dx.dc1 == 0.0
        assert dx.dc2 == -2.5
        assert dx.ddphi == 0.0
        assert dx.ddpsi == 0.0
        assert dx.ddtheta == pytest.approx(0.8 * P.g * math.sin(0.1), rel=1e-14)

    def test_center_rates_come_from_contact(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            x = random_state(rng)
            dx = state_derivative(x, P)
            v = consistent_velocity(x.coords(), x.rates(), P)
            assert dx.dc1 == v.dc1
            assert dx.dc2 == v.dc2
            assert (dx.dphi, dx.dtheta, dx.dpsi) == x.rates()

    def test_flat_band_raises(self):
        for theta in (math.pi / 2 - 1e-6, -(math.pi / 2 - 1e-6), math.pi / 2 - 1e-9):
            x = State(0, 0, 0, theta, 0, 1.0, 1.0, 1.0)
            with pytest.raises(SingularConfiguration):
                state_derivative(x, P)

    def test_plain_sequences_give_the_same_bits(self):
        # The inner RK4 stages are plain lists, not State/GenCoords.
        rng = np.random.default_rng(68)
        for _ in range(50):
            x = random_state(rng)
            q, rates = x.coords(), x.rates()
            for seq in (tuple(x), list(x)):
                assert bits(state_derivative(seq, P)) == bits(state_derivative(x, P))
            for qs, rs in ((tuple(q), tuple(rates)), (list(q), list(rates))):
                assert bits(closed_form_accels(qs, rs, P)) == bits(closed_form_accels(q, rates, P))
                assert bits(consistent_velocity(qs, rs, P)) == bits(consistent_velocity(q, rates, P))

    def test_energy_is_flat_along_the_field(self):
        # directional derivative of the total energy along the state equation
        rng = np.random.default_rng(66)
        h = 1e-5
        worst = 0.0
        for _ in range(200):
            x = random_state(rng)
            f = state_derivative(x, P)
            ahead = State.from_iterable(xi + h * fi for xi, fi in zip(x, f))
            behind = State.from_iterable(xi - h * fi for xi, fi in zip(x, f))
            rate = (total_energy(ahead, P) - total_energy(behind, P)) / (2.0 * h)
            worst = max(worst, abs(rate))
        assert worst < 1e-6, f"energy rate along the field: {worst:.3e}"


class TestCircularSpin:
    def test_reference_value(self):
        expected = (2.0 / 3.0) * P.g * math.tan(0.5) + (5.0 / 6.0) * math.sin(0.5)
        assert circular_spin(0.5, 1.0, P) == pytest.approx(expected, rel=1e-15)
        assert circular_spin(0.5, 1.0, P) == pytest.approx(3.972339565748559, abs=1e-12)

    def test_balances_stand_acceleration(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            theta = rng.uniform(-1.2, 1.2)
            dpsi = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            dphi = circular_spin(theta, dpsi, P)
            q = GenCoords(0, 0, 0, theta, 0)
            _, ddtheta, _ = closed_form_accels(q, (dphi, 0.0, dpsi), P)
            assert abs(ddtheta) < 1e-12, f"ddtheta={ddtheta:.3e} at theta={theta}, dpsi={dpsi}"

    def test_rejects_zero_heading_rate(self):
        with pytest.raises(ValueError, match="heading rate"):
            circular_spin(0.5, 0.0, P)

    def test_flat_band_raises(self):
        with pytest.raises(SingularConfiguration):
            circular_spin(math.pi / 2 - 1e-9, 1.0, P)
