import math

import numpy as np
import pytest

from rollingdisk.assembly import (
    GenAccel,
    assemble_system,
    constraint_accel_rows,
    euler_lagrange_lhs,
    generalized_mass,
    oracle_lhs,
    solve_oracle_system,
    solve_system,
)
from rollingdisk.assembly import _coordinate_gradient, _velocity_gradient
from rollingdisk.constraints import constraint_matrix
from rollingdisk.energetics import GenCoords, GenVel, Params
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import closed_form_seven, max_rel_diff, sample_state, solve_seven

P = Params()
REST = GenVel(0, 0, 0, 0, 0)


def random_triple(rng):
    q = GenCoords(*rng.uniform(-3.0, 3.0, 5))
    v = GenVel(*rng.uniform(-3.0, 3.0, 5))
    a = GenAccel(*rng.uniform(-3.0, 3.0, 5))
    return q, v, a


class TestEulerLagrangeLhs:
    def test_rest_gives_gravity_torque_only(self):
        q = GenCoords(1.0, -1.0, 0.4, 0.0, 2.0)
        zero_v, zero_a = GenVel(0, 0, 0, 0, 0), GenAccel(0, 0, 0, 0, 0)
        assert np.array_equal(euler_lagrange_lhs(q, zero_v, zero_a, P), np.zeros(5))
        tilted = GenCoords(0.0, 0.0, 0.0, 0.3, 0.0)
        lhs = euler_lagrange_lhs(tilted, zero_v, zero_a, P)
        # at rest only the stand-angle row is loaded, by gravity
        assert lhs[3] == pytest.approx(-P.m * P.g * P.r * math.sin(0.3), rel=1e-14)
        assert np.array_equal(lhs[[0, 1, 2, 4]], np.zeros(4))

    def test_unit_center_acceleration(self):
        q = GenCoords(0.4, -0.2, 1.0, 0.0, -2.0)
        lhs = euler_lagrange_lhs(q, GenVel(0, 0, 0, 0, 0), GenAccel(1, 0, 0, 0, 0), P)
        assert np.allclose(lhs, [P.m, 0, 0, 0, 0], atol=1e-15)

    def test_matches_finite_difference_rebuild(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(300):
            q, v, a = random_triple(rng)
            err = max_rel_diff(oracle_lhs(q, v, a, P), euler_lagrange_lhs(q, v, a, P))
            worst = max(worst, err)
        assert worst < 1e-5, f"closed form vs differenced Lagrangian: {worst:.3e}"

    def test_mass_is_velocity_hessian_of_lagrangian(self):
        # L is quadratic in the velocities, so unit steps of the differenced
        # momentum dL/dqdot give the columns of G(q) up to roundoff.
        rng = np.random.default_rng(40)
        for _ in range(100):
            q, v, _ = random_triple(rng)
            qa, va = q.as_array(), v.as_array()
            base = _velocity_gradient(qa, va, P, 1.0)
            probed = np.column_stack(
                [_velocity_gradient(qa, va + e, P, 1.0) - base for e in np.eye(5)]
            )
            G = generalized_mass(q, P)
            assert np.array_equal(G, G.T)
            assert np.max(np.abs(probed - G)) < 1e-12


class TestOracleInternals:
    # The differenced pieces are checked against derivative expressions
    # derived by hand, independently of the production left side.

    def test_velocity_gradient(self):
        rng = np.random.default_rng(42)
        m, r = P.m, P.r
        for _ in range(50):
            q, v, _ = random_triple(rng)
            st, ct = math.sin(q.theta), math.cos(q.theta)
            expected = np.array(
                [
                    m * v.dc1,
                    m * v.dc2,
                    0.5 * m * r * r * (v.dphi - st * v.dpsi),
                    m * r * r * v.dtheta * (st * st + 0.25),
                    0.25 * m * r * r * (-2.0 * st * v.dphi + (1.0 + st * st) * v.dpsi),
                ]
            )
            got = _velocity_gradient(q.as_array(), v.as_array(), P, 1e-3)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_coordinate_gradient(self):
        rng = np.random.default_rng(43)
        m, g, r = P.m, P.g, P.r
        for _ in range(50):
            q, v, _ = random_triple(rng)
            st, ct = math.sin(q.theta), math.cos(q.theta)
            s2t = math.sin(2.0 * q.theta)
            dL_dtheta = (
                0.5 * m * r * r * v.dtheta**2 * s2t
                - 0.5 * m * r * r * v.dphi * v.dpsi * ct
                + 0.125 * m * r * r * v.dpsi**2 * s2t
                + m * g * r * st
            )
            expected = np.array([0.0, 0.0, 0.0, dL_dtheta, 0.0])
            got = _coordinate_gradient(q.as_array(), v.as_array(), P, 1e-6)
            assert np.max(np.abs(got - expected)) < 1e-6

    def test_momentum_rate_along_synthetic_path(self):
        # d/dt of the velocity gradient along q(s) = q + s v, v(s) = v + s a
        # must match the hand derivative of the momentum expressions.
        rng = np.random.default_rng(44)
        m, r = P.m, P.r
        h_t, h_v = 1e-5, 1e-3
        for _ in range(50):
            q, v, a = random_triple(rng)
            qa, va, aa = q.as_array(), v.as_array(), a.as_array()
            ahead = _velocity_gradient(qa + h_t * va, va + h_t * aa, P, h_v)
            behind = _velocity_gradient(qa - h_t * va, va - h_t * aa, P, h_v)
            got = (ahead - behind) / (2.0 * h_t)
            st, ct = math.sin(q.theta), math.cos(q.theta)
            s2t = math.sin(2.0 * q.theta)
            expected = np.array(
                [
                    m * a.ddc1,
                    m * a.ddc2,
                    0.5 * m * r * r * (a.ddphi - st * a.ddpsi - v.dtheta * v.dpsi * ct),
                    m * r * r * (a.ddtheta * (st * st + 0.25) + v.dtheta**2 * s2t),
                    0.25
                    * m
                    * r
                    * r
                    * (
                        -2.0 * st * a.ddphi
                        + (1.0 + st * st) * a.ddpsi
                        - 2.0 * v.dtheta * v.dphi * ct
                        + v.dtheta * v.dpsi * s2t
                    ),
                ]
            )
            assert np.max(np.abs(got - expected)) < 1e-5


def test_constraint_accel_rows_match_matrix_and_rhs():
    rng = np.random.default_rng(45)
    for _ in range(200):
        q, v = sample_state(rng)
        A, resid = constraint_accel_rows(q, v, P)
        assert np.array_equal(A, constraint_matrix(q, P))
        # the drift term is the sign-flipped top of the right-hand side
        assert np.allclose(resid, -assemble_system(q, v, P).b[0:2], atol=1e-14)


class TestMassMatrix:
    def test_reference_entries_upright(self):
        M = assemble_system(GenCoords(0, 0, 0, 0.0, 0.0), REST, P).M
        assert M[4, 4] == 2.5
        assert M[5, 5] == 1.25
        assert M[6, 6] == 1.25
        assert M[4, 6] == 0.0
        # contraction rows carry the constraint matrix
        assert np.array_equal(M[0:2, 2:7], constraint_matrix(GenCoords(0, 0, 0, 0.0, 0.0), P))

    def test_independent_of_velocity_bit_for_bit(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            q, v1 = sample_state(rng)
            _, v2 = sample_state(rng)
            s1 = assemble_system(q, v1, P)
            s2 = assemble_system(q, v2, P)
            assert np.array_equal(s1.M, s2.M)

    def test_invertible_away_from_flat(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 10_000:
            q, _ = sample_state(rng)
            if abs(math.cos(q.theta)) < 0.1:
                continue
            checked += 1
            assert np.linalg.det(assemble_system(q, REST, P).M) != 0.0

    @pytest.mark.parametrize("m, r", [(5.0, 1.0), (2.0, 0.37), (100.0, 0.01), (0.01, 100.0)])
    def test_determinant_is_cos_squared_theta(self, m, r):
        # det M = (15/32) m^3 r^6 cos^2(theta): the cos(theta) band is the
        # exact rank test, so the solve needs no pivot check of its own.
        p = Params(m=m, r=r)
        rng = np.random.default_rng(51)
        expected = 15.0 / 32.0 * m**3 * r**6
        for _ in range(200):
            q, v, _ = random_triple(rng)
            det = np.linalg.det(assemble_system(q, v, p).M) / math.cos(q.theta) ** 2
            assert det == pytest.approx(expected, rel=1e-8)

    def test_factor_solve_round_trip(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            q, _ = sample_state(rng)
            M = assemble_system(q, REST, P).M
            x0 = rng.uniform(-1.0, 1.0, 7)
            x = np.linalg.solve(M, M @ x0)
            assert np.max(np.abs(x - x0)) < 1e-10


class TestRhsVector:
    def test_zero_at_upright_rest(self):
        b = assemble_system(GenCoords(0, 0, 0, 0.0, 0.0), REST, P).b
        assert np.array_equal(b, np.zeros(7))

    def test_rest_tilted_loads_only_stand_row(self):
        b = assemble_system(GenCoords(0, 0, 0, 0.1, 0.0), REST, P).b
        assert b[5] == pytest.approx(P.m * P.g * P.r * math.sin(0.1), rel=1e-14)
        mask = np.ones(7, dtype=bool)
        mask[5] = False
        assert np.array_equal(b[mask], np.zeros(6))


class TestSolveSystem:
    def test_reference_start(self):
        q = GenCoords(2.0, 0.0, 0.0, 0.1, 0.0)
        v = GenVel(0.0, -2.5, 2.5, 0.0, 0.0)
        lam, acc = solve_system(q, v, P)
        assert acc.ddtheta == pytest.approx(0.8 * P.g * math.sin(0.1), rel=1e-12)
        assert abs(acc.ddphi) < 1e-14
        assert abs(acc.ddpsi) < 1e-14

    def test_flat_start_constant_turn(self):
        # Upright disk with spin and heading rate: the only surviving
        # couplings are the stand acceleration and the contact reactions.
        q = GenCoords(0.0, 0.0, 0.0, 0.0, 0.0)
        v = GenVel(0.0, -2.5, 2.5, 0.0, 1.0)
        _, acc = solve_system(q, v, P)
        assert acc.ddphi == pytest.approx(0.0, abs=1e-14)
        assert acc.ddpsi == pytest.approx(0.0, abs=1e-14)
        assert acc.ddtheta == pytest.approx(-1.2 * 2.5 * 1.0, rel=1e-12)

    def test_residual_of_solution(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            q, v = sample_state(rng)
            system = assemble_system(q, v, P)
            lam, acc = solve_system(q, v, P)
            x = np.array([lam.lambda1, lam.lambda2, *acc.as_array()])
            resid = float(np.max(np.abs(system.M @ x - system.b)))
            bound = 1e-9 * (1.0 + float(np.max(np.abs(system.b))))
            assert resid < bound, f"|Mx-b| = {resid:.3e} exceeds {bound:.3e}"

    def test_raises_in_flat_band(self):
        v = GenVel(0, 0, 1, 1, 1)
        for theta in (math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9):
            with pytest.raises(SingularConfiguration):
                solve_system(GenCoords(0, 0, 0, theta, 0), v, P)

    def test_just_outside_band_solves(self):
        theta = math.pi / 2 - 1e-4
        lam, acc = solve_system(GenCoords(0, 0, 0, theta, 0), GenVel(0, 0, 1, 1, 1), P)
        assert all(map(math.isfinite, acc.as_array()))

    def test_heavy_small_disk_solves_next_to_band(self):
        # |cos theta| = 5e-5 is outside the 1e-6 band; a heavy, small disk
        # scales M so that a pivot test relative to ||M|| would reject it.
        p = Params(m=100.0, r=0.01)
        rng = np.random.default_rng(52)
        theta = math.acos(5e-5)
        for sign in (1.0, -1.0):
            for _ in range(20):
                q, v = sample_state(rng)
                q = GenCoords(q.c1, q.c2, q.phi, sign * theta, q.psi)
                closed = closed_form_seven(q, v.angular_rates(), p)
                assert max_rel_diff(solve_seven(q, v, p), closed) < 1e-4


def test_exactly_singular_solve_reports_measured_cos_theta(monkeypatch):
    # The oracle's differenced matrix can be exactly singular just outside
    # the band; the error then reports |cos theta| and the cutoff without
    # claiming that one lies below the other.
    def singular(M, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    theta = math.acos(4.722e-6)
    with pytest.raises(SingularConfiguration) as info:
        solve_system(GenCoords(0, 0, 0, theta, 0), GenVel(0, 0, 1, 1, 1), P)
    message = str(info.value)
    assert "|cos theta|=4.722e-06" in message
    assert "cutoff 1e-06" in message
    assert "<=" not in message


def test_oracle_assembled_system_agrees_with_direct_solve():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        q, v = sample_state(rng)
        lam_d, acc_d = solve_system(q, v, P)
        lam_o, acc_o = solve_oracle_system(q, v, P)
        direct = np.array([lam_d.lambda1, lam_d.lambda2, *acc_d.as_array()])
        rebuilt = np.array([lam_o.lambda1, lam_o.lambda2, *acc_o.as_array()])
        worst = max(worst, max_rel_diff(rebuilt, direct))
    assert worst < 1e-5, f"fd-assembled vs closed-form system: {worst:.3e}"
