import math
import warnings

import numpy as np
import pytest

from rollingdisk import dynamics
from rollingdisk.assembly import (
    _drift_entries,
    _force_entries,
    _mass_entries,
    assemble_system,
    oracle_lhs,
    oracle_system,
    solve_oracle_system,
    solve_system,
)
from rollingdisk.constraints import constraint_matrix
from rollingdisk.dynamics import State
from rollingdisk.energetics import GenCoords, GenVel, Params
from rollingdisk.simulator import NON_FINITE, ScenarioConfig, integrate_10dim
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import closed_form_seven, max_rel_diff, sample_state, solve_seven, validation_sweep

P = Params()
# The disk whose system assemble_system and oracle_system build for P.
UNIT = Params(m=1.0, g=P.g / P.r, r=1.0)
REST = GenVel(0, 0, 0, 0, 0)


def scaled_back(y, p):
    """The disk p's (lambda, ddc, angle accelerations) from the unit disk's solution y."""
    y = np.asarray(y).tolist()
    return np.array([p.m * p.r * y[0], p.m * p.r * y[1], p.r * y[2], p.r * y[3], *y[4:]])


def random_triple(rng):
    q = GenCoords(*rng.uniform(-3.0, 3.0, 5))
    v = GenVel(*rng.uniform(-3.0, 3.0, 5))
    a = rng.uniform(-3.0, 3.0, 5)
    return q, v, a


def closed_lhs(q, v, a):
    """The unit disk's closed-form left side G(q) a - f(q, v), read from assemble_system."""
    M, b = assemble_system(q, v, P)
    return M[2:7, 2:7] @ np.asarray(a, dtype=float) - b[2:7]


class TestEulerLagrangeLhs:
    def test_rest_gives_gravity_torque_only(self):
        q = GenCoords(1.0, -1.0, 0.4, 0.0, 2.0)
        zero_v, zero_a = GenVel(0, 0, 0, 0, 0), (0, 0, 0, 0, 0)
        assert np.array_equal(closed_lhs(q, zero_v, zero_a), np.zeros(5))
        tilted = GenCoords(0.0, 0.0, 0.0, 0.3, 0.0)
        lhs = closed_lhs(tilted, zero_v, zero_a)
        # at rest only the stand-angle row is loaded, by gravity g/r
        assert lhs[3] == pytest.approx(-P.g / P.r * math.sin(0.3), rel=1e-14)
        assert np.array_equal(lhs[[0, 1, 2, 4]], np.zeros(4))

    def test_unit_center_acceleration(self):
        q = GenCoords(0.4, -0.2, 1.0, 0.0, -2.0)
        lhs = closed_lhs(q, GenVel(0, 0, 0, 0, 0), (1, 0, 0, 0, 0))
        assert np.allclose(lhs, [1.0, 0, 0, 0, 0], atol=1e-15)

    def test_matches_complex_step_rebuild(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(300):
            q, v, a = random_triple(rng)
            err = max_rel_diff(oracle_lhs(q, v, a, UNIT), closed_lhs(q, v, a))
            worst = max(worst, err)
        assert worst < 1e-12, f"closed form vs complex-step Lagrangian: {worst:.3e}"

    def test_mass_is_velocity_hessian_of_lagrangian(self):
        # L is quadratic in the velocities, so the entries the oracle reads
        # from L at rest give G(q), symmetric, up to roundoff.
        rng = np.random.default_rng(40)
        for _ in range(100):
            q, v, _ = random_triple(rng)
            G = assemble_system(q, v, P)[0][2:7, 2:7]
            assert np.array_equal(G, G.T)
            assert np.max(np.abs(oracle_system(q, v, P)[0][2:7, 2:7] - G)) < 1e-12


@pytest.mark.parametrize("m, r", [(5.0, 1.0), (100.0, 0.01), (0.01, 100.0), (5.0, 0.001), (5.0, 1000.0), (0.001, 1e-4)])
def test_oracle_system_is_the_closed_form_system_to_roundoff(m, r):
    # Each block against its own scale: both systems are the unit disk's, so
    # G's entries stay below 2 at every (m, r) while b holds g/r, about 1e5
    # at r = 1e-4.
    p = Params(m=m, r=r)
    rng = np.random.default_rng(57)
    for _ in range(100):
        q, v = sample_state(rng)
        (got_M, got_b), (want_M, want_b) = oracle_system(q, v, p), assemble_system(q, v, p)
        for got, want in ((got_M[0:2], want_M[0:2]), (got_M[2:7, 2:7], want_M[2:7, 2:7]), (got_b, want_b)):
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), (q, v)


def drift(q, v):
    return np.array(_drift_entries(math.sin(q[3]), math.cos(q[3]), math.sin(q[4]), math.cos(q[4]), v))


def test_contact_rows_match_matrix_and_drift():
    rng = np.random.default_rng(45)
    p = Params(m=2.0, r=0.37)
    for _ in range(200):
        q, v = sample_state(rng)
        # both systems carry the unit disk's A on top, and its drift
        # sign-flipped at the top of b
        for M, b in (assemble_system(q, v, p), oracle_system(q, v, p)):
            assert np.array_equal(M[0:2, 2:7], constraint_matrix(q, UNIT))
            assert np.array_equal(b[0:2], -drift(q, v))


class TestMassMatrix:
    def test_reference_entries_upright(self):
        M, _ = assemble_system(GenCoords(0, 0, 0, 0.0, 0.0), REST, P)
        assert M[4, 4] == 0.5
        assert M[5, 5] == 0.25
        assert M[6, 6] == 0.25
        assert M[4, 6] == 0.0
        # contraction rows carry the unit disk's constraint matrix
        assert np.array_equal(M[0:2, 2:7], constraint_matrix(GenCoords(0, 0, 0, 0.0, 0.0), UNIT))

    def test_independent_of_velocity_bit_for_bit(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            q, v1 = sample_state(rng)
            _, v2 = sample_state(rng)
            M1, _ = assemble_system(q, v1, P)
            M2, _ = assemble_system(q, v2, P)
            assert np.array_equal(M1, M2)

    def test_invertible_away_from_flat(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 10_000:
            q, _ = sample_state(rng)
            if abs(math.cos(q.theta)) < 0.1:
                continue
            checked += 1
            assert np.linalg.det(assemble_system(q, REST, P)[0]) != 0.0

    @pytest.mark.parametrize("m, r", [(5.0, 1.0), (2.0, 0.37), (100.0, 0.01), (0.01, 100.0)])
    def test_determinant_is_cos_squared_theta(self, m, r):
        # det M = (15/32) cos^2(theta) on the unit disk, whatever m and r:
        # the cos(theta) band is the exact rank test, so the solve needs no
        # pivot check of its own.
        p = Params(m=m, r=r)
        rng = np.random.default_rng(51)
        for _ in range(200):
            q, v, _ = random_triple(rng)
            det = np.linalg.det(assemble_system(q, v, p)[0]) / math.cos(q.theta) ** 2
            assert det == pytest.approx(15.0 / 32.0, rel=1e-8)

    def test_factor_solve_round_trip(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            q, _ = sample_state(rng)
            M, _ = assemble_system(q, REST, P)
            x0 = rng.uniform(-1.0, 1.0, 7)
            x = np.linalg.solve(M, M @ x0)
            assert np.max(np.abs(x - x0)) < 1e-10


class TestRhsVector:
    def test_zero_at_upright_rest(self):
        _, b = assemble_system(GenCoords(0, 0, 0, 0.0, 0.0), REST, P)
        assert np.array_equal(b, np.zeros(7))

    def test_rest_tilted_loads_only_stand_row(self):
        _, b = assemble_system(GenCoords(0, 0, 0, 0.1, 0.0), REST, P)
        assert b[5] == pytest.approx(P.g / P.r * math.sin(0.1), rel=1e-14)
        mask = np.ones(7, dtype=bool)
        mask[5] = False
        assert np.array_equal(b[mask], np.zeros(6))


class TestSolveSystem:
    def test_reference_start(self):
        q = GenCoords(2.0, 0.0, 0.0, 0.1, 0.0)
        v = GenVel(0.0, -2.5, 2.5, 0.0, 0.0)
        ddphi, ddtheta, ddpsi = solve_system(q, v, P)[4:7]
        assert ddtheta == pytest.approx(0.8 * P.g * math.sin(0.1), rel=1e-12)
        assert abs(ddphi) < 1e-14
        assert abs(ddpsi) < 1e-14

    def test_flat_start_constant_turn(self):
        # Upright disk with spin and heading rate: the only surviving
        # couplings are the stand acceleration and the contact reactions.
        q = GenCoords(0.0, 0.0, 0.0, 0.0, 0.0)
        v = GenVel(0.0, -2.5, 2.5, 0.0, 1.0)
        ddphi, ddtheta, ddpsi = solve_system(q, v, P)[4:7]
        assert ddphi == pytest.approx(0.0, abs=1e-14)
        assert ddpsi == pytest.approx(0.0, abs=1e-14)
        assert ddtheta == pytest.approx(-1.2 * 2.5 * 1.0, rel=1e-12)

    def test_residual_of_solution(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            q, v = sample_state(rng)
            M, b = assemble_system(q, v, P)
            y = solve_system(q, v, P) / scaled_back(np.ones(7), P)  # back on the unit disk
            resid = float(np.max(np.abs(M @ y - b)))
            bound = 1e-9 * (1.0 + float(np.max(np.abs(b))))
            assert resid < bound, f"|Mx-b| = {resid:.3e} exceeds {bound:.3e}"

    def test_raises_in_flat_band(self):
        v = GenVel(0, 0, 1, 1, 1)
        for theta in (math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9):
            with pytest.raises(SingularConfiguration):
                solve_system(GenCoords(0, 0, 0, theta, 0), v, P)

    def test_just_outside_band_solves(self):
        theta = math.pi / 2 - 1e-4
        x = solve_system(GenCoords(0, 0, 0, theta, 0), GenVel(0, 0, 1, 1, 1), P)
        assert all(map(math.isfinite, x[2:7]))

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
                closed = closed_form_seven(q, v[2:5], p)
                assert max_rel_diff(solve_seven(q, v, p), closed) < 1e-4


def test_tiny_and_light_disks_solve_next_to_band():
    # m r^2 underflows to zero here, which once made M exactly singular; the
    # unit disk's M is not, so both routes solve, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (Params(r=1e-170), Params(m=1e-200, r=1e-100)):
            for theta in (math.acos(4.722e-6), 0.5):
                q, v = GenCoords(0, 0, 0, theta, 0), GenVel(0, 0, 1, 1, 1)
                closed = closed_form_seven(q, v[2:5], p)
                assert max_rel_diff(solve_seven(q, v, p), closed) < 1e-12
                assert max_rel_diff(solve_oracle_system(q, v, p), closed) < 1e-12


def _direct_solve_states(rng):
    """(q, v, p) on random states: random (m, r), theta of both signs, the two
    states at theta = +-acos(5e-6), the heavy small disk and extreme disks."""
    cases = []
    for _ in range(2000):
        q, v = sample_state(rng)
        m, r = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        cases.append((q, v, Params(m=m, r=r)))
    q, v = sample_state(rng)
    for sign in (1.0, -1.0):
        edge = GenCoords(q.c1, q.c2, q.phi, sign * math.acos(5e-6), q.psi)
        cases.append((edge, v, P))
        for p in (Params(m=100.0, r=0.01), *(Params(m=m, r=r) for m in (1e-100, 1e100) for r in (1e-100, 1e100))):
            cases.append((edge, v, p))
            cases.append((q, v, p))
    return cases


def test_direct_solve_gives_the_bits_of_numpy_solve():
    cases = _direct_solve_states(np.random.default_rng(55))
    assert min(q.theta for q, _, _ in cases) < 0.0 < max(q.theta for q, _, _ in cases)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, v, p in cases:
            x = solve_system(q, v, p)
            assert x.tobytes() == scaled_back(np.linalg.solve(*assemble_system(q, v, p)), p).tobytes(), (q, v, p)


def test_failed_solves_raise_without_warnings():
    # The guard keeps LAPACK away from a non-finite theta or psi, so the
    # errors come from the guard and no numpy warning precedes them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite") as info:
            solve_system(GenCoords(0, 0, 0, math.nan, 0), GenVel(0, 0, 1, 0, 0), P)
        assert not isinstance(info.value, SingularConfiguration)
        with pytest.raises(ValueError, match="non-finite"):
            solve_system(GenCoords(0, 0, 0, 0.1, math.nan), GenVel(0, 0, 1, 0, 0), P)
        x0 = State(2.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 1e100)
        traj = integrate_10dim(ScenarioConfig("huge", P, x0, t_end=0.01, dt=1e-3))
    assert traj.failure_reason == NON_FINITE == "non-finite state"
    assert traj.samples[-1].t == 0.0


def test_oracle_assembled_system_agrees_with_direct_solve():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        q, v = sample_state(rng)
        direct = solve_system(q, v, P)
        rebuilt = solve_oracle_system(q, v, P)
        worst = max(worst, max_rel_diff(rebuilt, direct))
    assert worst < 1e-8, f"oracle-assembled vs closed-form system: {worst:.3e}"


@pytest.mark.parametrize("p", [Params(r=1e6), Params(m=1e16)], ids=["r1e6", "m1e16"])
def test_validation_sweep_passes_beyond_the_measured_range(p):
    # The oracle read 6.5e-4 at r = 1e6 and 0.64 at m = 1e16 on these 25
    # samples while M carried m and r, and G was probed along the real rates.
    report = validation_sweep(p, 25, 42)
    assert report.passed, report.worst


def test_validation_sweep_is_the_same_at_every_mass():
    # The sweep runs on the unit disk of p, which has no m.
    reports = [validation_sweep(Params(m=m), 25, 42) for m in (1e-3, 5.0, 1e16)]
    assert reports[0] == reports[1] == reports[2]


def test_validation_sweep_sees_an_angle_fault_at_any_mass(monkeypatch):
    # Compared in disk units, lambda = m ddc set the normwise scale: at
    # m = 1e16 this 1000 rad/s^2 error in ddtheta read 5.3e-12 and passed.
    true_accels = dynamics.closed_form_accels

    def warped(q, rates, p):
        ddphi, ddtheta, ddpsi = true_accels(q, rates, p)
        return ddphi, ddtheta + 1e3, ddpsi

    monkeypatch.setattr(dynamics, "closed_form_accels", warped)
    report = validation_sweep(Params(m=1e16), 25, 42)
    assert not report.passed
    assert all(err > 1e-3 for err, _ in report.worst.values()), report.worst


def test_non_finite_system_raises_value_error_not_singular():
    # A NaN stand angle is no flat disk: the failed solve reports the NaN.
    q = GenCoords(0, 0, 0, math.nan, 0)
    for solve in (solve_system, solve_oracle_system):
        with pytest.raises(ValueError, match="non-finite") as info:
            solve(q, GenVel(0, 0, 1, 0, 0), P)
        assert not isinstance(info.value, SingularConfiguration)


def test_assembled_system_is_the_frozen_block_layout():
    # Byte equality, signed zeros included, against the documented blocks of
    # the unit disk, on random states with theta of both signs and two just
    # outside the band, at several (m, r): M is filled into a template built
    # once at import, and it is the same M at every (m, r).
    rng = np.random.default_rng(53)
    states = [sample_state(rng) for _ in range(200)]
    for sign, (q, v) in zip((1.0, -1.0), states[-2:]):
        states.append((GenCoords(q.c1, q.c2, q.phi, sign * math.acos(5e-6), q.psi), v))
    assert min(q.theta for q, _ in states) < 0.0 < max(q.theta for q, _ in states)
    for p in (P, Params(m=100.0, r=0.01), Params(m=0.01, r=100.0), Params(m=2.0, r=0.37)):
        for q, v in states:
            A, resid = constraint_matrix(q, UNIT), drift(q, v)
            want_M = np.zeros((7, 7))
            want_M[0:2, 2:7] = A
            want_M[2:7, 0:2] = -A.T
            st, ct, s2t = math.sin(q.theta), math.cos(q.theta), math.sin(2.0 * q.theta)
            want_M[2:7, 2:7] = np.reshape(_mass_entries(st), (5, 5))
            want_b = np.concatenate([-resid, _force_entries(p.g / p.r, st, ct, s2t, v)])
            M, b = assemble_system(q, v, p)
            assert M.shape == (7, 7) and b.shape == (7,)
            assert M.tobytes() == want_M.tobytes(), p
            assert b.tobytes() == want_b.tobytes(), p
            oracle_M, oracle_b = oracle_system(q, v, p)
            assert oracle_M[0:2].tobytes() == M[0:2].tobytes()
            assert oracle_M[2:7, 0:2].tobytes() == M[2:7, 0:2].tobytes()
            assert oracle_b[0:2].tobytes() == b[0:2].tobytes()


def test_each_assembly_returns_fresh_arrays():
    q, v = sample_state(np.random.default_rng(56))
    first = assemble_system(q, v, P)
    want = [part.tobytes() for part in first]
    second = assemble_system(q, v, P)
    assert not any(np.shares_memory(x, y) for x in first for y in second)
    for part in first:
        part.fill(np.nan)
    assert [part.tobytes() for part in assemble_system(q, v, P)] == want


def test_plain_sequences_give_the_same_bits():
    # The unreduced route hands solve_system list slices, not GenCoords/GenVel.
    rng = np.random.default_rng(54)
    for _ in range(50):
        q, v = sample_state(rng)
        qs, vs = list(q), list(v)
        assert solve_system(qs, vs, P).tobytes() == solve_system(q, v, P).tobytes()
        assert solve_oracle_system(qs, vs, P).tobytes() == solve_oracle_system(q, v, P).tobytes()
        for got, want in zip(assemble_system(qs, vs, P), assemble_system(q, v, P)):
            assert got.tobytes() == want.tobytes()
        assert constraint_matrix(qs, P).tobytes() == constraint_matrix(q, P).tobytes()
