import math
import warnings

import numpy as np
import pytest

from rollingdisk import assembly, dynamics
from rollingdisk.assembly import (
    _drift_entries,
    _force_entries,
    _mass_entries,
    assemble_system,
    oracle_system,
    solve_oracle_system,
    solve_system,
    unit_disk,
)
from rollingdisk.constraints import consistent_velocity, constraint_residual
from rollingdisk.dynamics import State
from rollingdisk.energetics import Params, kinetic_energy, lagrangian, potential_energy
from rollingdisk.kinematics import rotation_vector
from rollingdisk.simulator import NON_FINITE, ScenarioConfig, integrate_10dim
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import (
    THRESHOLD, closed_form_seven, max_rel_diff, sample_state, solve_seven, validation_sweep)
from test_constraints import constraint_matrix

P = Params()
# The disk whose system assemble_system and oracle_system build for P.
UNIT = Params(m=1.0, g=P.g / P.r, r=1.0)


def arrays(system):
    """A build's (M, b), 49 and 7 floats, as a 7x7 matrix and a 7-vector with the same bits."""
    M, b = system
    return np.reshape(M, (7, 7)), np.array(b)


def scaled_back(y, p):
    """The disk p's (lambda, ddc, angle accelerations) from the unit disk's solution y."""
    y = np.asarray(y).tolist()
    return np.array([p.m * p.r * y[0], p.m * p.r * y[1], p.r * y[2], p.r * y[3], *y[4:]])


def random_triple(rng):
    q = tuple(rng.uniform(-3.0, 3.0, 5))
    v = tuple(rng.uniform(-3.0, 3.0, 5))
    a = rng.uniform(-3.0, 3.0, 5)
    return q, v, a


def left_side(system, a):
    """The left side G(q) a - f(q, v) from a build's (M, b)."""
    M, b = arrays(system)
    return M[2:7, 2:7] @ np.asarray(a, dtype=float) - b[2:7]


def closed_lhs(q, v, a):
    """The unit disk's closed-form left side, read from assemble_system."""
    return left_side(assemble_system(q[3], q[4], v[2:5], UNIT.g), a)


class TestEulerLagrangeLhs:
    def test_rest_gives_gravity_torque_only(self):
        q = (1.0, -1.0, 0.4, 0.0, 2.0)
        zero_v, zero_a = (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)
        assert np.array_equal(closed_lhs(q, zero_v, zero_a), np.zeros(5))
        tilted = (0.0, 0.0, 0.0, 0.3, 0.0)
        lhs = closed_lhs(tilted, zero_v, zero_a)
        # at rest only the stand-angle row is loaded, by gravity g/r
        assert lhs[3] == pytest.approx(-P.g / P.r * math.sin(0.3), rel=1e-14)
        assert np.array_equal(lhs[[0, 1, 2, 4]], np.zeros(4))

    def test_unit_center_acceleration(self):
        q = (0.4, -0.2, 1.0, 0.0, -2.0)
        lhs = closed_lhs(q, (0, 0, 0, 0, 0), (1, 0, 0, 0, 0))
        assert np.allclose(lhs, [1.0, 0, 0, 0, 0], atol=1e-15)

    def test_matches_complex_step_rebuild(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(300):
            q, v, a = random_triple(rng)
            err = max_rel_diff(left_side(oracle_system(q, v, UNIT), a), closed_lhs(q, v, a))
            worst = max(worst, err)
        assert worst < 1e-12, f"closed form vs complex-step Lagrangian: {worst:.3e}"

    def test_mass_is_velocity_hessian_of_lagrangian(self):
        # L is quadratic in the velocities, so the entries the oracle reads
        # from L at rest give G(q), symmetric, up to roundoff.
        rng = np.random.default_rng(40)
        for _ in range(100):
            q, v, _ = random_triple(rng)
            G = arrays(assemble_system(q[3], q[4], v[2:5], UNIT.g))[0][2:7, 2:7]
            assert np.array_equal(G, G.T)
            assert np.max(np.abs(arrays(oracle_system(q, v, P))[0][2:7, 2:7] - G)) < 1e-12


@pytest.mark.parametrize("m, r", [(5.0, 1.0), (100.0, 0.01), (0.01, 100.0), (5.0, 0.001), (5.0, 1000.0), (0.001, 1e-4)])
def test_oracle_system_is_the_closed_form_system_to_roundoff(m, r):
    # Each block against its own scale: both systems are the unit disk's, so
    # G's entries stay below 2 at every (m, r) while b holds g/r, about 1e5
    # at r = 1e-4.
    p = Params(m=m, r=r)
    rng = np.random.default_rng(57)
    for _ in range(100):
        q, v = sample_state(rng)
        (got_M, got_b), (want_M, want_b) = arrays(oracle_system(q, v, p)), arrays(assemble_system(q[3], q[4], v[2:5], p.g / p.r))
        for got, want in ((got_M[0:2], want_M[0:2]), (got_M[2:7, 2:7], want_M[2:7, 2:7]), (got_b, want_b)):
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), (q, v)


def drift(q, v):
    return np.array(_drift_entries(math.sin(q[3]), math.cos(q[3]), math.sin(q[4]), math.cos(q[4]), v[2:5]))


def test_contact_rows_match_matrix_and_drift():
    rng = np.random.default_rng(45)
    p = Params(m=2.0, r=0.37)
    for _ in range(200):
        q, v = sample_state(rng)
        # both systems carry the unit disk's A on top, and its drift
        # sign-flipped at the top of b
        for M, b in map(arrays, (assemble_system(q[3], q[4], v[2:5], p.g / p.r), oracle_system(q, v, p))):
            assert np.array_equal(M[0:2, 2:7], constraint_matrix(q, UNIT))
            assert np.array_equal(b[0:2], -drift(q, v))


class TestMassMatrix:
    def test_reference_entries_upright(self):
        M, _ = arrays(assemble_system(0.0, 0.0, (0, 0, 0), UNIT.g))
        assert M[4, 4] == 0.5
        assert M[5, 5] == 0.25
        assert M[6, 6] == 0.25
        assert M[4, 6] == 0.0
        # contraction rows carry the unit disk's constraint matrix
        assert np.array_equal(M[0:2, 2:7], constraint_matrix((0, 0, 0, 0.0, 0.0), UNIT))

    def test_independent_of_velocity_bit_for_bit(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            q, v1 = sample_state(rng)
            _, v2 = sample_state(rng)
            M1, _ = assemble_system(q[3], q[4], v1[2:5], UNIT.g)
            M2, _ = assemble_system(q[3], q[4], v2[2:5], UNIT.g)
            assert np.array_equal(M1, M2)

    def test_invertible_away_from_flat(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 10_000:
            q, _ = sample_state(rng)
            if abs(math.cos(q[3])) < 0.1:
                continue
            checked += 1
            assert np.linalg.det(arrays(assemble_system(q[3], q[4], (0, 0, 0), UNIT.g))[0]) != 0.0

    @pytest.mark.parametrize("m, r", [(5.0, 1.0), (2.0, 0.37), (100.0, 0.01), (0.01, 100.0)])
    def test_determinant_is_cos_squared_theta(self, m, r):
        # det M = (15/32) cos^2(theta) on the unit disk, whatever m and r:
        # the cos(theta) band is the exact rank test, so the solve needs no
        # pivot check of its own.
        p = Params(m=m, r=r)
        rng = np.random.default_rng(51)
        for _ in range(200):
            q, v, _ = random_triple(rng)
            det = np.linalg.det(arrays(assemble_system(q[3], q[4], v[2:5], p.g / p.r))[0]) / math.cos(q[3]) ** 2
            assert det == pytest.approx(15.0 / 32.0, rel=1e-8)

    def test_factor_solve_round_trip(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            q, _ = sample_state(rng)
            M, _ = arrays(assemble_system(q[3], q[4], (0, 0, 0), UNIT.g))
            x0 = rng.uniform(-1.0, 1.0, 7)
            x = np.linalg.solve(M, M @ x0)
            assert np.max(np.abs(x - x0)) < 1e-10


class TestRhsVector:
    def test_zero_at_upright_rest(self):
        _, b = assemble_system(0.0, 0.0, (0, 0, 0), UNIT.g)
        assert np.array_equal(b, np.zeros(7))

    def test_rest_tilted_loads_only_stand_row(self):
        _, b = arrays(assemble_system(0.1, 0.0, (0, 0, 0), UNIT.g))
        assert b[5] == pytest.approx(P.g / P.r * math.sin(0.1), rel=1e-14)
        mask = np.ones(7, dtype=bool)
        mask[5] = False
        assert np.array_equal(b[mask], np.zeros(6))


class TestSolveSystem:
    def test_reference_start(self):
        q = (2.0, 0.0, 0.0, 0.1, 0.0)
        v = (0.0, -2.5, 2.5, 0.0, 0.0)
        ddphi, ddtheta, ddpsi = solve_system(q, v, P)[4:7]
        assert ddtheta == pytest.approx(0.8 * P.g * math.sin(0.1), rel=1e-12)
        assert abs(ddphi) < 1e-14
        assert abs(ddpsi) < 1e-14

    def test_flat_start_constant_turn(self):
        # Upright disk with spin and heading rate: the only surviving
        # couplings are the stand acceleration and the contact reactions.
        q = (0.0, 0.0, 0.0, 0.0, 0.0)
        v = (0.0, -2.5, 2.5, 0.0, 1.0)
        ddphi, ddtheta, ddpsi = solve_system(q, v, P)[4:7]
        assert ddphi == pytest.approx(0.0, abs=1e-14)
        assert ddpsi == pytest.approx(0.0, abs=1e-14)
        assert ddtheta == pytest.approx(-1.2 * 2.5 * 1.0, rel=1e-12)

    def test_residual_of_solution(self):
        rng = np.random.default_rng(49)
        for _ in range(300):
            q, v = sample_state(rng)
            M, b = arrays(assemble_system(q[3], q[4], v[2:5], UNIT.g))
            y = solve_system(q, v, P) / scaled_back(np.ones(7), P)  # back on the unit disk
            resid = float(np.max(np.abs(M @ y - b)))
            bound = 1e-9 * (1.0 + float(np.max(np.abs(b))))
            assert resid < bound, f"|Mx-b| = {resid:.3e} exceeds {bound:.3e}"

    def test_raises_in_flat_band(self):
        v = (0, 0, 1, 1, 1)
        for theta in (math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9):
            with pytest.raises(SingularConfiguration):
                solve_system((0, 0, 0, theta, 0), v, P)

    def test_just_outside_band_solves(self):
        theta = math.pi / 2 - 1e-4
        x = solve_system((0, 0, 0, theta, 0), (0, 0, 1, 1, 1), P)
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
                q = (q[0], q[1], q[2], sign * theta, q[4])
                closed = closed_form_seven(q, v[2:5], p)
                assert max_rel_diff(solve_seven(q, v, p), closed) < 1e-4


def test_tiny_and_light_disks_solve_next_to_band():
    # m r^2 underflows to zero here, which once made M exactly singular; the
    # unit disk's M is not, so both routes solve, with no numpy warning. In
    # the last state dc/r = 1e160 overflows T's real part, which once carried
    # inf * 0 = NaN into the imaginary part that the oracle reads.
    cases = [(p, (0, 0, 0, theta, 0), (0, 0, 1, 1, 1))
             for p in (Params(r=1e-170), Params(m=1e-200, r=1e-100)) for theta in (math.acos(4.722e-6), 0.5)]
    cases.append((Params(r=1e-160), (0, 0, 0.3, 0.4, 0.5), (1, -1, 1.5, 0.7, -0.4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q, v in cases:
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
        edge = (q[0], q[1], q[2], sign * math.acos(5e-6), q[4])
        cases.append((edge, v, P))
        for p in (Params(m=100.0, r=0.01), *(Params(m=m, r=r) for m in (1e-100, 1e100) for r in (1e-100, 1e100))):
            cases.append((edge, v, p))
            cases.append((q, v, p))
    return cases


def test_direct_solve_gives_the_bits_of_numpy_solve():
    cases = _direct_solve_states(np.random.default_rng(55))
    assert min(q[3] for q, _, _ in cases) < 0.0 < max(q[3] for q, _, _ in cases)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, v, p in cases:
            x = solve_system(q, v, p)
            assert np.asarray(x).tobytes() == scaled_back(np.linalg.solve(*arrays(assemble_system(q[3], q[4], v[2:5], p.g / p.r))), p).tobytes(), (q, v, p)


def test_failed_solves_raise_without_warnings():
    # A solve whose b overflows returns non-finite floats, and a run whose
    # rates overflow stops on its non-finite state, with no numpy warning
    # before either: the gesv gufunc clears the floating-point flags it
    # raises, so the unreduced route runs under no errstate. The oracle
    # raises OverflowError once h times a phi or theta rate passes cosh's
    # range, past about 7.1e32, where the direct solve still reads 1.3e-16.
    # test_non_finite_system_raises_value_error_not_singular holds the solves
    # at a non-finite theta or psi.
    q, v = (0.0, 0.0, 0.0, 0.4, 0.3), (0.0, 0.0, 1e200, -1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not all(map(math.isfinite, assemble_system(q[3], q[4], v[2:5], UNIT.g)[1]))
        x = solve_system(q, v, P)
        assert all(type(e) is float for e in x) and not all(map(math.isfinite, x)), x
        for rates in (v, (0.0, 0.0, 1e33, 0.0, 0.0)):
            with pytest.raises(OverflowError):
                solve_oracle_system(q, rates, P)
        for x0 in (State(2.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 1e100), State(2.0, 0.0, 0.0, 0.1, 0.0, *[1e155] * 3)):
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
    worst = validation_sweep(p, 25, 42)
    assert all(err < THRESHOLD for err, _ in worst.values()), worst


def test_validation_sweep_needs_a_sample():
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        validation_sweep(Params(), 0, 1)


def test_max_rel_diff_keeps_the_bits_of_the_numpy_formula():
    # The normwise error is plain Python; the numpy formula it replaced is the
    # reference, on 7-vectors across 1e+-300, half of them near-equal pairs.
    rng = np.random.default_rng(60)
    for k in range(2000):
        a = rng.standard_normal(7) * 10.0 ** rng.uniform(-300.0, 300.0)
        b = (a if k % 2 else 0.0) + rng.standard_normal(7) * 10.0 ** rng.uniform(-300.0, 300.0)
        want = float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))
        assert max_rel_diff(tuple(a.tolist()), tuple(b.tolist())).hex() == want.hex()
    for bad in (math.inf, -math.inf, math.nan):
        assert max_rel_diff((1.0, bad), (0.0, 0.0)) == max_rel_diff((0.0, 0.0), (1.0, bad)) == math.inf


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
    worst = validation_sweep(Params(m=1e16), 25, 42)
    assert not all(err < THRESHOLD for err, _ in worst.values())
    assert all(err > 1e-3 for err, _ in worst.values()), worst


def test_non_finite_system_raises_value_error_not_singular():
    # A non-finite stand or spin angle is no flat disk: both solves report
    # both angles before any sine of them, and no numpy warning precedes it.
    for theta, psi in [(bad, 0.1) for bad in (math.nan, math.inf, -math.inf)] + [
            (0.3, bad) for bad in (math.nan, math.inf, -math.inf)]:
        for solve in (solve_system, solve_oracle_system):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    solve((0, 0, 0, theta, psi), (0, 0, 1, 0, 0), P)
            assert not isinstance(info.value, SingularConfiguration)
            assert str(info.value) == f"non-finite angle at theta={theta!r}, psi={psi!r}"


@pytest.mark.parametrize("theta, psi", [(bad, 0.1) for bad in (math.nan, math.inf, -math.inf)]
                         + [(0.3, bad) for bad in (math.nan, math.inf, -math.inf)])
def test_direct_system_calls_need_finite_angles(theta, psi):
    # Only the two solves check the angles, so a direct call keeps the hot
    # path bare: an infinite angle raises ValueError from its sine and a NaN
    # one gives a NaN in M, neither with a numpy warning.
    q, v = (0.0, 0.0, 0.0, theta, psi), (0.0, 0.0, 1.0, 0.2, 0.3)
    calls = (lambda: assemble_system(theta, psi, v[2:5], UNIT.g), lambda: oracle_system(q, v, P))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isnan(theta) or math.isnan(psi):
                assert np.isnan(call()[0]).any()
            else:
                with pytest.raises(ValueError, match="math domain error"):
                    call()


def test_assembled_system_is_the_frozen_block_layout():
    # Byte equality, signed zeros included, against the documented blocks of
    # the unit disk, on random states with theta of both signs and two just
    # outside the band, at several (m, r): M is written row by row from A's
    # and G's entries, -A^T's -0.0 from negating A's zeros, and it is the same
    # M at every (m, r).
    rng = np.random.default_rng(53)
    states = [sample_state(rng) for _ in range(200)]
    for sign, (q, v) in zip((1.0, -1.0), states[-2:]):
        states.append(((q[0], q[1], q[2], sign * math.acos(5e-6), q[4]), v))
    assert min(q[3] for q, _ in states) < 0.0 < max(q[3] for q, _ in states)
    for p in (P, Params(m=100.0, r=0.01), Params(m=0.01, r=100.0), Params(m=2.0, r=0.37)):
        for q, v in states:
            A, resid = constraint_matrix(q, UNIT), drift(q, v)
            want_M = np.zeros((7, 7))
            want_M[0:2, 2:7] = A
            want_M[2:7, 0:2] = -A.T
            st, ct, s2t = math.sin(q[3]), math.cos(q[3]), math.sin(2.0 * q[3])
            want_M[2:7, 2:7] = np.reshape(_mass_entries(st), (5, 5))
            want_b = np.concatenate([-resid, _force_entries(p.g / p.r, st, ct, s2t, v[2:5])])
            M, b = arrays(assemble_system(q[3], q[4], v[2:5], p.g / p.r))
            assert M.shape == (7, 7) and b.shape == (7,)
            assert M.tobytes() == want_M.tobytes(), p
            assert b.tobytes() == want_b.tobytes(), p
            oracle_M, oracle_b = arrays(oracle_system(q, v, p))
            assert oracle_M[0:2].tobytes() == M[0:2].tobytes()
            assert oracle_M[2:7, 0:2].tobytes() == M[2:7, 0:2].tobytes()
            assert oracle_b[0:2].tobytes() == b[0:2].tobytes()


def test_each_assembly_returns_tuples_of_floats():
    # Both systems come out of one layout helper as M's 49 floats, row by row,
    # and b's 7, even from integer rates and gravity: tuples, which no caller
    # can write into, and floats, which pack into float64 as they are.
    q, v = sample_state(np.random.default_rng(56))
    builds = (lambda: assemble_system(q[3], q[4], v[2:5], UNIT.g), lambda: oracle_system(q, v, P),
              lambda: assemble_system(0.3, 0.2, (0, 1, 2), 9))
    for build in builds:
        M, b = build()
        assert type(M) is tuple and len(M) == 49 and type(b) is tuple and len(b) == 7
        assert all(type(x) is float for x in (*M, *b))


def test_plain_sequences_give_the_same_bits():
    # q, v and the seven unknowns are plain tuples at every interface, and the
    # unreduced route hands the same functions list slices: tuples and lists
    # give the same bits, and each 7x7 route returns a tuple of seven floats.
    rng = np.random.default_rng(54)
    for _ in range(50):
        q, v = sample_state(rng)
        a = tuple(rng.uniform(-3.0, 3.0, 5).tolist())
        for seven in (solve_system(q, v, P), solve_oracle_system(q, v, P),
                      dynamics.closed_form_solution(q, v[2:5], P)):
            assert type(seven) is tuple and len(seven) == 7
            assert all(type(x) is float for x in seven)
        calls = (
            lambda q, v, a: lagrangian(q, v, P),
            lambda q, v, a: kinetic_energy(q, v, P),
            lambda q, v, a: potential_energy(q, P),
            lambda q, v, a: consistent_velocity(q, v[2:5], P),
            lambda q, v, a: dynamics.closed_form_solution(q, v[2:5], P),
            lambda q, v, a: solve_system(q, v, P),
            lambda q, v, a: solve_oracle_system(q, v, P),
            lambda q, v, a: constraint_residual(q, v, P),
        )
        for f in calls:
            assert np.asarray(f(list(q), list(v), list(a))).tobytes() == np.asarray(f(q, v, a)).tobytes()
        for system in (lambda q, v: assemble_system(q[3], q[4], v[2:5], UNIT.g), lambda q, v: oracle_system(q, v, P)):
            for got, want in zip(arrays(system(list(q), list(v))), arrays(system(q, v))):
                assert got.tobytes() == want.tobytes()


def test_complex_angles_take_cmath_and_keep_the_real_value():
    # The oracle's complex step reaches each angle on its own. A complex phi,
    # theta or psi takes cmath's sine and cosine (math's raise TypeError on
    # it), and the real part is the real call's value to roundoff; an angle a
    # function reads makes its value complex.
    rng = np.random.default_rng(55)
    for _ in range(50):
        q, v = sample_state(rng)
        calls = (
            (lambda q: rotation_vector(q[2:5], v[2:5]), (2, 3)),
            (lambda q: potential_energy(q, P), (3,)),
            (lambda q: kinetic_energy(q, v, P), (2, 3)),
            (lambda q: lagrangian(q, v, P), (2, 3)),
        )
        for f, read in calls:
            want = np.asarray(f(q))
            for k in (2, 3, 4):
                probe = list(q)
                probe[k] = complex(q[k], 1e-30)
                got = np.asarray(f(probe))
                assert np.iscomplexobj(got) == (k in read)
                assert np.max(np.abs(got.real - want)) <= 4e-16 * max(1.0, np.max(np.abs(want)))


# Five of the validate points README lists, each run by test_cli's
# test_validate_oracle_has_margin_on_hard_seeds: the default disk,
# r = 1e-160, r = 1e-8, g = 1e300 and g/r = 1.79e308.
MARGIN_POINTS = [Params(), Params(r=1e-160), Params(r=1e-8), Params(g=1e300), Params(g=1.79e308, r=1.0)]


def _margin_states(seed):
    """(q, v, p) on seeded states, with theta of both signs, at each margin
    point's unit disk, the disk validate hands the oracle."""
    rng = np.random.default_rng(seed)
    cases = []
    for p in MARGIN_POINTS:
        for k in range(20):
            q, v = sample_state(rng)
            cases.append(((q[0], q[1], q[2], (-1.0) ** k * abs(q[3]), q[4]), v, unit_disk(p)))
    return cases


def test_oracle_system_calls_the_lagrangian_30_times(monkeypatch):
    # One per distinct entry of G, and three per coordinate for f.
    calls = []

    def counted(q, v, p):
        calls.append(None)
        return lagrangian(q, v, p)

    monkeypatch.setattr(assembly, "lagrangian", counted)
    for q, v, p in _margin_states(58):
        calls.clear()
        oracle_system(q, v, p)
        assert len(calls) == 30, p


def test_oracle_mass_is_the_central_difference_bit_for_bit():
    # At rest with q real, T is the quadratic form qdot^T G qdot / 2 and V is
    # real, so Im L(q, e_i + ih e_j) / h is G_ij; the probes -e_i + ih e_j
    # give the exact negative, so the central difference has the same bits.
    h = assembly._COMPLEX_STEP

    def central(q, i, j, p):
        ahead, behind = [0.0] * 5, [0.0] * 5
        ahead[j] = behind[j] = complex(0.0, h)
        ahead[i] += 1.0
        behind[i] -= 1.0
        return (lagrangian(q, ahead, p).imag - lagrangian(q, behind, p).imag) / (2.0 * h)

    cases = _margin_states(59)
    assert min(q[3] for q, _, _ in cases) < 0.0 < max(q[3] for q, _, _ in cases)
    for q, v, p in cases:
        want = np.array([[central(q, min(i, j), max(i, j), p) for j in range(5)] for i in range(5)])
        assert arrays(oracle_system(q, v, p))[0][2:7, 2:7].tobytes() == want.tobytes(), (q, p)
