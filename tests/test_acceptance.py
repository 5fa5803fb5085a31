"""End-to-end acceptance checks.

Each check prints one PASS/FAIL line (visible with pytest -s or in failure
output) and enforces the corresponding tolerance. Tolerances here are the
package's external quality bars; unit tests cover the fine-grained pieces.
"""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from rollingdisk.assembly import assemble_system, oracle_lhs
from rollingdisk.cli import main
from rollingdisk.constraints import consistent_velocity
from rollingdisk.dynamics import State, state_derivative
from rollingdisk.energetics import Params, kinetic_energy, potential_energy
from rollingdisk.kinematics import euler_rotation, rotation_vector
from rollingdisk.simulator import diagnostics_summary, integrate, integrate_10dim, scenario_preset
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import max_rel_diff, sample_state
from test_assembly import arrays

P = Params()


def check(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def precession():
    return integrate(scenario_preset("precession"))


@pytest.fixture(scope="module")
def circle():
    return integrate(scenario_preset("circle"))


@pytest.fixture(scope="module")
def precession_10dim():
    return integrate_10dim(scenario_preset("precession"))


@pytest.fixture(scope="module")
def circle_10dim():
    return integrate_10dim(scenario_preset("circle"))


def test_01_closed_forms_match_direct_solve():
    from rollingdisk.validation import closed_form_seven, solve_seven

    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q, v = sample_state(rng)
        worst = max(worst, max_rel_diff(closed_form_seven(q, v[2:5], P), solve_seven(q, v, P)))
    elapsed = time.perf_counter() - start
    check(
        "01 closed form vs direct solve",
        worst < 1e-10 and elapsed < 1.0,
        f"max rel err {worst:.3e} < 1e-10, {elapsed:.2f}s < 1s, 1000 states",
    )


def test_02_variational_lhs_matches_differenced_lagrangian():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q = tuple(rng.uniform(-3.0, 3.0, 5))
        v = tuple(rng.uniform(-3.0, 3.0, 5))
        a = rng.uniform(-3.0, 3.0, 5)
        # assemble_system builds the system of the unit disk under gravity g/r.
        M, b = arrays(assemble_system(q[3], q[4], v[2:5], P.g / P.r))
        closed = M[2:7, 2:7] @ a - b[2:7]
        worst = max(worst, max_rel_diff(oracle_lhs(q, v, a, Params(m=1.0, g=P.g / P.r, r=1.0)), closed))
    elapsed = time.perf_counter() - start
    check(
        "02 closed lhs vs complex-step lhs",
        worst < 1e-10 and elapsed < 5.0,
        f"max rel err {worst:.3e} < 1e-10, {elapsed:.2f}s < 5s, 1000 triples",
    )


def test_03_precession_energy_and_wandering_turn(precession):
    summary = diagnostics_summary(precession)
    path = np.array([[s.state.c1, s.state.c2] for s in precession.samples])[::10]
    dt = precession.config.dt * 10
    x, y = path[:, 0], path[:, 1]
    xd = (x[2:] - x[:-2]) / (2 * dt)
    yd = (y[2:] - y[:-2]) / (2 * dt)
    xdd = (x[2:] - 2 * x[1:-1] + x[:-2]) / dt**2
    ydd = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt**2
    curvature = np.abs(xd * ydd - yd * xdd) / (xd * xd + yd * yd) ** 1.5
    variation = (curvature.max() - curvature.min()) / curvature.mean()
    ok = (
        not precession.failed
        and summary.max_energy_drift < 1e-6
        and variation > 0.05
    )
    check(
        "03 precession run",
        ok,
        f"drift {summary.max_energy_drift:.3e} < 1e-6, completed, "
        f"path curvature varies by {variation:.2f} of its mean (non-circular)",
    )


def test_04_circle_scenario_stays_on_its_circle(circle):
    theta = np.array([s.state.theta for s in circle.samples])
    dpsi = np.array([s.state.dpsi for s in circle.samples])
    theta_err = float(np.max(np.abs(theta - 0.5)))
    dpsi_err = float(np.max(np.abs(dpsi - 1.0)))
    path = np.array([[s.state.c1, s.state.c2] for s in circle.samples])
    design = np.column_stack([path[:, 0], path[:, 1], np.ones(len(path))])
    target = path[:, 0] ** 2 + path[:, 1] ** 2
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    center = sol[0] / 2.0, sol[1] / 2.0
    dist = np.hypot(path[:, 0] - center[0], path[:, 1] - center[1])
    variation = float((dist.max() - dist.min()) / dist.mean())
    ok = theta_err < 1e-3 and dpsi_err < 1e-3 and variation < 1e-2
    check(
        "04 steady circle",
        ok,
        f"|theta-0.5| {theta_err:.2e} < 1e-3, |dpsi-1| {dpsi_err:.2e} < 1e-3, "
        f"radial variation {variation:.2e} < 1e-2",
    )


def test_05_spin_and_straight_presets():
    spin = integrate(scenario_preset("spin"))
    spin_path = np.array([[s.state.c1, s.state.c2] for s in spin.samples])
    spin_move = float(np.max(np.abs(spin_path - spin_path[0])))

    straight = integrate(scenario_preset("straight"))
    t = np.array([s.t for s in straight.samples])
    x0 = straight.samples[0].state
    c1 = np.array([s.state.c1 for s in straight.samples])
    c2 = np.array([s.state.c2 for s in straight.samples])
    c2_err = float(np.max(np.abs(c2 - (x0.c2 - P.r * x0.dphi * t))))
    c1_err = float(np.max(np.abs(c1 - x0.c1)))
    ok = spin_move < 1e-9 and c2_err < 1e-6 and c1_err < 1e-9
    check(
        "05 spin and straight presets",
        ok,
        f"spin center moves {spin_move:.2e} < 1e-9; straight: "
        f"|c2 - linear law| {c2_err:.2e} < 1e-6, |c1 - const| {c1_err:.2e} < 1e-9",
    )


def test_06_flat_band_raises_and_cli_exits_2(tmp_path):
    raised = False
    try:
        state_derivative(State(0, 0, 0, math.pi / 2 - 1e-6, 0, 1.0, 1.0, 1.0), P)
    except SingularConfiguration:
        raised = True
    out = tmp_path / "abort.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            "precession",
            "--out",
            str(out),
            "--x0",
            "2", "0", "0", "1.5707963", "0", "2.5", "0", "0",
        ]
    )
    ok = raised and code == 2 and out.exists()
    check(
        "06 singularity handling",
        ok,
        f"derivative raises at |theta|=pi/2-1e-6: {raised}, cli exit {code} == 2, partial csv kept",
    )


def test_07_reduced_vs_unreduced_routes(precession, precession_10dim):
    fin8 = precession.samples[-1].state
    fin10 = precession_10dim.samples[-1].state
    config_diff = max(
        abs(a - b) for a, b in zip(fin8.as_tuple()[:5], fin10.as_tuple()[:5])
    )
    drift = max(s.residual for s in precession_10dim.samples)
    ok = config_diff < 1e-5 and drift < 1e-6 and not precession_10dim.failed
    check(
        "07 reduced vs unreduced integration",
        ok,
        f"configuration diff at t=10 {config_diff:.3e} < 1e-5, "
        f"contact drift {drift:.3e} < 1e-6",
    )


def test_08_rk4_fourth_order_convergence():
    cfg = replace(scenario_preset("precession"), t_end=1.0)

    def final(dt):
        return integrate(replace(cfg, dt=dt)).samples[-1].state

    ref = final(2e-4)

    def err(dt):
        return max(abs(a - b) for a, b in zip(final(dt).as_tuple(), ref.as_tuple()))

    ratio = err(2e-3) / err(1e-3)
    check(
        "08 rk4 global convergence",
        8.0 <= ratio <= 32.0,
        f"global error at t=1 shrinks by {ratio:.1f} when dt halves (expect ~16)",
    )


def test_09_rotation_matrix_quality_and_rate_consistency():
    rng = np.random.default_rng(1009)
    worst_orth = worst_det = 0.0
    for _ in range(10_000):
        R = np.asarray(euler_rotation(rng.uniform(-math.pi, math.pi, 3)))
        worst_orth = max(worst_orth, float(np.max(np.abs(R.T @ R - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(R)) - 1.0))

    worst_skew = worst_rate = 0.0
    h = 1e-6
    for _ in range(1000):
        angles = tuple(rng.uniform(-math.pi, math.pi, 3))
        rates = tuple(rng.uniform(-3.0, 3.0, 3))

        def at(s):
            return np.asarray(euler_rotation([a + s * da for a, da in zip(angles, rates)]))

        dR = (at(h) - at(-h)) / (2.0 * h)
        W = np.asarray(euler_rotation(angles)).T @ dR
        worst_skew = max(worst_skew, float(np.max(np.abs(W + W.T))))
        fd = np.array([-W[1, 2], W[0, 2], -W[0, 1]])
        worst_rate = max(worst_rate, float(np.max(np.abs(fd - rotation_vector(angles, rates)))))

    ok = worst_orth < 1e-12 and worst_det < 1e-12 and worst_skew < 1e-6 and worst_rate < 1e-6
    check(
        "09 orientation kinematics",
        ok,
        f"orthogonality {worst_orth:.2e} < 1e-12, det {worst_det:.2e} < 1e-12 "
        f"(10^4 samples); R^T dR skew defect {worst_skew:.2e} < 1e-6, "
        f"rate vs differenced matrix {worst_rate:.2e} < 1e-6",
    )


def integral_system(theta) -> mpmath.matrix:
    """The matrix taking (C1, C2) to (psi_dot, phi_dot) at theta, at mpmath's
    working precision: psi_dot = C1 F((1 - sin theta)/2) + C2 F((1 + sin theta)/2),
    F = 2F1(a, b; 2; z) with a, b = 3/2 +- i sqrt(13/12), and
    phi_dot = (cos theta / 2) d(psi_dot)/d(theta).

    phi_ddot and psi_ddot are both proportional to theta_dot, so (phi_dot,
    psi_dot) solves a linear ODE in theta, which is Gauss's hypergeometric
    equation in z; C1 and C2 are first integrals beyond energy (Appell 1900;
    O'Reilly, Nonlinear Dynamics 10, 1996). dF/dz = (ab/2) 2F1(a+1, b+1; 3; z).
    """
    a = mpmath.mpf(3) / 2 + 1j * mpmath.sqrt(mpmath.mpf(13) / 12)
    b = mpmath.conj(a)
    s, c = mpmath.sin(theta), mpmath.cos(theta)
    low, high = (1 - s) / 2, (1 + s) / 2

    def slope(z):  # (cos theta / 2) dF/dtheta, with dz/dtheta = -+cos theta / 2 at low, high
        return c * c / 4 * mpmath.re(a * b / 2 * mpmath.hyp2f1(a + 1, b + 1, 3, z))

    return mpmath.matrix([[mpmath.re(mpmath.hyp2f1(a, b, 2, low)), mpmath.re(mpmath.hyp2f1(a, b, 2, high))],
                          [-slope(low), slope(high)]])


def first_integrals(theta: float, dphi: float, dpsi: float) -> tuple[float, float]:
    """(C1, C2) of the rates (phi_dot, psi_dot) at theta, solved at 30 digits."""
    with mpmath.workdps(30):
        c1, c2 = mpmath.lu_solve(integral_system(theta), mpmath.matrix([dpsi, dphi]))
        return float(c1), float(c2)


def seeded_starts_near_precession(seed: int, count: int) -> list[State]:
    """Rolling starts around the precession preset's stand angle and rates."""
    rng = np.random.default_rng(seed)
    c1, c2, phi, theta, _, dphi, _, _ = scenario_preset("precession").x0
    return [State(c1, c2, phi, theta + rng.uniform(-0.03, 0.03), rng.uniform(-math.pi, math.pi),
                  dphi + rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3))
            for _ in range(count)]


def test_10_first_integrals_beyond_energy(precession, precession_10dim):
    # Every 100th sample read C1 = -0.6729474851 and C2 = 0.5026769902 with
    # relative spreads 5.1e-14 and 5.9e-14 on the reduced route, 5.0e-14 and
    # 5.8e-14 on the unreduced one. Over 3 s, more than a nutation period, of
    # `integrate` from the three seeded starts the worst spreads read 6.5e-14
    # and 8.5e-14.
    def spread_and_start(traj):
        integrals = np.array([first_integrals(s.state.theta, s.state.dphi, s.state.dpsi)
                              for s in traj.samples[::100]])
        return np.ptp(integrals, axis=0) / np.abs(integrals[0]), integrals[0], len(integrals)

    spread, start, n = spread_and_start(precession)
    spread10, start10, n10 = spread_and_start(precession_10dim)
    seeded = [spread_and_start(integrate(replace(scenario_preset("precession"), x0=x0, t_end=3.0)))[0]
              for x0 in seeded_starts_near_precession(10, 3)]
    spread_seeded = np.max(seeded, axis=0)
    ok = (max(spread.max(), spread10.max(), spread_seeded.max()) <= 1e-12
          and abs(start[0] + 0.6729474851) < 1e-9
          and abs(start[1] - 0.5026769902) < 1e-9 and (start10 == start).all())
    check(
        "10 first integrals beyond energy",
        ok,
        f"C1 = {start[0]:.10f}, C2 = {start[1]:.10f} at t=0 (pinned to 1e-9); "
        f"relative spreads {spread[0]:.1e}, {spread[1]:.1e} over {n} samples of the reduced route, "
        f"{spread10[0]:.1e}, {spread10[1]:.1e} over {n10} of the unreduced one, "
        f"{spread_seeded[0]:.1e}, {spread_seeded[1]:.1e} at worst over three seeded starts, <= 1e-12",
    )


def theta_dot_squared(cfg):
    """theta_dot^2 as a function of theta alone, at mpmath's working precision,
    with the energy E and the integrals C1, C2 held at their values at cfg.x0.

    Energy conservation gives
      [E - m g r cos(theta) - 3/4 m r^2 (phi_dot - psi_dot sin(theta))^2
         - 1/8 m r^2 cos(theta)^2 psi_dot^2] / (5/8 m r^2),
    phi_dot and psi_dot read from the integrals.
    """
    x0, p = cfg.x0, cfg.params
    q = x0.coords()
    energy = kinetic_energy(q, consistent_velocity(q, x0.rates(), p), p) + potential_energy(q, p)
    c1, c2 = first_integrals(x0.theta, x0.dphi, x0.dpsi)
    mr2 = p.m * p.r * p.r

    def at(theta):
        dpsi, dphi = integral_system(theta) * mpmath.matrix([c1, c2])
        return (energy - p.m * p.g * p.r * mpmath.cos(theta) - 0.75 * mr2 * (dphi - dpsi * mpmath.sin(theta)) ** 2
                - mr2 / 8 * (mpmath.cos(theta) * dpsi) ** 2) / (0.625 * mr2)

    return at


def nutation(at):
    """(theta0, theta_max, rate, period) of a nutation from rest in theta, at
    mpmath's working precision: the simple roots of at = theta_dot^2(theta)
    the motion starts at and rises to, the integrand rate(u) = dt/du of the
    time t(u) = integral of dtheta / sqrt(theta_dot^2) taken with
    theta = mid - half cos(u), which is smooth on [0, pi], and twice its
    integral there."""
    low = mpmath.findroot(at, (0.05, 0.2), solver="anderson")
    high = mpmath.findroot(at, (0.2, 0.4), solver="anderson")
    mid, half = (high + low) / 2, (high - low) / 2

    def rate(u):
        return half * mpmath.sin(u) / mpmath.sqrt(at(mid - half * mpmath.cos(u)))

    return low, high, rate, 2 * mpmath.quad(rate, [0, mpmath.pi], method="gauss-legendre")


def test_11_steady_circle_is_a_double_root_of_theta_dot_squared():
    # The steady circle sits at a double root of theta_dot^2(theta), and
    # theta_ddot = (theta_dot^2)'/2 linearizes to -omega_n^2 (theta - theta0).
    # The root read 2.1e-15, the slope -5.1e-16 and omega_n^2 26.6510531, a
    # period of 1.21709 s.
    cfg = scenario_preset("circle")
    x0 = cfg.x0
    at = theta_dot_squared(cfg)
    with mpmath.workdps(30):
        root, slope, curvature = (float(mpmath.diff(at, x0.theta, n)) for n in range(3))
    omega_n_squared = -curvature / 2.0
    period = 2.0 * math.pi / math.sqrt(omega_n_squared)
    ok = abs(root) < 1e-12 and abs(slope) < 1e-12 and abs(omega_n_squared - 26.651053) < 1e-6
    check(
        "11 steady circle is a double root of theta_dot^2",
        ok,
        f"theta_dot^2 = {root:.1e}, d/dtheta = {slope:.1e} at theta0 = {x0.theta} (each < 1e-12); "
        f"omega_n^2 = {omega_n_squared:.7f} (26.651053 to 1e-6), period {period:.5f} s",
    )


def test_12_precession_nutation_matches_the_quadrature(precession):
    # precession starts at rest in theta at theta0 = 0.1, so theta0 and theta_max
    # are the simple roots of test_11's theta_dot^2(theta), and the nutation
    # period is twice the integral of dtheta / sqrt(theta_dot^2) between them,
    # taken with theta = mid - half cos(u), which leaves an integrand smooth on
    # [0, pi]. At 30 digits: theta_max = 0.297973283161185, period 2.16033949225444 s.
    # The run's maxima, each the parabola through the largest sample and its
    # neighbours (the largest sample alone is off by up to 1.1e-7 on the 1 ms
    # grid), read within 2.7e-13 of theta_max; the mean spacing of the zeros
    # of theta_dot, interpolated where it turns from + to -, read within
    # 4.8e-11 of the period over the run's five maxima. The bars are 10x those.
    at = theta_dot_squared(scenario_preset("precession"))
    with mpmath.workdps(30):
        low, high, _, period = nutation(at)
        low, high, period = float(low), float(high), float(period)
    t = np.array([s.t for s in precession.samples])
    theta = np.array([s.state.theta for s in precession.samples])
    dtheta = np.array([s.state.dtheta for s in precession.samples])
    down = np.nonzero((dtheta[:-1] > 0.0) & (dtheta[1:] <= 0.0))[0]
    crossings = t[down] - dtheta[down] * (t[down + 1] - t[down]) / (dtheta[down + 1] - dtheta[down])
    run_period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    top = down + (theta[down + 1] > theta[down])
    before, at_top, after = theta[top - 1], theta[top], theta[top + 1]
    peaks = at_top - (before - after) ** 2 / (8.0 * (before - 2.0 * at_top + after))
    theta_err = float(np.max(np.abs(peaks - high)))
    period_err = abs(run_period - period)
    ok = (abs(low - 0.1) < 1e-14 and abs(high - 0.2979733) < 1e-7 and abs(period - 2.16034) < 1e-5
          and len(peaks) == 5 and theta_err < 3e-12 and period_err < 5e-10)
    check(
        "12 precession nutation matches the quadrature",
        ok,
        f"turning points {low:.15f}, {high:.15f} (0.1 to 1e-14, 0.2979733 to 1e-7), "
        f"period {period:.12f} s (2.16034 to 1e-5); RK4 run: {len(peaks)} maxima within {theta_err:.1e} "
        f"of theta_max (< 3e-12), period off by {period_err:.1e} s (< 5e-10)",
    )


def test_13_circle_follows_its_closed_form(circle, circle_10dim):
    # The steady circle in closed form over the whole preset: theta, phi_dot
    # and psi_dot keep their start values, phi and psi grow linearly, and the
    # center, whose rate is k (sin psi, -cos psi) with k = r (phi_dot -
    # psi_dot sin theta), runs round its circle of radius |k / psi_dot| in
    # step with psi. measured holds each route's largest errors over the 6 s,
    # all roundoff; theta, phi_dot and psi_dot keep their start bits, as their
    # slopes move them by less than half an ulp a step. Each bar is 10x its
    # error: the routes get one dict each, as the reduced route's c2 bar would
    # leave the unreduced one a margin of only 1.16x.
    for route, run, measured in (
        ("integrate", circle, {"c1": 2.01e-12, "c2": 4.96e-13, "phi": 1.85e-12, "theta": 0.0,
                               "psi": 3.38e-13, "dphi": 0.0, "dtheta": 2.0e-15, "dpsi": 0.0}),
        ("integrate_10dim", circle_10dim, {"c1": 8.14e-13, "c2": 4.26e-12, "phi": 1.85e-12, "theta": 0.0,
                                           "psi": 3.38e-13, "dphi": 0.0, "dtheta": 2.64e-15, "dpsi": 0.0}),
    ):
        x0, r = run.config.x0, run.config.params.r
        k, w = r * (x0.dphi - x0.dpsi * math.sin(x0.theta)), x0.dpsi
        errors = dict.fromkeys(measured, 0.0)
        for s in run.samples:
            psi = x0.psi + w * s.t
            exact = State(x0.c1 + k * (math.cos(x0.psi) - math.cos(psi)) / w,
                          x0.c2 - k * (math.sin(psi) - math.sin(x0.psi)) / w,
                          x0.phi + x0.dphi * s.t, x0.theta, psi, x0.dphi, 0.0, w)
            for name, got, want in zip(State._fields, s.state, exact):
                errors[name] = max(errors[name], abs(got - want))
        check(
            f"13 circle follows its closed form ({route})",
            all(errors[name] <= 10.0 * measured[name] for name in measured) and len(run.samples) == 6001,
            ", ".join(f"{name} {errors[name]:.2e} (<= {10.0 * measured[name]:.1e})" for name in measured),
        )


def test_14_precession_theta_follows_the_inverted_quadrature(precession, precession_10dim):
    # theta(t) at four times in the first nutation period, exactly: t(u) of
    # test_12's quadrature, inverted by Newton's method in mpmath.findroot,
    # whose slope dt/du is the integrand. theta falls back as it rose, so a
    # time t past the half period reads u(period - t). The times are taken
    # in order of that distance, each quadrature starting from the last root
    # and capped at 24 nodes, all at 20 digits, which give the 30-digit
    # floats. psi_dot and phi_dot depend on theta alone, through
    # integral_system and test_10's integrals at x0, so at the same roots
    # psi(t) - psi0 = I(u(t)), the integral of psi_dot(theta(u')) rate(u')
    # from 0, and past the half period Delta psi - I(u(period - t)), where
    # Delta psi = 2 I(pi) is the advance over a whole period; phi alike. One
    # complex quadrature carries psi in its real part and phi in its
    # imaginary part, so each node calls integral_system once. Both routes
    # are held to these references; measured holds each route's errors at
    # 0.25, 0.75, 1.25 and 1.75 s. Each bar is 10x its error.
    cfg = scenario_preset("precession")
    x0 = cfg.x0
    integrals = mpmath.matrix(first_integrals(x0.theta, x0.dphi, x0.dpsi))
    times = (250, 750, 1250, 1750)
    thetas, advances = {}, {}
    with mpmath.workdps(20):
        low, high, rate, period = nutation(theta_dot_squared(cfg))
        mid, half = (high + low) / 2, (high - low) / 2

        def quad(f, a, b):
            return mpmath.quad(f, [a, b], method="gauss-legendre", maxdegree=4)

        def advance(u):  # (psi_dot + i phi_dot) dt/du at theta(u)
            dpsi, dphi = integral_system(mid - half * mpmath.cos(u)) * integrals
            return mpmath.mpc(dpsi, dphi) * rate(u)

        root = reached = mpmath.mpf(0)  # the last root and its time t(root)
        advanced = mpmath.mpc(0)  # I(root)
        for t, i in sorted((min(mpmath.mpf(precession.samples[i].t), period - precession.samples[i].t), i)
                           for i in times):
            start, t_start = root, reached
            root = mpmath.findroot(lambda u: t_start + quad(rate, start, u) - t,
                                   2 * mpmath.pi * t / period, solver="newton", df=rate)
            reached = t
            thetas[i] = float(mid - half * mpmath.cos(root))
            advanced += quad(advance, start, root)
            advances[i] = advanced
        whole = 2 * (advanced + quad(advance, root, mpmath.pi))
        for i in times:
            if precession.samples[i].t > period / 2:
                advances[i] = whole - advances[i]
    want = {"theta": thetas,
            "psi": {i: x0.psi + float(mpmath.re(advances[i])) for i in times},
            "phi": {i: x0.phi + float(mpmath.im(advances[i])) for i in times}}
    for route, run, measured in (
        ("integrate", precession, {"theta": (1.87e-14, 1.02e-13, 9.20e-14, 2.96e-13),
                                   "psi": (4.63e-14, 6.41e-14, 3.98e-13, 2.63e-13),
                                   "phi": (1.67e-15, 3.95e-14, 2.26e-13, 4.53e-14)}),
        ("integrate_10dim", precession_10dim, {"theta": (1.87e-14, 1.02e-13, 9.22e-14, 2.97e-13),
                                               "psi": (4.63e-14, 6.42e-14, 3.98e-13, 2.63e-13),
                                               "phi": (1.67e-15, 3.95e-14, 2.25e-13, 4.53e-14)}),
    ):
        errors = {name: [abs(getattr(run.samples[i].state, name) - want[name][i]) for i in times]
                  for name in measured}
        check(
            f"14 precession theta, psi and phi follow the inverted quadrature ({route})",
            all(error <= 10.0 * bar for name in measured for error, bar in zip(errors[name], measured[name])),
            "; ".join(f"{name} " + ", ".join(f"{error:.2e} (<= {10.0 * bar:.1e})"
                                             for error, bar in zip(errors[name], measured[name]))
                      for name in measured) + " at t = 0.25, 0.75, 1.25, 1.75 s",
        )
