"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with pytest -s or in failure
output) and enforces the corresponding tolerance. Tolerances here are the
package's external quality bars; unit tests cover the fine-grained pieces.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rollingdisk.assembly import assemble_system, oracle_lhs
from rollingdisk.cli import main
from rollingdisk.dynamics import State, state_derivative
from rollingdisk.energetics import GenCoords, GenVel, Params
from rollingdisk.kinematics import euler_rotation, rotation_vector
from rollingdisk.simulator import diagnostics_summary, integrate, integrate_10dim, scenario_preset
from rollingdisk.singularity import SingularConfiguration
from rollingdisk.validation import max_rel_diff, sample_state

P = Params()


def check(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def precession():
    return integrate(scenario_preset("precession"))


@pytest.fixture(scope="module")
def precession_10dim():
    return integrate_10dim(scenario_preset("precession"))


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
        q = GenCoords(*rng.uniform(-3.0, 3.0, 5))
        v = GenVel(*rng.uniform(-3.0, 3.0, 5))
        a = rng.uniform(-3.0, 3.0, 5)
        # assemble_system builds the system of the unit disk under gravity g/r.
        M, b = assemble_system(q, v, P)
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
    dt = precession.dt * 10
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


def test_04_circle_scenario_stays_on_its_circle():
    traj = integrate(scenario_preset("circle"))
    theta = np.array([s.state.theta for s in traj.samples])
    dpsi = np.array([s.state.dpsi for s in traj.samples])
    theta_err = float(np.max(np.abs(theta - 0.5)))
    dpsi_err = float(np.max(np.abs(dpsi - 1.0)))
    path = np.array([[s.state.c1, s.state.c2] for s in traj.samples])
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
    fin8 = precession.final_state()
    fin10 = precession_10dim.final_state()
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
        return integrate(replace(cfg, dt=dt)).final_state()

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
        R = euler_rotation(rng.uniform(-math.pi, math.pi, 3))
        worst_orth = max(worst_orth, float(np.max(np.abs(R.T @ R - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(R)) - 1.0))

    worst_skew = worst_rate = 0.0
    h = 1e-6
    for _ in range(1000):
        angles = tuple(rng.uniform(-math.pi, math.pi, 3))
        rates = tuple(rng.uniform(-3.0, 3.0, 3))

        def at(s):
            return euler_rotation([a + s * da for a, da in zip(angles, rates)])

        dR = (at(h) - at(-h)) / (2.0 * h)
        W = euler_rotation(angles).T @ dR
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
