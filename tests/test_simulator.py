import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from rollingdisk.dynamics import State, state_derivative
from rollingdisk.energetics import Params
from rollingdisk.simulator import (
    NON_FINITE,
    PRESET_NAMES,
    SINGULAR,
    ScenarioConfig,
    Trajectory,
    TrajectorySample,
    diagnostics_summary,
    integrate,
    integrate_10dim,
    scenario_preset,
    step_euler,
    step_rk4,
)

P = Params()
UPRIGHT_REST = State(1.0, -2.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0)


def state_dist(a: State, b: State) -> float:
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))


class TestSteppers:
    def test_equilibrium_is_a_fixed_point_bitwise(self):
        stepped = step_rk4(UPRIGHT_REST, 1e-3, P)
        assert stepped.as_tuple() == UPRIGHT_REST.as_tuple()
        assert step_euler(UPRIGHT_REST, 1e-3, P).as_tuple() == UPRIGHT_REST.as_tuple()

    def test_zero_dt_is_identity_bitwise(self):
        x = scenario_preset("precession").x0
        assert step_rk4(x, 0.0, P).as_tuple() == x.as_tuple()

    def test_determinism(self):
        x = scenario_preset("precession").x0
        assert step_rk4(x, 1e-3, P).as_tuple() == step_rk4(x, 1e-3, P).as_tuple()

    def test_one_step_richardson_ratio(self):
        # full step vs two half steps differ at fifth order in dt, so the
        # defect should shrink by roughly 2^5 when dt halves
        x = scenario_preset("precession").x0

        def defect(dt):
            full = step_rk4(x, dt, P)
            half = step_rk4(step_rk4(x, dt / 2.0, P), dt / 2.0, P)
            return state_dist(full, half)

        ratio = defect(1e-3) / defect(5e-4)
        assert 2.0 <= ratio <= 50.0, f"step-halving defect ratio {ratio:.2f}"

    @pytest.mark.parametrize("x0", [
        scenario_preset("precession").x0,
        scenario_preset("circle").x0,
        State(0.5, -1.0, 0.3, 1.2, -0.7, 1.5, 0.4, -0.8),
    ])
    def test_rk4_matches_textbook_rk4_bitwise(self, x0):
        # Textbook RK4 with State stages; no numpy on this path, so any BLAS agrees.
        def textbook(x, dt):
            k1 = state_derivative(x, P)
            k2 = state_derivative(State._make(xi + 0.5 * dt * ki for xi, ki in zip(x, k1)), P)
            k3 = state_derivative(State._make(xi + 0.5 * dt * ki for xi, ki in zip(x, k2)), P)
            k4 = state_derivative(State._make(xi + dt * ki for xi, ki in zip(x, k3)), P)
            return State._make(
                xi + dt / 6 * (a + 2.0 * (b + c) + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
            )

        x = y = x0
        for _ in range(50):
            x, y = step_rk4(x, 1e-3, P), textbook(y, 1e-3)
            assert type(x) is State
            assert struct.pack("8d", *x) == struct.pack("8d", *y)

    def test_euler_is_first_order(self):
        cfg = replace(scenario_preset("precession"), t_end=0.5)
        ref = integrate(replace(cfg, dt=1e-5)).final_state()

        def err(dt):
            run = integrate(replace(cfg, dt=dt, integrator="euler"))
            return state_dist(run.final_state(), ref)

        ratio = err(2e-3) / err(1e-3)
        assert 1.5 <= ratio <= 3.0, f"euler halving ratio {ratio:.2f}"


class TestScenarioConfig:
    def test_validation(self):
        x0 = UPRIGHT_REST
        with pytest.raises(ValueError):
            ScenarioConfig("bad", P, x0, t_end=0.0, dt=1e-3)
        with pytest.raises(ValueError):
            ScenarioConfig("bad", P, x0, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig("bad", P, x0, t_end=1.0, dt=2.0)
        with pytest.raises(ValueError):
            ScenarioConfig("bad", P, x0, t_end=1.0, dt=1e-3, integrator="rk45")
        with pytest.raises(ValueError, match="whole number of steps"):
            ScenarioConfig("bad", P, x0, t_end=1.0, dt=0.3)
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig("bad", P, x0._replace(theta=math.nan), t_end=1.0, dt=1e-3)

    def test_presets_carry_standard_constants(self):
        for name in PRESET_NAMES:
            cfg = scenario_preset(name)
            assert cfg.name == name
            assert (cfg.params.m, cfg.params.g, cfg.params.r) == (5.0, 9.81, 1.0)
            assert cfg.dt == 1e-3
            assert cfg.integrator == "rk4"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_preset("wobble")


class TestIntegrate:
    def test_sample_grid(self):
        cfg = replace(scenario_preset("precession"), t_end=0.05)
        traj = integrate(cfg)
        assert len(traj.samples) == 51
        t = traj.times()
        assert t[0] == 0.0
        spacing = np.diff(t)
        assert np.all(np.abs(spacing - cfg.dt) < 1e-15)
        assert not traj.failed

    def test_straight_roll_kinematics(self):
        traj = integrate(scenario_preset("straight"))
        t = traj.times()
        c1 = np.array([s.state.c1 for s in traj.samples])
        c2 = np.array([s.state.c2 for s in traj.samples])
        x0 = traj.samples[0].state
        assert np.max(np.abs(c2 - (x0.c2 - P.r * x0.dphi * t))) < 1e-6
        assert np.max(np.abs(c1 - x0.c1)) < 1e-9

    def test_spin_in_place_keeps_center_and_grows_heading(self):
        traj = integrate(scenario_preset("spin"))
        path = traj.path()
        assert np.max(np.abs(path - path[0])) < 1e-9
        # heading accumulates without wrapping back into (-pi, pi]
        assert traj.final_state().psi == pytest.approx(5.0, abs=1e-9)

    def test_energy_and_residual_diagnostics(self):
        cfg = replace(scenario_preset("precession"), t_end=1.0)
        traj = integrate(cfg)
        summary = diagnostics_summary(traj)
        assert summary.max_energy_drift < 1e-9
        assert summary.max_residual < 1e-12
        assert summary.failure_time is None
        assert traj.failure_reason is None
        assert summary.n_samples == len(traj.samples)

    def test_singular_start_returns_partial_trajectory(self):
        x0 = State(0.0, 0.0, 0.0, math.pi / 2 - 1e-9, 0.0, 1.0, 1.0, 1.0)
        cfg = ScenarioConfig("doomed", P, x0, t_end=1.0, dt=1e-3)
        traj = integrate(cfg)
        assert traj.failed
        assert traj.failure_time == 0.0
        assert traj.failure_reason == SINGULAR
        assert len(traj.samples) == 1
        summary = diagnostics_summary(traj)
        assert summary.failure_time == 0.0
        assert summary.max_energy_drift == 0.0


class TestIntegrate10Dim:
    def test_matches_reduced_route_briefly(self):
        cfg = replace(scenario_preset("precession"), t_end=0.5)
        reduced = integrate(cfg).final_state()
        unreduced = integrate_10dim(cfg).final_state()
        for a, b in zip(reduced.as_tuple()[:5], unreduced.as_tuple()[:5]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_constraint_drift_stays_small(self):
        cfg = replace(scenario_preset("precession"), t_end=0.5)
        traj = integrate_10dim(cfg)
        assert max(s.residual for s in traj.samples) < 1e-9

    def test_singular_start_returns_partial_trajectory(self):
        x0 = State(0.0, 0.0, 0.0, math.pi / 2 - 1e-9, 0.0, 1.0, 1.0, 1.0)
        traj = integrate_10dim(ScenarioConfig("doomed", P, x0, t_end=1.0, dt=1e-3))
        assert traj.scenario == "doomed-10dim"
        assert traj.failed
        assert traj.failure_time == 0.0
        assert traj.failure_reason == SINGULAR
        assert len(traj.samples) == 1

    def test_rejects_euler(self):
        cfg = replace(scenario_preset("precession"), t_end=0.1, integrator="euler")
        with pytest.raises(ValueError):
            integrate_10dim(cfg)


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
def test_samples_hold_plain_floats(route):
    traj = route(replace(scenario_preset("precession"), t_end=0.1))
    assert len(traj.samples) == 101
    for s in traj.samples:
        assert all(type(v) is float for v in (*s.state, s.energy, s.residual)), s


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("route", [integrate, integrate_10dim])
@pytest.mark.parametrize("rates", [
    (0.0, 0.0, 1e100),  # a stage overflows to an infinite angle
    (0.0, 1e200, 0.0),  # the energy overflows
    (1e160, 0.0, 1e160),
])
def test_overflowing_rates_stop_with_non_finite_state(route, rates):
    x0 = State(2.0, 0.0, 0.0, 0.1, 0.0, *rates)
    traj = route(ScenarioConfig("huge", P, x0, t_end=0.01, dt=1e-3))
    assert traj.failed
    assert traj.failure_reason == NON_FINITE
    assert traj.failure_time == 0.0
    assert [s.state for s in traj.samples] == [x0]


def test_summary_of_single_sample_trajectory():
    sample = TrajectorySample(0.0, UPRIGHT_REST, 49.05, 0.0)
    traj = Trajectory("frozen", P, 1e-3, "rk4", (sample,))
    summary = diagnostics_summary(traj)
    assert summary.max_energy_drift == 0.0
    assert summary.mean_energy_drift == 0.0
    assert summary.final_state == UPRIGHT_REST
