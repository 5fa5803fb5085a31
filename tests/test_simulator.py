import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from rollingdisk import assembly, dynamics, energetics, simulator
from rollingdisk.dynamics import State, circular_spin, state_derivative
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


@pytest.fixture
def call_counts(monkeypatch):
    """(calls, count): count(module, name) patches module.name so that each
    call adds one to calls[name]. A tracer counts calls by patching these
    names; a route that bound one early, or inlined it, would run unseen and
    fail the count."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    return calls, count


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
            x = cfg.x0
            for _ in range(round(cfg.t_end / dt)):
                x = step_euler(x, dt, P)
            return state_dist(x, ref)

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

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_preset("wobble")


class TestIntegrate:
    def test_sample_grid(self):
        cfg = replace(scenario_preset("precession"), t_end=0.05)
        traj = integrate(cfg)
        assert len(traj.samples) == 51
        t = np.array([s.t for s in traj.samples])
        assert t[0] == 0.0
        spacing = np.diff(t)
        assert np.all(np.abs(spacing - cfg.dt) < 1e-15)
        assert not traj.failed

    def test_straight_roll_kinematics(self):
        traj = integrate(scenario_preset("straight"))
        t = np.array([s.t for s in traj.samples])
        c1 = np.array([s.state.c1 for s in traj.samples])
        c2 = np.array([s.state.c2 for s in traj.samples])
        x0 = traj.samples[0].state
        assert np.max(np.abs(c2 - (x0.c2 - P.r * x0.dphi * t))) < 1e-6
        assert np.max(np.abs(c1 - x0.c1)) < 1e-9

    def test_spin_in_place_keeps_center_and_grows_heading(self):
        traj = integrate(scenario_preset("spin"))
        path = np.array([[s.state.c1, s.state.c2] for s in traj.samples])
        assert np.max(np.abs(path - path[0])) < 1e-9
        # heading accumulates without wrapping back into (-pi, pi]
        assert traj.final_state().psi == pytest.approx(5.0, abs=1e-9)

    def test_energy_and_residual_diagnostics(self):
        cfg = replace(scenario_preset("precession"), t_end=1.0)
        traj = integrate(cfg)
        summary = diagnostics_summary(traj)
        assert summary.max_energy_drift < 1e-9
        assert summary.max_residual < 1e-12
        assert traj.failure_reason is None and not traj.failed

    def test_call_graph_goes_through_the_module_names(self, call_counts):
        calls, count = call_counts
        count(simulator, "state_derivative")
        count(dynamics, "closed_form_accels")
        count(dynamics, "consistent_velocity")  # from state_derivative, 4 per step
        count(simulator, "consistent_velocity")  # from the sampler, 1 per sample
        count(simulator, "kinetic_energy")
        n = 12
        traj = integrate(replace(scenario_preset("precession"), t_end=n * 1e-3))
        assert len(traj.samples) == n + 1
        assert calls == {
            "state_derivative": 4 * n,
            "closed_form_accels": 4 * n,
            "consistent_velocity": 5 * n + 1,
            "kinetic_energy": n + 1,
        }

    def test_singular_start_returns_partial_trajectory(self):
        x0 = State(0.0, 0.0, 0.0, math.pi / 2 - 1e-9, 0.0, 1.0, 1.0, 1.0)
        cfg = ScenarioConfig("doomed", P, x0, t_end=1.0, dt=1e-3)
        traj = integrate(cfg)
        assert traj.failed
        assert traj.samples[-1].t == 0.0
        assert traj.failure_reason == SINGULAR
        assert len(traj.samples) == 1
        summary = diagnostics_summary(traj)
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
        assert traj.samples[-1].t == 0.0
        assert traj.failure_reason == SINGULAR
        assert len(traj.samples) == 1

    def test_call_graph_goes_through_the_module_names(self, call_counts):
        # The counts the unreduced benchmark gates: four solves per step, one
        # contact reconstruction at the start, and the reduced field unused.
        calls, count = call_counts
        count(simulator, "state_derivative")
        count(simulator, "solve_system")
        count(assembly, "assemble_system")
        count(simulator, "consistent_velocity")
        count(dynamics, "consistent_velocity")
        count(simulator, "constraint_residual")
        count(simulator, "kinetic_energy")
        count(simulator, "potential_energy")
        count(energetics, "rotation_vector")
        n = 12
        traj = integrate_10dim(replace(scenario_preset("precession"), t_end=n * 1e-3))
        assert len(traj.samples) == n + 1 and not traj.failed
        assert calls == {
            "solve_system": 4 * n,
            "assemble_system": 4 * n,
            "consistent_velocity": 1,
            "constraint_residual": n + 1,
            "kinetic_energy": n + 1,
            "potential_energy": n + 1,
            "rotation_vector": n + 1,
        }


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
def test_samples_hold_plain_floats(route):
    traj = route(replace(scenario_preset("precession"), t_end=0.1))
    assert len(traj.samples) == 101
    for s in traj.samples:
        assert type(s.state) is State
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
    assert traj.samples[-1].t == 0.0
    assert [s.state for s in traj.samples] == [x0]


def test_summary_of_single_sample_trajectory():
    sample = TrajectorySample(0.0, UPRIGHT_REST, 49.05, 0.0)
    traj = Trajectory("frozen", P, 1e-3, (sample,))
    summary = diagnostics_summary(traj)
    assert summary.max_energy_drift == 0.0
    assert summary.mean_energy_drift == 0.0
    assert traj.final_state() == UPRIGHT_REST


def _run_for_2s(name, x0=None, route=integrate, **params):
    cfg = scenario_preset(name)
    return route(replace(cfg, params=Params(**params), x0=cfg.x0 if x0 is None else x0, t_end=2.0))


@pytest.mark.parametrize("name", ["precession", "circle"])
def test_mass_drops_out_of_the_reduced_route(name):
    # closed_form_accels reads only g/r and consistent_velocity only r.
    light, heavy = _run_for_2s(name, m=5.0), _run_for_2s(name, m=50.0)
    assert len(light.samples) == 2001
    assert [s.state for s in light.samples] == [s.state for s in heavy.samples]


@pytest.mark.parametrize("name", ["precession", "circle"])
def test_mass_drops_out_of_the_unreduced_route(name):
    # solve_system solves the unit disk's system, in which m does not appear,
    # and m scales only the multipliers, which the run does not integrate.
    light = _run_for_2s(name, route=integrate_10dim, m=5.0)
    heavy = _run_for_2s(name, route=integrate_10dim, m=50.0)
    assert len(light.samples) == 2001 and not light.failed
    assert [s.state for s in light.samples] == [s.state for s in heavy.samples]


# Each preset's start, horizon and final integrate state. The final state is
# held to 1e-9, not to its bits, which another libm may round apart.
PRESET_PINS = {
    "precession": (
        State(2.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0), 10.0,
        (4.874331523927227, 4.557957189963991, 26.555001628644902, 0.2651350646517337,
         5.261793584432106, 2.7756299610886193, -0.21954815803082373, 0.8761077295074817)),
    "circle": (
        State(2.0, 0.0, 0.0, 0.5, 0.0, circular_spin(0.5, 1.0, P), 0.0, 1.0), 6.0,
        (2.1391217644580864, 0.9759743130605911, 23.83403739449321, 0.5,
         6.000000000000338, 3.9723395657485594, 1.998401444325345e-15, 1.0)),
    "straight": (
        State(2.0, 0.0, 0.0, 0.0, 0.0, 2.5, 0.0, 0.0), 5.0,
        (2.0, -12.499999999999655, 12.499999999999655, 0.0, 0.0, 2.5, 0.0, 0.0)),
    "spin": (
        State(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 5.0,
        (2.0, 0.0, 0.0, 0.0, 5.000000000000004, 0.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_start_and_end_where_pinned(name):
    x0, t_end, final = PRESET_PINS[name]
    cfg = scenario_preset(name)
    assert (cfg.x0, cfg.t_end, cfg.dt) == (x0, t_end, 1e-3)
    traj = integrate(cfg)
    assert not traj.failed and len(traj.samples) == round(t_end / 1e-3) + 1
    assert traj.final_state() == pytest.approx(final, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["precession", "circle"])
def test_doubling_g_and_r_scales_lengths_and_energy_exactly(name):
    # The angle motion depends on g/r only; a power-of-2 scale is exact in
    # binary floating point, so the centers double and the energy (m g r,
    # m r^2 rates^2) quadruples bit for bit.
    x0 = scenario_preset(name).x0
    base = _run_for_2s(name, g=9.81, r=1.0)
    scaled = _run_for_2s(name, x0._replace(c1=2.0 * x0.c1, c2=2.0 * x0.c2), g=2.0 * 9.81, r=2.0)
    assert len(base.samples) == 2001 and not base.failed
    for s, t in zip(base.samples, scaled.samples):
        assert t.state[2:] == s.state[2:]
        assert (t.state.c1, t.state.c2) == (2.0 * s.state.c1, 2.0 * s.state.c2)
        assert t.energy == 4.0 * s.energy


def _final_after_2s(name, x0):
    traj = _run_for_2s(name, x0)
    assert not traj.failed
    return traj.final_state()


def _reversed(x: State) -> State:
    return x._replace(dphi=-x.dphi, dtheta=-x.dtheta, dpsi=-x.dpsi)


def _turned(x: State, angle: float) -> State:
    """x with the heading and the center turned by angle about the vertical through the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return x._replace(c1=c * x.c1 - s * x.c2, c2=s * x.c1 + c * x.c2, psi=x.psi + angle)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_running_back_with_negated_rates_returns_to_the_start(name):
    # The accelerations are even in the rates, so negating them reverses time.
    x0 = scenario_preset(name).x0
    back = _final_after_2s(name, _reversed(_final_after_2s(name, x0)))
    assert state_dist(_reversed(back), x0) < 1e-11


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_turning_the_start_turns_the_run(name):
    # The plane has no preferred direction: only theta and the rates enter the accelerations.
    x0 = scenario_preset(name).x0
    turned = _final_after_2s(name, _turned(x0, 0.7))
    assert state_dist(turned, _turned(_final_after_2s(name, x0), 0.7)) < 1e-11


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shifting_the_start_shifts_the_run(name):
    x0 = scenario_preset(name).x0
    shifted = _final_after_2s(name, x0._replace(c1=x0.c1 - 3.5, c2=x0.c2 + 1.25))
    final = _final_after_2s(name, x0)
    assert state_dist(shifted, final._replace(c1=final.c1 - 3.5, c2=final.c2 + 1.25)) < 1e-11
