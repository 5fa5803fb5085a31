import math
import struct
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from rollingdisk import assembly, dynamics, energetics, simulator, singularity
from rollingdisk.assembly import solve_oracle_system, solve_system
from rollingdisk.constraints import consistent_velocity
from rollingdisk.dynamics import (
    State,
    circular_spin,
    closed_form_accels,
    closed_form_solution,
    state_derivative,
)
from rollingdisk.energetics import Params
from rollingdisk.simulator import (
    MAX_STEPS,
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
    step_rk4,
)
from rollingdisk.singularity import SingularConfiguration

P = Params()
UPRIGHT_REST = State(1.0, -2.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0)
# Starts on which each route's RK4 step is held to textbook RK4's bits.
RK4_STARTS = [
    scenario_preset("precession").x0,
    scenario_preset("circle").x0,
    State(0.5, -1.0, 0.3, 1.2, -0.7, 1.5, 0.4, -0.8),
]


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

    @pytest.mark.parametrize("x0", RK4_STARTS)
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

    @pytest.mark.parametrize("x0", RK4_STARTS)
    def test_unreduced_rk4_matches_textbook_rk4_bitwise(self, x0):
        # Textbook RK4 through list stages on y = (q, v), whose slope is
        # (v, the accelerations of the augmented solve).
        def f(y):
            return (*y[5:10], *solve_system(y[0:5], y[5:10], P)[2:7])

        def textbook(y, dt):
            k1 = f(y)
            k2 = f([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)])
            k3 = f([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)])
            k4 = f([yi + dt * ki for yi, ki in zip(y, k3)])
            return [yi + dt / 6 * (a + 2.0 * (b + c) + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]

        q = x0.coords()
        x = y = [*q, *consistent_velocity(q, x0.rates(), P)]
        for _ in range(50):
            x, y = simulator._step_10dim(x, 1e-3, P), textbook(y, 1e-3)
            assert all(type(v) is float for v in x)
            assert struct.pack("10d", *x) == struct.pack("10d", *y)

    @pytest.mark.parametrize("x0", RK4_STARTS)
    def test_no_slope_reads_the_cyclic_coordinates(self, x0):
        # Neither slope reads c1, c2 or phi, nor the solve dc1 or dc2: the steps
        # hand those stage slots on at the step's start values, bits kept.
        q, v = x0.coords(), consistent_velocity(x0.coords(), x0.rates(), P)
        for value in (-7.25, 1e300, math.nan):
            moved = x0._replace(c1=value, c2=-value, phi=value)
            assert struct.pack("8d", *state_derivative(moved, P)) == struct.pack("8d", *state_derivative(x0, P))
            moved_q, moved_v = (value, -value, value, *q[3:]), (value, -value, *v[2:])
            assert struct.pack("7d", *solve_system(moved_q, moved_v, P)) == struct.pack("7d", *solve_system(q, v, P))


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

    def test_step_count_is_bounded(self):
        # A run holds every sample, so its step count is capped; the cap itself is allowed.
        assert ScenarioConfig("cap", P, UPRIGHT_REST, t_end=MAX_STEPS * 1e-3, dt=1e-3).n_steps() == MAX_STEPS
        with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
            ScenarioConfig("over", P, UPRIGHT_REST, t_end=(MAX_STEPS + 1) * 1e-3, dt=1e-3)
        with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
            replace(scenario_preset("spin"), t_end=1e300)

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
        assert traj.samples[-1].state.psi == pytest.approx(5.0, abs=1e-9)

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
        assert traj.config is cfg
        assert traj.failed
        assert traj.samples[-1].t == 0.0
        assert traj.failure_reason == SINGULAR
        assert len(traj.samples) == 1
        summary = diagnostics_summary(traj)
        assert summary.max_energy_drift == 0.0


class TestIntegrate10Dim:
    def test_matches_reduced_route_briefly(self):
        cfg = replace(scenario_preset("precession"), t_end=0.5)
        reduced = integrate(cfg).samples[-1].state
        unreduced = integrate_10dim(cfg).samples[-1].state
        for a, b in zip(reduced.as_tuple()[:5], unreduced.as_tuple()[:5]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_constraint_drift_stays_small(self):
        cfg = replace(scenario_preset("precession"), t_end=0.5)
        traj = integrate_10dim(cfg)
        assert max(s.residual for s in traj.samples) < 1e-9

    def test_singular_start_returns_partial_trajectory(self):
        x0 = State(0.0, 0.0, 0.0, math.pi / 2 - 1e-9, 0.0, 1.0, 1.0, 1.0)
        cfg = ScenarioConfig("doomed", P, x0, t_end=1.0, dt=1e-3)
        traj = integrate_10dim(cfg)
        assert traj.config is cfg
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


@pytest.mark.parametrize("theta", [1.2, -1.2])
def test_every_route_reads_the_one_cutoff(monkeypatch, theta):
    # With the cutoff raised to 0.5, |cos 1.2| = 0.362 lies in the band. A
    # route that tested its own copy of the cutoff would run on.
    monkeypatch.setattr(singularity, "SINGULAR_COS_THETA", 0.5)
    x = State(2.0, 0.0, 0.0, theta, 0.0, 1.0, 0.5, -1.0)
    q, rates = x.coords(), x.rates()
    v = consistent_velocity(q, rates, P)
    for call in (
        lambda: closed_form_accels(q, rates, P),
        lambda: state_derivative(x, P),
        lambda: closed_form_solution(q, rates, P),
        lambda: circular_spin(theta, 1.0, P),
        lambda: solve_system(q, v, P),
        lambda: solve_oracle_system(q, v, P),
    ):
        with pytest.raises(SingularConfiguration) as info:
            call()
        assert info.value.theta == theta
    for route in (integrate, integrate_10dim):
        traj = route(ScenarioConfig("banded", P, x, t_end=0.01, dt=1e-3))
        assert traj.failure_reason == SINGULAR
        assert [s.t for s in traj.samples] == [0.0]


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
def test_samples_hold_plain_floats(route):
    traj = route(replace(scenario_preset("precession"), t_end=0.1))
    assert len(traj.samples) == 101
    for s in traj.samples:
        assert type(s.state) is State
        assert all(type(v) is float for v in (*s.state, s.energy, s.residual)), s


# Released at rest from theta = +-1.5, the disk falls flat: between samples 134
# and 135 |theta| steps from 1.57033 to 1.57138, over the band that the guard
# tests at the RK4 stage points only.
def _released_at_rest(theta):
    return ScenarioConfig("fall", P, State(2.0, 0.0, 0.0, theta, 0.0, 0.0, 0.0, 0.0), t_end=1.0, dt=1e-3)


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
@pytest.mark.parametrize("theta", [1.5, -1.5])
def test_a_step_through_the_flat_disk_stops_the_run(route, theta):
    traj = route(_released_at_rest(theta))
    assert traj.failure_reason == SINGULAR
    assert len(traj.samples) == 135 and traj.samples[-1].t == 0.134
    assert min(math.cos(s.state.theta) for s in traj.samples) > 0.0
    assert abs(traj.samples[-1].state.theta) == pytest.approx(1.57033, abs=1e-5)


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
def test_a_run_holds_at_most_96_bytes_a_sample(route):
    cfg = replace(scenario_preset("precession"), t_end=2.0)
    route(replace(cfg, t_end=0.01))  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        traj = route(cfg)
        held = tracemalloc.get_traced_memory()[0]  # while traj is alive
    finally:
        tracemalloc.stop()
    assert len(traj.samples) == 2001 and not traj.failed
    assert held / len(traj.samples) <= 96, held / len(traj.samples)


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
@pytest.mark.parametrize("cfg, n, reason", [
    (replace(scenario_preset("precession"), t_end=0.05), 51, None),
    (_released_at_rest(1.5), 135, SINGULAR),
])
def test_samples_view_the_columns(route, cfg, n, reason):
    traj = route(cfg)
    samples = traj.samples
    assert traj.failure_reason == reason and len(samples) == n
    listed = list(samples)
    assert samples[0] == listed[0] == samples[-n] and samples[0].t == 0.0
    assert samples[-1] == listed[-1] == samples[n - 1] and samples[-1].t == (n - 1) * 1e-3
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            samples[past]
    for part in (slice(None), slice(None, None, 10), slice(-3, None), slice(None, None, -7), slice(n, None)):
        assert samples[part] == tuple(listed[part])
    for s in samples:
        assert type(s) is TrajectorySample and type(s.state) is State
        assert all(type(v) is float for v in (s.t, *s.state, s.energy, s.residual)), s
    assert [v for s in listed for v in (s.t, *s.state, s.energy, s.residual)] == traj.columns.tolist()


def test_columns_are_read_only_flat_doubles():
    traj = integrate(replace(scenario_preset("spin"), t_end=0.01))
    with pytest.raises(TypeError):
        traj.columns[0] = 1.0
    mine = array("d", traj.columns)
    with pytest.raises(TypeError):
        Trajectory(traj.config, mine).columns[-1] = 1.0
    for bad in (array("d", mine[:-1]), array("f", mine), bytes(88)):
        with pytest.raises(ValueError, match="flat doubles, 11 a sample"):
            Trajectory(traj.config, bad)


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


@pytest.mark.parametrize("route", [integrate, integrate_10dim])
def test_summary_of_a_run_with_infinite_energy_reports_non_finite_drift(route):
    # The first sample's energy overflows to inf, so the run stops at once.
    # Its drift is inf - inf, which pyproject's error::RuntimeWarning would
    # raise on if numpy warned.
    x0 = State(2.0, 0.0, 0.0, 0.1, 0.0, 0.0, 1e200, 0.0)
    traj = route(ScenarioConfig("x", P, x0, t_end=1.0, dt=1e-3))
    assert traj.failure_reason == NON_FINITE
    assert traj.samples[0].energy == math.inf
    summary = diagnostics_summary(traj)
    assert not math.isfinite(summary.max_energy_drift)
    assert not math.isfinite(summary.mean_energy_drift)


def test_summary_of_single_sample_trajectory():
    columns = array("d", (0.0, *UPRIGHT_REST, 49.05, 0.0))
    traj = Trajectory(ScenarioConfig("frozen", P, UPRIGHT_REST, t_end=1e-3, dt=1e-3), columns)
    summary = diagnostics_summary(traj)
    assert summary.max_energy_drift == 0.0
    assert summary.mean_energy_drift == 0.0
    assert traj.samples[-1].state == UPRIGHT_REST


def _summary_of_energies(energies) -> simulator.Summary:
    columns = array("d", (v for i, e in enumerate(energies) for v in (1e-3 * i, *UPRIGHT_REST, e, 0.0)))
    return diagnostics_summary(Trajectory(ScenarioConfig("e", P, UPRIGHT_REST, t_end=1e-3, dt=1e-3), columns))


def _numpy_drift(energies):
    energies = np.array(energies)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(energies - energies[0]) / (abs(energies[0]) if energies[0] != 0.0 else 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_summary_of_a_non_finite_energy_is_numpy_max_and_mean(bad):
    # Past the first sample (whose drift is 0.0), early, late and in between.
    for at in (1, 7, 8, 9, 127, 128, 129, 255, 256, 999):
        rng = np.random.default_rng(at)
        energies = (49.05 + rng.standard_normal(1000) * 1e-9).tolist()
        energies[at] = bad
        summary, drift = _summary_of_energies(energies), _numpy_drift(energies)
        for got, want in ((summary.max_energy_drift, np.max(drift)), (summary.mean_energy_drift, np.mean(drift))):
            assert got == float(want) or (math.isnan(got) and math.isnan(want)), at


def test_summary_of_drifts_past_the_float_maximum_is_inf():
    # Each drift is finite but their sum is not: the mean is inf, as np.mean's, and nothing raises.
    summary = _summary_of_energies([1.0, 1.5e308, 1.5e308])
    with np.errstate(over="ignore"):
        assert summary.mean_energy_drift == np.mean(_numpy_drift([1.0, 1.5e308, 1.5e308])) == math.inf
    assert summary.max_energy_drift == 1.5e308


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
    assert traj.samples[-1].state == pytest.approx(final, rel=1e-9, abs=1e-9)


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
    return traj.samples[-1].state


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
    # c1, c2 and phi are cyclic: no slope of either route reads them, so theta,
    # psi and the rates keep their bits at every sample and the three shift.
    x0, shift = scenario_preset(name).x0, (-3.5, 1.25, 0.75)
    moved = x0._replace(c1=x0.c1 + shift[0], c2=x0.c2 + shift[1], phi=x0.phi + shift[2])
    for route in (integrate, integrate_10dim):
        base, shifted = _run_for_2s(name, route=route), _run_for_2s(name, moved, route=route)
        assert len(shifted.samples) == len(base.samples) == 2001 and not shifted.failed
        for s, t in zip(base.samples, shifted.samples):
            assert struct.pack("5d", *t.state[3:]) == struct.pack("5d", *s.state[3:])
            assert max(abs(t.state[i] - s.state[i] - shift[i]) for i in range(3)) < 1e-11


# Upright rolling (theta = 0, dpsi = 0, dphi = Omega) about which theta
# oscillates with omega_n^2 = (12/5) (Omega^2 - g/(3r)): stable exactly when
# Omega > Omega_c = sqrt(g/(3r)), the classical thin-disk criterion (Routh, The
# Advanced Part of a Treatise on the Dynamics of a System of Rigid Bodies, 6th
# ed., 1905; O'Reilly, Nonlinear Dynamics 10, 1996).
OMEGA_C = math.sqrt(P.g / (3.0 * P.r))


def _stand_angle_for_10s(x0: State, dt=2e-3):
    """(t, theta) of 10 s of integrate from x0."""
    traj = integrate(ScenarioConfig("nutation", P, x0, 10.0, dt))
    assert not traj.failed
    return np.array([s.t for s in traj.samples]), np.array([s.state.theta for s in traj.samples])


def _upright_run(omega, dt=2e-3):
    """10 s of integrate from upright rolling at rate omega, tilted by 1e-3."""
    return _stand_angle_for_10s(State(0.0, 0.0, 0.0, 1e-3, 0.0, omega, 0.0, 0.0), dt)


def _nutation_period(t, theta) -> float:
    """Mean spacing of theta's upward crossings of its mean, each interpolated
    linearly between samples."""
    d = theta - theta.mean()
    k = np.flatnonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))
    crossings = t[k] - d[k] * (t[k + 1] - t[k]) / (d[k + 1] - d[k])
    assert len(crossings) >= 4
    return float(np.mean(np.diff(crossings)))


def test_upright_rolling_is_stable_exactly_above_the_critical_rate():
    # max|theta| read 0.697 at 0.8 Omega_c and 5.5e-3 at 1.2 Omega_c.
    _, slow = _upright_run(0.8 * OMEGA_C)
    _, fast = _upright_run(1.2 * OMEGA_C)
    assert np.max(np.abs(slow)) > 0.3
    assert np.max(np.abs(fast)) < 1e-2


@pytest.mark.parametrize("dt", [1e-3, 2e-3])
def test_nutation_period_about_upright_rolling_is_the_linearized_one(dt):
    # Omega = 2.5 gives 2 pi / omega_n = 2.34945 s; the mean spacing of
    # theta's upward crossings of its mean read 2.34942 s (1.1e-5 relative).
    omega = 2.5
    want = 2.0 * math.pi / math.sqrt(12.0 / 5.0 * (omega * omega - P.g / (3.0 * P.r)))
    assert _nutation_period(*_upright_run(omega, dt)) == pytest.approx(want, rel=1e-4)


def test_nutation_period_about_the_steady_circle_is_the_linearized_one():
    # phi_dot and psi_dot follow the linear ODE in theta that the closed forms
    # give at theta_dot = 1: d(phi_dot)/d(theta) = ddphi, d(psi_dot)/d(theta) =
    # ddpsi. Along it ddtheta = F(theta) has the slope -omega_n^2 at the steady
    # circle. At theta = 0.5, psi_dot = 1 that is omega_n^2 = 26.6511, so
    # 2 pi / omega_n = 1.217090 s; the run read 1.2170858 s (-3.4e-6 relative),
    # and the same at dt = 1e-3 over 20 s.
    theta, dpsi = 0.5, 1.0
    dphi = circular_spin(theta, dpsi, P)
    slope_phi, _, slope_psi = closed_form_accels((0.0, 0.0, 0.0, theta, 0.0), (dphi, 1.0, dpsi), P)

    def stand(h):
        rates = (dphi + h * slope_phi, 0.0, dpsi + h * slope_psi)
        return closed_form_accels((0.0, 0.0, 0.0, theta + h, 0.0), rates, P)[1]

    h = 1e-5
    omega_n = math.sqrt(-(stand(h) - stand(-h)) / (2.0 * h))
    x0 = State(2.0, 0.0, 0.0, theta + 1e-5, 0.0, dphi, 0.0, dpsi)
    assert _nutation_period(*_stand_angle_for_10s(x0)) == pytest.approx(2.0 * math.pi / omega_n, rel=1e-4)
