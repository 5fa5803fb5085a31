"""Fixed-step simulation of the rolling disk.

Both routes below always step with the classical fourth-order Runge-Kutta
method, on plain Python floats; no setting selects another. step_euler, a
forward Euler step on the reduced 8-dimensional state, is only called
directly, for convergence-order contrast. Both steppers are deterministic:
identical configuration in, bit-identical trajectory out.

Two integration routes are provided. integrate propagates the reduced state
and reconstructs the center rates from the contact at every evaluation, so
the rolling constraint holds by construction. integrate_10dim instead
integrates the center rates as unknowns, obtaining accelerations from the
augmented linear solve; comparing the two routes measures how far the
unreduced formulation drifts off the constraint surface.

step_rk4 writes the reduced route's stages out over its eight floats and
returns a State; the unreduced route steps a list of ten through _rk4, in the
same operation order. numpy stays inside the kernels, out of the samples.

A trajectory records per-step diagnostics (total energy with reconstructed
center rates, contact slip residual). On a singular configuration, or a step
that leaves a non-finite state, the partial trajectory is returned with the
failure reason set instead of raising; its last sample is the stop time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .constraints import consistent_velocity, constraint_residual
from .dynamics import State, circular_spin, state_derivative
from .energetics import Params, kinetic_energy, potential_energy
from .assembly import solve_system
from .singularity import SingularConfiguration

PRESET_NAMES = ("precession", "circle", "straight", "spin")

# Why a run stopped early, as Trajectory.failure_reason records it.
SINGULAR = "singular configuration"
NON_FINITE = "non-finite state"


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation run: constants, initial state, horizon, step."""

    name: str
    params: Params
    x0: State
    t_end: float
    dt: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 components must be finite, got {tuple(self.x0)!r}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.dt > self.t_end:
            raise ValueError(f"dt={self.dt!r} exceeds t_end={self.t_end!r}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end={self.t_end!r} / dt={self.dt!r} overflows the step count")
        # The run takes n_steps() steps of dt and no partial one, so it would
        # silently stop short of (or beyond) a horizon that is not a multiple.
        if abs(self.n_steps() * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end={self.t_end!r} is not a whole number of steps dt={self.dt!r}"
            )

    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


class TrajectorySample(NamedTuple):
    """State plus diagnostics at one time: total energy, contact slip norm."""

    t: float
    state: State
    energy: float
    residual: float


@dataclass(frozen=True)
class Trajectory:
    """Immutable result of a run. failure_reason is None iff the run
    completed, else SINGULAR or NON_FINITE; a failed run stopped at the time
    of its last sample, samples[-1].t."""

    scenario: str
    params: Params
    dt: float
    samples: tuple[TrajectorySample, ...]
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    def final_state(self) -> State:
        return self.samples[-1].state


@dataclass(frozen=True)
class Summary:
    """Headline diagnostics of a trajectory. What the Trajectory holds
    (samples, scenario, final state, failure) is read from it, not copied."""

    max_energy_drift: float
    mean_energy_drift: float
    max_residual: float
    min_abs_cos_theta: float


def _rk4(f, x, dt: float, p: Params) -> list:
    """One classical Runge-Kutta step of f(x, p) through plain-list stages, as a
    list. Propagates SingularConfiguration from any stage."""
    half, sixth = 0.5 * dt, dt / 6  # same bits: 0.5 * dt * k is (0.5 * dt) * k
    k1 = f(x, p)
    k2 = f([xi + half * ki for xi, ki in zip(x, k1)], p)
    k3 = f([xi + half * ki for xi, ki in zip(x, k2)], p)
    k4 = f([xi + dt * ki for xi, ki in zip(x, k3)], p)
    return [xi + sixth * (a + 2.0 * (b + c) + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def step_rk4(x: State, dt: float, p: Params) -> State:
    """One classical Runge-Kutta step of size dt on the reduced state, written
    out over its eight floats in _rk4's operation order (so with its bits).
    state_derivative is looked up here at each call, where a tracer patches it."""
    half, sixth = 0.5 * dt, dt / 6
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    a0, a1, a2, a3, a4, a5, a6, a7 = state_derivative(x, p)
    b0, b1, b2, b3, b4, b5, b6, b7 = state_derivative([
        x0 + half * a0, x1 + half * a1, x2 + half * a2, x3 + half * a3,
        x4 + half * a4, x5 + half * a5, x6 + half * a6, x7 + half * a7], p)
    c0, c1, c2, c3, c4, c5, c6, c7 = state_derivative([
        x0 + half * b0, x1 + half * b1, x2 + half * b2, x3 + half * b3,
        x4 + half * b4, x5 + half * b5, x6 + half * b6, x7 + half * b7], p)
    d0, d1, d2, d3, d4, d5, d6, d7 = state_derivative([
        x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
        x4 + dt * c4, x5 + dt * c5, x6 + dt * c6, x7 + dt * c7], p)
    return tuple.__new__(State, (
        x0 + sixth * (a0 + 2.0 * (b0 + c0) + d0), x1 + sixth * (a1 + 2.0 * (b1 + c1) + d1),
        x2 + sixth * (a2 + 2.0 * (b2 + c2) + d2), x3 + sixth * (a3 + 2.0 * (b3 + c3) + d3),
        x4 + sixth * (a4 + 2.0 * (b4 + c4) + d4), x5 + sixth * (a5 + 2.0 * (b5 + c5) + d5),
        x6 + sixth * (a6 + 2.0 * (b6 + c6) + d6), x7 + sixth * (a7 + 2.0 * (b7 + c7) + d7)))


def step_euler(x: State, dt: float, p: Params) -> State:
    """One forward Euler step. First-order; for convergence contrast only."""
    return State._make([xi + dt * ki for xi, ki in zip(x, state_derivative(x, p))])


def _sample(t: float, y, split, p: Params) -> TrajectorySample:
    """Total energy and contact slip at one time; split(y, p) gives (State, q, v)."""
    state, q, v = split(y, p)
    energy = kinetic_energy(q, v, p) + potential_energy(q, p)
    r1, r2 = constraint_residual(q, v, p).tolist()
    return tuple.__new__(TrajectorySample, (t, state, energy, max(abs(r1), abs(r2))))


def _run(cfg: ScenarioConfig, scenario: str, y, advance, split) -> Trajectory:
    """Step y with advance(y, dt, p) and sample every step. A step that hits
    the flat-disk band, or whose state, energy or residual is not finite,
    ends the run; the partial trajectory ends at the start of the failed step
    and carries the reason."""
    p, dt = cfg.params, cfg.dt
    samples = [_sample(0.0, y, split, p)]
    reason = None
    for i in range(cfg.n_steps()):
        try:
            y = advance(y, dt, p)
            sample = _sample((i + 1) * dt, y, split, p)
            if not all(map(math.isfinite, (*y, sample.energy, sample.residual))):
                reason = NON_FINITE
        except SingularConfiguration:
            reason = SINGULAR
        except ValueError:  # math.sin/cos of an infinite angle, or a solve on inf or NaN
            reason = NON_FINITE
        if reason is not None:
            break
        samples.append(sample)
    return Trajectory(scenario, p, dt, tuple(samples), reason)


def _split_reduced(x: State, p: Params):
    q = x[:5]
    return x, q, consistent_velocity(q, x[5:], p)


def integrate(cfg: ScenarioConfig) -> Trajectory:
    """Run the reduced-state simulation described by cfg with step_rk4.

    Returns the full trajectory sampled at every step. If a step hits the
    flat-disk band, integration stops; the partial trajectory ends with the
    last sample before the failed step, at its start time, and carries
    failure_reason.
    """
    return _run(cfg, cfg.name, cfg.x0, step_rk4, _split_reduced)


def _deriv_10dim(y: list, p: Params) -> list:
    return y[5:10] + solve_system(y[0:5], y[5:10], p).tolist()[2:7]


def _split_10dim(y: list, p: Params):
    return State._make(y[0:5] + y[7:10]), y[0:5], y[5:10]


def integrate_10dim(cfg: ScenarioConfig) -> Trajectory:
    """Run the unreduced formulation with integrated center rates.

    The initial center rates are reconstructed from the contact once, then
    integrated as ordinary unknowns with accelerations from the augmented
    linear solve. The per-sample residual now measures genuine constraint
    drift rather than holding at rounding level by construction.
    """
    q0 = cfg.x0.coords()
    y0 = [float(v) for v in (*q0, *consistent_velocity(q0, cfg.x0.rates(), cfg.params))]
    return _run(cfg, cfg.name + "-10dim", y0, partial(_rk4, _deriv_10dim), _split_10dim)


def scenario_preset(name: str) -> ScenarioConfig:
    """Named reference scenario with the standard constants m=5, g=9.81, r=1.

    Presets: "precession" (tilted fast-spinning disk, wandering turning
    radius), "circle" (spin rate matched to the tilt so the center traces a
    circle), "straight" (upright disk rolling a line), "spin" (disk turning
    in place). Unknown names raise ValueError.
    """
    p = Params()
    if name == "precession":
        x0 = State(2.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0)
        return ScenarioConfig(name, p, x0, t_end=10.0, dt=1e-3)
    if name == "circle":
        theta, dpsi = 0.5, 1.0
        x0 = State(2.0, 0.0, 0.0, theta, 0.0, circular_spin(theta, dpsi, p), 0.0, dpsi)
        return ScenarioConfig(name, p, x0, t_end=6.0, dt=1e-3)
    if name == "straight":
        x0 = State(2.0, 0.0, 0.0, 0.0, 0.0, 2.5, 0.0, 0.0)
        return ScenarioConfig(name, p, x0, t_end=5.0, dt=1e-3)
    if name == "spin":
        x0 = State(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        return ScenarioConfig(name, p, x0, t_end=5.0, dt=1e-3)
    raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(PRESET_NAMES)}")


def diagnostics_summary(traj: Trajectory) -> Summary:
    """Aggregate per-sample diagnostics into headline numbers."""
    energies = np.array([s.energy for s in traj.samples])
    e0 = float(energies[0])
    denom = abs(e0) if e0 != 0.0 else 1.0
    drift = np.abs(energies - e0) / denom
    min_cos = min(abs(math.cos(s.state.theta)) for s in traj.samples)
    return Summary(
        max_energy_drift=float(np.max(drift)),
        mean_energy_drift=float(np.mean(drift)),
        max_residual=max(s.residual for s in traj.samples),
        min_abs_cos_theta=min_cos,
    )
