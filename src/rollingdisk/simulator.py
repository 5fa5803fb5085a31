"""Fixed-step simulation of the rolling disk: classical RK4 on plain floats,
the one stepper either route runs.

integrate steps the reduced state and rebuilds the center rates from the
contact at every evaluation, so the rolling constraint holds by
construction. integrate_10dim integrates the center rates too, with
accelerations from assembly.solve_system, so its residual measures how far
the unreduced formulation drifts off the constraint. The same configuration
gives the same bits. Samples and the summary hold plain floats, and this
module imports no numpy.

A run that meets the flat-disk band, or a step that leaves a non-finite
state, energy or residual, returns the partial trajectory with its
failure_reason set instead of raising.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .constraints import consistent_velocity, constraint_residual
from .dynamics import State, circular_spin, state_derivative
from .energetics import Params, kinetic_energy, potential_energy
from .assembly import solve_system
from .singularity import SingularConfiguration

# A run's keys, as a preset or a config file holds them, and the presets' values by name,
# keyed by CONFIG_KEYS. Read-only: a caller that merges other values into an entry copies it first.
CONFIG_KEYS = ("m", "g", "r", "x0", "t_end", "dt")
PRESETS = MappingProxyType({name: MappingProxyType({**vars(Params()), "x0": x0, "t_end": t_end, "dt": 1e-3})
                            for name, x0, t_end in (
    ("precession", State(2.0, 0.0, 0.0, 0.1, 0.0, 2.5, 0.0, 0.0), 10.0),
    ("circle", State(2.0, 0.0, 0.0, 0.5, 0.0, circular_spin(0.5, 1.0, Params()), 0.0, 1.0), 6.0),
    ("straight", State(2.0, 0.0, 0.0, 0.0, 0.0, 2.5, 0.0, 0.0), 5.0),
    ("spin", State(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 5.0))})
PRESET_NAMES = tuple(PRESETS)

# A run holds every sample, 464 bytes each (tracemalloc, CPython 3.11, x86_64): 10**7 steps hold 4.6 GB.
MAX_STEPS = 10**7

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
        if self.n_steps() > MAX_STEPS:
            raise ValueError(f"t_end={self.t_end!r} / dt={self.dt!r} exceeds MAX_STEPS={MAX_STEPS} steps")
        # The run takes n_steps() steps of dt and no partial one, so it would
        # silently stop short of (or beyond) a horizon that is not a multiple.
        if abs(self.n_steps() * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end!r} is not a whole number of steps dt={self.dt!r}")

    @classmethod
    def from_values(cls, name: str, values) -> ScenarioConfig:
        """The run that values, keyed by CONFIG_KEYS, describe. ValueError for a missing or
        unknown key, a value that is no int or float (a bool is none), or an x0 that is not a
        list or tuple of eight; Params and __post_init__ check the ranges."""
        for key in (*CONFIG_KEYS, *values):
            if (key in values) != (key in CONFIG_KEYS):
                raise ValueError(f"{'unknown' if key in values else 'missing'} key {reprlib.repr(key)}")
        if not (isinstance(x0 := values["x0"], (list, tuple)) and len(x0) == 8):
            raise ValueError("x0 must be a list of 8 numbers")
        for key, value in values.items():  # float() would take "5", and True is an int
            if bad := [v for v in (x0 if key == "x0" else [value]) if type(v) not in (int, float)]:
                raise ValueError(f"{key} must hold numbers, got {reprlib.repr(bad[0])}")
        return cls(name, Params(**{k: float(values[k]) for k in ("m", "g", "r")}),
                   State.from_iterable(x0), float(values["t_end"]), float(values["dt"]))

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
    """Immutable result of running config. failure_reason is None iff the run
    completed, else SINGULAR or NON_FINITE; a failed run stopped at the time
    of its last sample, samples[-1].t."""

    config: ScenarioConfig
    samples: tuple[TrajectorySample, ...]
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


@dataclass(frozen=True)
class Summary:
    """Headline diagnostics of a trajectory."""

    max_energy_drift: float
    mean_energy_drift: float
    max_residual: float
    min_abs_cos_theta: float


def step_rk4(x: State, dt: float, p: Params) -> State:
    """One classical RK4 step of size dt on the reduced state, written out over
    its eight floats in the operation order _step_10dim shares. No slope reads
    c1, c2 or phi, so the inner stages hand them on at the step's start
    values and the result keeps textbook RK4's bits. state_derivative is
    looked up at each call, so a tracer can patch it."""
    half, sixth = 0.5 * dt, dt / 6
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    a0, a1, a2, a3, a4, a5, a6, a7 = state_derivative(x, p)
    b0, b1, b2, b3, b4, b5, b6, b7 = state_derivative([
        x0, x1, x2, x3 + half * a3, x4 + half * a4, x5 + half * a5, x6 + half * a6, x7 + half * a7], p)
    c0, c1, c2, c3, c4, c5, c6, c7 = state_derivative([
        x0, x1, x2, x3 + half * b3, x4 + half * b4, x5 + half * b5, x6 + half * b6, x7 + half * b7], p)
    d0, d1, d2, d3, d4, d5, d6, d7 = state_derivative([
        x0, x1, x2, x3 + dt * c3, x4 + dt * c4, x5 + dt * c5, x6 + dt * c6, x7 + dt * c7], p)
    return tuple.__new__(State, (
        x0 + sixth * (a0 + 2.0 * (b0 + c0) + d0), x1 + sixth * (a1 + 2.0 * (b1 + c1) + d1),
        x2 + sixth * (a2 + 2.0 * (b2 + c2) + d2), x3 + sixth * (a3 + 2.0 * (b3 + c3) + d3),
        x4 + sixth * (a4 + 2.0 * (b4 + c4) + d4), x5 + sixth * (a5 + 2.0 * (b5 + c5) + d5),
        x6 + sixth * (a6 + 2.0 * (b6 + c6) + d6), x7 + sixth * (a7 + 2.0 * (b7 + c7) + d7)))


def _sample(t: float, y, split, p: Params) -> TrajectorySample:
    """Total energy and contact slip at one time; split(y, p) gives (State, q, v)."""
    state, q, v = split(y, p)
    energy = kinetic_energy(q, v, p) + potential_energy(q, p)
    r1, r2 = constraint_residual(q, v, p)
    return tuple.__new__(TrajectorySample, (t, state, energy, max(abs(r1), abs(r2))))


def _run(cfg: ScenarioConfig, y, advance, split) -> Trajectory:
    """Step y with advance(y, dt, p) and sample every step. Nothing warns: Python
    floats overflow to inf silently and the 7x7 solve raises no warning, so
    an overflow ends the run as NON_FINITE under any warnings filter."""
    p, dt = cfg.params, cfg.dt
    reason = None
    samples = [_sample(0.0, y, split, p)]
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
    return Trajectory(cfg, tuple(samples), reason)


def _split_reduced(x: State, p: Params):
    q = x[:5]
    return x, q, consistent_velocity(q, x[5:], p)


def integrate(cfg: ScenarioConfig) -> Trajectory:
    """Run cfg on the reduced state with step_rk4, sampled at every step."""
    return _run(cfg, cfg.x0, step_rk4, _split_reduced)


def _step_10dim(y: list, dt: float, p: Params) -> list:
    """One classical RK4 step of the five coordinates and five rates, in
    step_rk4's operation order, with the accelerations from solve_system,
    looked up at each call so a tracer can patch it. The solve reads no c1,
    c2 or phi, so the inner stages hand them on as step_rk4's do."""
    half, sixth = 0.5 * dt, dt / 6
    x0, x1, x2, x3, x4, u0, u1, u2, u3, u4 = y
    _, _, a0, a1, a2, a3, a4 = solve_system((x0, x1, x2, x3, x4), (u0, u1, u2, u3, u4), p)
    v0, v1, v2, v3, v4 = u0 + half * a0, u1 + half * a1, u2 + half * a2, u3 + half * a3, u4 + half * a4
    _, _, b0, b1, b2, b3, b4 = solve_system(
        (x0, x1, x2, x3 + half * u3, x4 + half * u4), (v0, v1, v2, v3, v4), p)
    w0, w1, w2, w3, w4 = u0 + half * b0, u1 + half * b1, u2 + half * b2, u3 + half * b3, u4 + half * b4
    _, _, c0, c1, c2, c3, c4 = solve_system(
        (x0, x1, x2, x3 + half * v3, x4 + half * v4), (w0, w1, w2, w3, w4), p)
    z0, z1, z2, z3, z4 = u0 + dt * c0, u1 + dt * c1, u2 + dt * c2, u3 + dt * c3, u4 + dt * c4
    _, _, d0, d1, d2, d3, d4 = solve_system(
        (x0, x1, x2, x3 + dt * w3, x4 + dt * w4), (z0, z1, z2, z3, z4), p)
    return [x0 + sixth * (u0 + 2.0 * (v0 + w0) + z0), x1 + sixth * (u1 + 2.0 * (v1 + w1) + z1),
            x2 + sixth * (u2 + 2.0 * (v2 + w2) + z2), x3 + sixth * (u3 + 2.0 * (v3 + w3) + z3),
            x4 + sixth * (u4 + 2.0 * (v4 + w4) + z4), u0 + sixth * (a0 + 2.0 * (b0 + c0) + d0),
            u1 + sixth * (a1 + 2.0 * (b1 + c1) + d1), u2 + sixth * (a2 + 2.0 * (b2 + c2) + d2),
            u3 + sixth * (a3 + 2.0 * (b3 + c3) + d3), u4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)]


def _split_10dim(y: list, p: Params):
    return State._make(y[0:5] + y[7:10]), y[0:5], y[5:10]


def integrate_10dim(cfg: ScenarioConfig) -> Trajectory:
    """Run cfg with the center rates integrated as unknowns: they start from
    the contact, then take their accelerations from solve_system."""
    q0 = cfg.x0.coords()
    y0 = [float(v) for v in (*q0, *consistent_velocity(q0, cfg.x0.rates(), cfg.params))]
    return _run(cfg, y0, _step_10dim, _split_10dim)


def scenario_preset(name: str) -> ScenarioConfig:
    """The preset run of PRESETS by name; an unknown name raises ValueError.

    "precession" is a tilted, fast-spinning disk, "straight" an upright disk
    rolling a line, "spin" a disk turning in place. "circle" takes its spin
    from circular_spin at import, for its own g and r, so it rolls a circle;
    a g or r override keeps that spin, and the disk nutates."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return ScenarioConfig.from_values(name, PRESETS[name])


def diagnostics_summary(traj: Trajectory) -> Summary:
    """Aggregate per-sample diagnostics into headline numbers; the mean drift
    is correctly rounded. An infinite first energy gives NaN drift."""
    energies = [s.energy for s in traj.samples]
    e0 = energies[0]
    denom = abs(e0) if e0 != 0.0 else 1.0
    drift = [abs(e - e0) / denom for e in energies]
    try:  # no drift is negative, so fsum meets no inf - inf
        mean = math.fsum(drift) / len(drift)
    except OverflowError:  # a sum past the float maximum, which np.mean also rounds to inf
        mean = math.inf
    return Summary(
        # The mean is NaN exactly when a drift is, and then so is np.max.
        max_energy_drift=mean if math.isnan(mean) else max(drift),
        mean_energy_drift=mean,
        max_residual=max(s.residual for s in traj.samples),
        min_abs_cos_theta=min(abs(math.cos(s.state.theta)) for s in traj.samples),
    )
