"""Cross-validation sweeps: closed forms against the linear solve and the
complex-step rebuild of the equations of motion from the Lagrangian.

A sweep runs on the unit disk of its Params, assembly.unit_disk: m = r = 1
under gravity g/r. The disk's L is m r^2 times that disk's, so g/r is the
sweep's one parameter; there lambda = ddc and all seven unknowns share one
scale of 1/s^2, so the normwise error sees each of them. The sweep certifies
the equations, not the float range of the m r scale-back to the disk; the
unit-disk scaling test of test_symbolic and the benchmark's route checks at
m = 5 cover that. Sampled states, and the worst ones reported, hold center
positions and rates in units of r.

Sampling stays clear of the flat-disk band (|stand angle| <= 1.2 keeps
cos(theta) >= 0.36). The five velocity components are drawn independently;
the eliminated unknowns do not depend on the center rates, so unconstrained
velocities exercise the algebra on a strictly larger domain than rolling
states would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, dynamics
from .energetics import GenCoords, GenVel, Params

# Max relative error allowed between the closed forms and either route, on
# the unit disk at g/r. At seed 42, 1000 samples, the worst over r = 1e-160,
# 1e-8, 1e-4 to 1e3, 1e6 and 1e300, g = 1e300 and (g, r) = (1e308, 1e10) is
# 1.7e-14 (oracle, r = 1e-4).
THRESHOLD = 1e-10


def sample_state(rng: np.random.Generator) -> tuple[GenCoords, GenVel]:
    """One random nonsingular (coordinates, velocity) pair."""
    q = GenCoords(
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1.2, 1.2),
        rng.uniform(-math.pi, math.pi),
    )
    v = GenVel(*rng.uniform(-3.0, 3.0, size=5).tolist())
    return q, v


def max_rel_diff(a, b) -> float:
    """Normwise relative difference max|a-b| / max(1, max|b|); inf when
    either side holds inf or NaN, so an unmeasurable error fails every bar."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def closed_form_seven(q: GenCoords, rates, p: Params) -> np.ndarray:
    """Closed-form (lambda1, lambda2, ddc1, ddc2, ddphi, ddtheta, ddpsi)."""
    return dynamics.closed_form_solution(q, rates, p)


def solve_seven(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    return assembly.solve_system(q, v, p)


def oracle_seven(q: GenCoords, v: GenVel, p: Params) -> np.ndarray:
    return assembly.solve_oracle_system(q, v, p)


# The two independent routes, by the name validate prints.
ROUTES = {"linear solve": solve_seven, "complex step": oracle_seven}


@dataclass(frozen=True)
class SweepReport:
    """Worst case of one validation sweep: per route name, the largest error
    and the unit-disk (q, v) at which it occurred."""

    worst: dict[str, tuple[float, tuple[GenCoords, GenVel]]]

    @property
    def passed(self) -> bool:
        return all(err < THRESHOLD for err, _ in self.worst.values())


def validation_sweep(p: Params, n_samples: int, seed: int) -> SweepReport:
    """Compare the closed forms against both independent routes on n samples
    of the unit disk of p.

    Route one: the direct LU solve of the closed-form augmented system.
    Route two: the solve of the system rebuilt from complex-step derivatives
    of the Lagrangian. Calls through the dynamics module namespace so a fault
    injected there is caught. A route that over- or underflows to inf or NaN
    has an infinite error. Raises assembly.unit_disk's ValueError when g/r is
    not a positive finite float.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    unit = assembly.unit_disk(p)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(ROUTES, (-1.0, None))
    for _ in range(n_samples):
        q, v = sample_state(rng)
        closed = closed_form_seven(q, v[2:5], unit)
        for name, route in ROUTES.items():
            err = max_rel_diff(closed, route(q, v, unit))
            if err > worst[name][0]:
                worst[name] = err, (q, v)
    return SweepReport(worst)
