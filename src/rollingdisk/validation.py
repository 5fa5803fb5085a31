"""Cross-validation sweeps: closed forms against the linear solve and the
finite-difference rebuild of the equations of motion.

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

# Max relative error allowed between the closed forms and the direct solve.
SOLVE_THRESHOLD = 1e-9
# Max relative error allowed against the finite-difference rebuild.
ORACLE_THRESHOLD = 1e-5


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


@dataclass(frozen=True)
class SweepReport:
    """Worst-case errors of one validation sweep."""

    n_samples: int
    seed: int
    max_err_solve: float
    worst_solve: tuple[GenCoords, GenVel]
    max_err_oracle: float
    worst_oracle: tuple[GenCoords, GenVel]

    @property
    def passed(self) -> bool:
        return (
            self.max_err_solve < SOLVE_THRESHOLD
            and self.max_err_oracle < ORACLE_THRESHOLD
        )


def validation_sweep(p: Params, n_samples: int, seed: int) -> SweepReport:
    """Compare the closed forms against both independent routes on n samples.

    Route one: the direct LU solve of the closed-form augmented system.
    Route two: the solve of the system rebuilt from finite differences of
    the Lagrangian. Calls through the dynamics module namespace so a fault
    injected there is caught. A route that over- or underflows to inf or NaN
    has an infinite error. Parameters at which the model cannot be evaluated
    at all raise: SingularConfiguration when M is exactly singular in
    floating point, ArithmeticError or ValueError on overflow.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    max_err_solve = -1.0
    max_err_oracle = -1.0
    worst_solve = worst_oracle = None
    for _ in range(n_samples):
        q, v = sample_state(rng)
        closed = closed_form_seven(q, v.angular_rates(), p)
        err = max_rel_diff(closed, solve_seven(q, v, p))
        if err > max_err_solve:
            max_err_solve, worst_solve = err, (q, v)
        err = max_rel_diff(closed, oracle_seven(q, v, p))
        if err > max_err_oracle:
            max_err_oracle, worst_oracle = err, (q, v)
    return SweepReport(
        n_samples=n_samples,
        seed=seed,
        max_err_solve=max_err_solve,
        worst_solve=worst_solve,
        max_err_oracle=max_err_oracle,
        worst_oracle=worst_oracle,
    )
