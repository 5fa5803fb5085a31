"""Cross-validation sweeps: the closed forms against assembly's linear solve
and against its complex-step rebuild from the Lagrangian, on random states.

A sweep runs on assembly.unit_disk(p), m = r = 1 under gravity g/r, so g/r
is its one parameter. There lambda = ddc and all seven unknowns share one
scale of 1/s^2, so the normwise error sees each of them. A sweep certifies
the equations, not the float range of the m r scale-back to the disk;
test_symbolic's unit-disk scaling test and the benchmark's route checks at
m = 5 cover that. numpy, which only draws the states, is imported when a
sweep runs.
"""

from __future__ import annotations

import math

from . import assembly, dynamics
from .energetics import Params

# Max relative error allowed between the closed forms and either route.
THRESHOLD = 1e-10


def sample_state(rng) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One random (coordinates, velocity) pair of 5-tuples, drawn from rng, a
    numpy Generator. |theta| <= 1.2 keeps |cos theta| >= 0.36, clear of the
    flat-disk band. The five velocities are independent: the unknowns do not
    depend on the center rates, so this covers more than rolling states."""
    q = (
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-1.2, 1.2),
        rng.uniform(-math.pi, math.pi),
    )
    v = tuple(rng.uniform(-3.0, 3.0, size=5).tolist())
    return q, v


def max_rel_diff(a, b) -> float:
    """Normwise relative difference max|a-b| / max(1, max|b|) of two equally long
    sequences; inf when either holds inf or NaN, so it fails every bar."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    if not all(map(math.isfinite, a + b)):
        return math.inf
    return max(abs(x - y) for x, y in zip(a, b, strict=True)) / max(1.0, max(map(abs, b)))


def closed_form_seven(q, rates, p: Params) -> tuple[float, ...]:
    """dynamics.closed_form_solution, looked up in the module at each call so a
    fault injected there is caught."""
    return dynamics.closed_form_solution(q, rates, p)


def solve_seven(q, v, p: Params) -> tuple[float, ...]:
    return assembly.solve_system(q, v, p)


def oracle_seven(q, v, p: Params) -> tuple[float, ...]:
    return assembly.solve_oracle_system(q, v, p)


# The two independent routes, by the name validate prints.
ROUTES = {"linear solve": solve_seven, "complex step": oracle_seven}


def validation_sweep(p: Params, n_samples: int, seed: int) -> dict:
    """The closed forms against each route of ROUTES on n samples of the unit
    disk of p: per route name, the largest error and the unit-disk (q, v),
    center in units of r, where it occurred. An error of THRESHOLD or more
    fails; a route that over- or underflows has an infinite error. Raises
    assembly.unit_disk's ValueError when g/r is not a positive finite float.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    import numpy as np

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
    return worst
