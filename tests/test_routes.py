"""Which src functions the three constructions of the equations share.

validate compares the closed forms with two linear routes, the solve of the
closed-form 7x7 system and the solve of the system the complex-step oracle
rebuilds from the Lagrangian. The check is only as independent as the code
the routes do not share, so each pairwise intersection of the functions they
run is declared here, with why sharing it is safe, and a helper that creeps
into two routes fails the test. The reduced route that simulate runs is tied
to the same check: each function it runs is either one validate compares or
named with the tier-1 test that holds it.
"""

import ast
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import rollingdisk
from rollingdisk import assembly, validation
from rollingdisk.energetics import Params
from rollingdisk.simulator import PRESET_NAMES, integrate, scenario_preset

PACKAGE = str(Path(rollingdisk.__file__).parent)
TESTS = Path(__file__).parent

# Why each function that two routes both run may be shared.
GUARD = "the one flat-disk guard, whose cutoff every route must read alike"
SHARED = {
    ("closed form", "linear solve"): {"singularity.checked_cos_theta": GUARD},
    ("closed form", "complex step"): {"singularity.checked_cos_theta": GUARD},
    ("linear solve", "complex step"): {
        "singularity.checked_cos_theta": GUARD,
        "assembly._checked_angles": "both solves reject a non-finite angle before any sine of it",
        "assembly._solve_unit": "one gesv call and the unit-disk scale-back, which hold no model algebra",
        "assembly._augmented": "places entries in the block layout, which test_assembly pins byte for byte",
        "constraints._constraint_entries": "L alone has no contact rows; test_symbolic derives A from the no-slip rule",
        "assembly._drift_entries": "L alone has no contact rows; test_symbolic derives the drift from A",
    },
}

# Each function the reduced route runs that validate's routes do not, with the
# tier-1 test that holds it.
HELD_ELSEWHERE = {
    "constraints.consistent_velocity": "tests/test_constraints.py::test_consistent_velocity_annihilated_by_matrix",
    "constraints.constraint_residual": "tests/test_constraints.py::test_residual_sees_slip",
    "dynamics.state_derivative": "tests/test_dynamics.py::TestStateDerivative::test_center_rates_come_from_contact",
    "simulator.step_rk4": "tests/test_simulator.py::TestSteppers::test_rk4_matches_textbook_rk4_bitwise",
    "simulator.integrate": "tests/test_acceptance.py::test_03_precession_energy_and_wandering_turn",
    "simulator._run": "tests/test_simulator.py::TestIntegrate::test_singular_start_returns_partial_trajectory",
    "simulator._sample": "tests/test_simulator.py::TestIntegrate::test_energy_and_residual_diagnostics",
    "simulator._split_reduced": "tests/test_simulator.py::TestIntegrate::test_energy_and_residual_diagnostics",
    "simulator.n_steps": "tests/test_simulator.py::TestIntegrate::test_sample_grid",
}


def called(run) -> set:
    """The src functions, as module.function, whose frames run(): comprehensions left out."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) and not code.co_name.startswith("<"):
            seen.add(frame.f_globals["__name__"].rpartition(".")[2] + "." + code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def route_calls() -> dict:
    """Per route name, the union of what it runs at a few sampled states of the default disk's unit disk."""
    unit = assembly.unit_disk(Params())
    routes = {"closed form": lambda q, v: validation.closed_form_seven(q, v[2:5], unit)}
    routes.update({name: lambda q, v, route=route: route(q, v, unit) for name, route in validation.ROUTES.items()})
    seen = {name: set() for name in routes}
    rng = np.random.default_rng(12)
    for _ in range(5):
        q, v = validation.sample_state(rng)
        for name, route in routes.items():
            seen[name] |= called(lambda: route(q, v))
    return seen


def test_routes_share_only_the_declared_functions():
    seen = route_calls()
    assert set(seen) == {name for pair in SHARED for name in pair}
    for a, b in itertools.combinations(seen, 2):
        shared = seen[a] & seen[b]
        assert shared == set(SHARED[a, b]), (a, b, sorted(shared ^ set(SHARED[a, b])))


def _defines(node_id: str) -> bool:
    """Whether the test file of node_id (path::[Class::]function) defines that test."""
    path, *names = node_id.split("::")
    body = ast.parse((TESTS.parent / path).read_text()).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_what_simulate_runs_is_compared_by_validate_or_held_by_a_test():
    compared = set().union(*route_calls().values())
    ran = set()
    for name in PRESET_NAMES:
        cfg = replace(scenario_preset(name), t_end=0.01)
        ran |= called(lambda: integrate(cfg))
    assert ran - compared == set(HELD_ELSEWHERE)
    assert [node for node in HELD_ELSEWHERE.values() if not _defines(node)] == []
