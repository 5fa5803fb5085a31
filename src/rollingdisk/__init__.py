"""Dynamics of a rigid disk rolling without slipping on a horizontal plane.

The package derives nothing at runtime: the equations of motion are coded in
closed form and continuously cross-checked against a direct linear solve of
the constrained system and against a finite-difference rebuild of the
variational equations. See the simulator module for running scenarios and
the cli module for the command-line front end.
"""

from .assembly import (
    AugmentedSystem,
    GenAccel,
    constraint_accel_rows,
    euler_lagrange_lhs,
    oracle_lhs,
    solve_system,
)
from .constraints import (
    Multipliers,
    consistent_velocity,
    constraint_forces,
    constraint_matrix,
    constraint_residual,
)
from .dynamics import (
    State,
    StateDeriv,
    circular_spin,
    closed_form_accels,
    closed_form_center_accels,
    state_derivative,
)
from .energetics import (
    GenCoords,
    GenVel,
    Params,
    center_position,
    center_velocity,
    inertia_matrix,
    kinetic_energy,
    lagrangian,
    potential_energy,
)
from .kinematics import (
    EulerAngles,
    euler_rotation,
    rotation_vector,
    skew_build,
    skew_extract,
)
from .simulator import (
    ScenarioConfig,
    Summary,
    Trajectory,
    TrajectorySample,
    diagnostics_summary,
    integrate,
    integrate_10dim,
    scenario_preset,
    step_euler,
    step_rk4,
)
from .singularity import SINGULAR_COS_THETA, SingularConfiguration

__version__ = "0.1.0"

__all__ = [
    "AugmentedSystem",
    "EulerAngles",
    "GenAccel",
    "GenCoords",
    "GenVel",
    "Multipliers",
    "Params",
    "ScenarioConfig",
    "SingularConfiguration",
    "SINGULAR_COS_THETA",
    "State",
    "StateDeriv",
    "Summary",
    "Trajectory",
    "TrajectorySample",
    "center_position",
    "center_velocity",
    "circular_spin",
    "closed_form_accels",
    "closed_form_center_accels",
    "consistent_velocity",
    "constraint_accel_rows",
    "constraint_forces",
    "constraint_matrix",
    "constraint_residual",
    "diagnostics_summary",
    "euler_lagrange_lhs",
    "euler_rotation",
    "inertia_matrix",
    "integrate",
    "integrate_10dim",
    "kinetic_energy",
    "lagrangian",
    "oracle_lhs",
    "potential_energy",
    "rotation_vector",
    "scenario_preset",
    "skew_build",
    "skew_extract",
    "solve_system",
    "state_derivative",
    "step_euler",
    "step_rk4",
]
