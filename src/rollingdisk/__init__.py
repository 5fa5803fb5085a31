"""Dynamics of a rigid disk rolling without slipping on a horizontal plane.

The package derives nothing at runtime: the equations of motion are coded in
closed form and continuously cross-checked against a direct linear solve of
the constrained system and against a complex-step rebuild of the
variational equations from the Lagrangian. Import the submodules directly:
simulator for running scenarios, cli for the command-line front end.
"""

__version__ = "0.1.0"
