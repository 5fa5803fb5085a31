"""Dynamics of a rigid disk rolling without slipping on a horizontal plane.

The equations of motion are written in closed form and cross-checked
against a 7x7 linear solve and a complex-step rebuild from the Lagrangian.
The package root exports only __version__: import the submodules, simulator
to run scenarios and cli for the command line.
"""

__version__ = "0.1.0"
