"""Guard for the flat-disk configuration.

When the disk lies horizontal (stand angle at +/- pi/2) the contact frame
degenerates: heading and spin stop being independent and the reduced state
equations divide by cos(theta). Everything downstream treats a band of width
SINGULAR_COS_THETA around that configuration as out of domain.

What the cutoff buys, on sample_state draws at seed 7 (theta = +-acos|cos
theta| in turn, unit disk at g/r = 9.81): the closed forms that reduced runs
use, closed_form_solution, stay within 3.3e-16 of the derived system solved at
50 digits at every |cos theta| from 0.36 down to 1.1e-6 (20 draws per row, in
tests/test_symbolic.py). The routes that cross-check it, solve_system /
solve_oracle_system, read 1.0e-14 / 1.5e-14 at 0.36, 8.5e-11 / 9.6e-11 at
4.5e-3, 1.5e-9 / 1.4e-9 at 1e-3 and 1.2e-3 / 1.2e-3 at 1.1e-6 (60 draws per
row): err cos^2(theta) stays within 1.3e-15 to 2.0e-15, as G's (phi, psi)
block has determinant cos^2(theta) / 8, a cancellation of rounded entries
that no solver recovers. So both cross validation.THRESHOLD = 1e-10 near
|cos theta| = 4.5e-3, while a run goes on down to 1e-6.
"""

from __future__ import annotations

import math

# |cos theta| at or below this counts as horizontal.
SINGULAR_COS_THETA = 1e-6


class SingularConfiguration(Exception):
    """Stand angle too close to +/- pi/2 for the rolling dynamics to hold.

    Carries the offending angle so a caller can report where a run died.
    """

    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(
            f"stand angle theta={theta!r} is numerically horizontal "
            f"(|cos theta|={abs(math.cos(theta)):.3e}, cutoff {SINGULAR_COS_THETA:g})"
        )


def checked_cos_theta(theta: float) -> float:
    """Return cos(theta), raising SingularConfiguration inside the SINGULAR_COS_THETA band."""
    c = math.cos(theta)
    if abs(c) <= SINGULAR_COS_THETA:
        raise SingularConfiguration(theta)
    return c
