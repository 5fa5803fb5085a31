"""The flat-disk guard.

With the disk horizontal (theta at +-pi/2) heading and spin stop being
independent and the reduced equations divide by cos(theta). Every route
calls checked_cos_theta first, so inside |cos theta| <= SINGULAR_COS_THETA
everything raises SingularConfiguration. Down to that cutoff the closed
forms hold to roundoff, while both linear routes lose accuracy as
1/cos^2(theta), as G's (phi, psi) block has determinant cos^2(theta) / 8,
and cross validation.THRESHOLD well before a run stops:
tests/test_symbolic.py's
test_closed_forms_hold_to_the_extended_precision_solve_down_to_the_cutoff
holds them to 1e-14 and 2e-14 / cos^2(theta).
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
