"""Guard for the flat-disk configuration.

When the disk lies horizontal (stand angle at +/- pi/2) the contact frame
degenerates: heading and spin stop being independent and the reduced state
equations divide by cos(theta). Everything downstream treats a band of width
SINGULAR_COS_THETA around that configuration as out of domain.
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
        self.cos_theta = math.cos(theta)
        super().__init__(
            f"stand angle theta={theta!r} is numerically horizontal "
            f"(|cos theta|={abs(self.cos_theta):.3e}, cutoff {SINGULAR_COS_THETA:g})"
        )


def checked_cos_theta(theta: float, cutoff: float = SINGULAR_COS_THETA) -> float:
    """Return cos(theta), raising SingularConfiguration inside the cutoff band."""
    c = math.cos(theta)
    if abs(c) <= cutoff:
        raise SingularConfiguration(theta)
    return c
