"""Fused multiply-add on Python floats, so that the program, not a BLAS
kernel, fixes how the energy and slip sums round.

For |a|, |b| in (1e-125, 1e125) Veltkamp's split makes a*b four exact
partial products (Dekker 1971) below 1e250, and math.fsum rounds their sum
with c once and cannot overflow. Elsewhere _fma_exact divides one integer
ratio, which CPython rounds correctly.
"""

from __future__ import annotations

import math

# Veltkamp's split constant 2**27 + 1: a = hi + lo, each of at most 26 bits.
_SPLIT = 134217729.0


def _fma_exact(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, by integer arithmetic."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    num = an * bn * cd + cn * ad * bd
    if num == 0:  # a zero product or an exact cancellation: float addition signs the zero as IEEE does
        return a * b + c
    try:
        return num / (ad * bd * cd)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def fma(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, with math.fma's bits (3.13 on) wherever that returns,
    on every Python. It never raises: inf, NaN, overflow and signed zeros are
    IEEE 754 fma's."""
    if 1e-125 < abs(a) < 1e125 and 1e-125 < abs(b) < 1e125:
        t = _SPLIT * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        return math.fsum((ah * bh, ah * bl, al * bh, al * bl, c))
    if a == 0.0 or b == 0.0:  # an exact zero product, or NaN for a zero times an inf
        return a * b + c
    return _fma_exact(a, b, c)

