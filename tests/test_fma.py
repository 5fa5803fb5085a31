import math
import random
import struct
import sys

import pytest

from rollingdisk.fma import _fma_exact, fma

MAX = sys.float_info.max
# fma, and the exact form it falls back to outside its own range.
BRANCHES = [_fma_exact, fma]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same(x: float, y: float) -> bool:
    """Bit-equal, or both NaN."""
    return bits(x) == bits(y) or (math.isnan(x) and math.isnan(y))


def random_triples(seed: int, count: int, lo: float, hi: float):
    """(a, b, c) with decimal exponents of a and b in (lo, hi); c is random, or
    -a*b nudged by a few ulps or more, so that a*b + c nearly cancels."""
    rng = random.Random(seed)
    draw = lambda: rng.choice((-1.0, 1.0)) * (1.0 + rng.random()) * 10.0 ** rng.uniform(lo, hi)
    for _ in range(count):
        a, b = draw(), draw()
        if rng.random() < 0.5:
            c = -a * b * (1.0 + rng.choice((-1.0, 1.0)) * 2.0 ** -rng.randint(1, 60))
        else:
            c = rng.choice((-1.0, 1.0)) * (1.0 + rng.random()) * 10.0 ** rng.uniform(-300, 300)
        yield a, b, c


@pytest.mark.parametrize("lo, hi", [(-300.0, 300.0), (-124.0, 124.0), (-2.0, 2.0)])
def test_fast_form_is_the_exact_form(lo, hi):
    # (-124, 124) keeps both factors in the fast form's own range, so that
    # Dekker's split and fsum decide every bit; (-300, 300) crosses into the
    # exact form and the subnormals; (-2, 2) is where the kernels' values live.
    for a, b, c in random_triples(int(hi), 20_000, lo, hi):
        want = _fma_exact(a, b, c)
        assert bits(fma(a, b, c)) == bits(want), (a, b, c)
        if hasattr(math, "fma") and math.isfinite(want):
            assert bits(math.fma(a, b, c)) == bits(want), (a, b, c)


def test_exact_form_rounds_once():
    # 1 + 2**-52 squared is 1 + 2**-51 + 2**-104: a*b alone rounds the last
    # term away, and a*b - (1 + 2**-51) is 0.0 where fma keeps 2**-104.
    a = 1.0 + 2.0 ** -52
    for f in BRANCHES:
        assert f(a, a, -(1.0 + 2.0 ** -51)) == 2.0 ** -104
        assert a * a - (1.0 + 2.0 ** -51) == 0.0


@pytest.mark.parametrize("a, b", [(math.inf, 2.0), (-math.inf, 2.0), (2.0, math.inf), (math.inf, 0.0),
                                  (0.0, -math.inf), (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)])
@pytest.mark.parametrize("c", [1.0, -0.0, math.inf, -math.inf, math.nan])
def test_an_infinite_or_nan_factor_gives_a_times_b_plus_c(a, b, c):
    for f in BRANCHES:
        assert same(f(a, b, c), a * b + c), f


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (-1e300, 1e300), (1e300, 1e300), (0.0, -1.0), (1e-300, 1e-300)])
@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_a_finite_product_leaves_an_infinite_or_nan_c(a, b, c):
    # As IEEE fma: the exact product of finite factors is finite even where
    # a*b overflows, so fma(-1e300, 1e300, inf) is inf, not -inf + inf.
    for f in BRANCHES:
        assert same(f(a, b, c), c), f


@pytest.mark.parametrize("a, b, c, want", [
    (1e300, 1e300, 0.0, math.inf),
    (-1e300, 1e300, 0.0, -math.inf),
    (1e300, -1e300, -MAX, -math.inf),
    (MAX, 1.0, MAX, math.inf),
    (-MAX, 1.0, -MAX, -math.inf),
    (MAX, 2.0, -MAX, MAX),
    (1e200, 1e200, -MAX, math.inf),
    # In the fast form's range, with c at the float maximum: fsum sums one
    # huge term and products below 1e250, and must neither raise nor overflow.
    (1e124, 1e124, MAX, MAX),
    (-1e124, 1e124, -MAX, -MAX),
    (1e124, 1e124, -MAX, -MAX),
    (3.0, 7.0, MAX, MAX),
])
def test_overflow_gives_the_signed_inf_and_never_raises(a, b, c, want):
    for f in BRANCHES:
        assert f(a, b, c) == want, f
        assert f(a, b, c) == _fma_exact(a, b, c), f


@pytest.mark.parametrize("a, b, c", [
    (x, y, z) for x in (0.0, -0.0) for y in (1.0, -1.0) for z in (0.0, -0.0)
] + [(1.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (0.0, math.inf, 0.0)])
def test_zero_products_sign_their_zero_as_ieee(a, b, c):
    # A zero product and a zero c: the sum is -0.0 only when both are -0.0.
    for f in BRANCHES:
        assert same(f(a, b, c), a * b + c), f
    assert bits(_fma_exact(-0.0, 1.0, -0.0)) == bits(-0.0)


@pytest.mark.parametrize("a, b, c, want", [
    (3.0, 7.0, -21.0, 0.0),  # an exact cancellation rounds to +0.0
    (-3.0, 7.0, 21.0, 0.0),
    (1e-200, 1e-200, 0.0, 0.0),  # an underflow keeps the sign of the exact result
    (-1e-200, 1e-200, 0.0, -0.0),
    (-1e-200, 1e-200, -0.0, -0.0),
    (1e-200, 1e-200, -0.0, 0.0),
])
def test_zero_results_sign_their_zero_as_ieee(a, b, c, want):
    for f in BRANCHES:
        assert bits(f(a, b, c)) == bits(want), f
