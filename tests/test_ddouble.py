"""Error-free transformations and double-double arithmetic.

Oracles: exact Fraction arithmetic for the algebraic identities, and
math.fsum (correctly rounded) for compensated sums.
"""

import math
from fractions import Fraction

import numpy as np

from polycauchy._ddouble import (
    dd_add,
    dd_div,
    dd_mul,
    dd_mul_scalar,
    dd_weighted_sum,
    two_prod,
    two_sum,
)

RNG = np.random.default_rng(91)
SAMPLES = [
    (0.1, 0.2),
    (1.0, 1e-17),
    (1e8, -1e8 + 0.5),
    (math.pi, math.e),
    (-3.25, 7.0 / 3.0),
]
SAMPLES += [tuple(RNG.uniform(-10, 10, 2)) for _ in range(20)]


def as_fraction(h, l=0.0):
    return Fraction(float(h)) + Fraction(float(l))


def test_two_sum_is_exact():
    # s + e reproduces a + b with no rounding at all
    for a, b in SAMPLES:
        s, e = two_sum(a, b)
        assert as_fraction(s, e) == Fraction(a) + Fraction(b)
        assert s == a + b


def test_two_prod_is_exact():
    for a, b in SAMPLES:
        p, e = two_prod(a, b)
        assert as_fraction(p, e) == Fraction(a) * Fraction(b)
        assert p == a * b


def test_dd_add_mul_relative_error():
    # each dd operation keeps ~2e-32 relative accuracy
    for (a, b), (c, d) in zip(SAMPLES[:-1], SAMPLES[1:]):
        xh, xl = two_sum(a, b)
        yh, yl = two_sum(c, d)
        x, y = as_fraction(xh, xl), as_fraction(yh, yl)

        sh, sl = dd_add(xh, xl, yh, yl)
        if x + y != 0:
            assert abs(as_fraction(sh, sl) - (x + y)) <= abs(x + y) * Fraction(1, 10**30)

        ph, pl = dd_mul(xh, xl, yh, yl)
        if x * y != 0:
            assert abs(as_fraction(ph, pl) - x * y) <= abs(x * y) * Fraction(1, 10**30)


def test_dd_div_matches_fraction():
    for (a, b), (c, d) in zip(SAMPLES[:-1], SAMPLES[1:]):
        xh, xl = two_sum(a, b)
        yh, yl = two_sum(c, d)
        if yh == 0.0:
            continue
        qh, ql = dd_div(xh, xl, yh, yl)
        want = as_fraction(xh, xl) / as_fraction(yh, yl)
        if want != 0:
            assert abs(as_fraction(qh, ql) - want) <= abs(want) * Fraction(1, 10**29)


def test_dd_mul_scalar_exact_small_ints():
    xh, xl = two_sum(0.1, 0.2)
    ph, pl = dd_mul_scalar(xh, xl, 7.0)
    assert abs(as_fraction(ph, pl) - 7 * as_fraction(xh, xl)) <= Fraction(1, 10**30)


def test_dd_ops_elementwise_match_scalar():
    a = RNG.uniform(-5, 5, 16)
    b = RNG.uniform(-5, 5, 16)
    hh, ll = dd_mul(a, np.zeros(16), b, np.zeros(16))
    for i in range(16):
        sh, sl = dd_mul(a[i], 0.0, b[i], 0.0)
        assert hh[i] == sh and ll[i] == sl


def test_dd_weighted_sum_matches_fsum():
    # fsum is correctly rounded; the dd accumulation should agree to 1 ulp
    hi = RNG.uniform(-1, 1, 200) * np.logspace(-8, 8, 200)
    lo = np.zeros_like(hi)
    w = RNG.uniform(0, 1, 200)
    got = dd_weighted_sum(hi, lo, w)
    want = math.fsum([float(x) * float(y) for x, y in zip(hi, w)])
    assert abs(got - want) <= 1e-15 * abs(want)


def test_dd_weighted_sum_cancellation():
    # pairwise cancelling terms: plain summation loses everything here
    hi = np.array([1e16, 1.0, -1e16, 1e-8])
    lo = np.zeros(4)
    w = np.ones(4)
    got = dd_weighted_sum(hi, lo, w)
    assert got == 1.0 + 1e-8


def test_dd_weighted_sum_stacked_rows_match_1d():
    # a leading entry axis runs every row through the 1-D operation sequence
    hi = RNG.uniform(-1, 1, (5, 40)) * np.logspace(-6, 6, 40)
    lo = hi * 1e-17
    w = RNG.uniform(0, 1, 40)
    got = dd_weighted_sum(hi, lo, w)
    assert got.shape == (5,)
    for row in range(5):
        assert got[row] == dd_weighted_sum(hi[row], lo[row], w)
    assert dd_weighted_sum(hi[:0], lo[:0], w).shape == (0,)
