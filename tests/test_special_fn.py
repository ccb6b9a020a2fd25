"""Terminating series and exact integer-argument helpers.

Primary oracle: exact Fraction arithmetic for every terminating sum.
scipy.special provides an independent second opinion where it has a
matching routine.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from polycauchy import (
    factorial,
    gamma_ratio,
    gauss2f1_unit,
    generalized_laguerre,
    kahan_sum,
    kummer_terminating,
    laguerre,
)
from polycauchy.special_fn import _laguerre_climb

T_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(9))


def kummer_oracle(p: int, b: int, t: Fraction) -> Fraction:
    """1F1(-p; b; t) summed in exact rational arithmetic."""
    total, term = Fraction(0), Fraction(1)
    for k in range(p + 1):
        total += term
        term *= Fraction(-(p - k)) * t / ((b + k) * (k + 1))
    return total


def test_kahan_sum_matches_fsum():
    rng = np.random.default_rng(5)
    terms = list(rng.uniform(-1, 1, 500) * np.logspace(-6, 6, 500))
    assert abs(kahan_sum(terms) - math.fsum(terms)) <= 1e-12 * abs(math.fsum(terms))


def test_kahan_sum_complex():
    # compensation keeps the tiny middle term to within one rounding
    # of the unit-magnitude partials
    terms = [1 + 1j, 1e-16 - 1e-16j, -1 - 1j]
    got = kahan_sum(terms)
    want = 1e-16 - 1e-16j
    assert abs(got - want) <= 2**-53 * abs(1 + 1j)


def test_factorial_exact():
    # correctly rounded up to the largest factorial a double holds
    for n in range(171):
        assert factorial(n) == float(math.factorial(n))
    with pytest.raises(OverflowError, match=r"factorial\(171\) overflows a double"):
        factorial(171)
    with pytest.raises(ValueError):
        factorial(-1)


def test_gamma_ratio_exact_integer_products():
    # Gamma(a)/Gamma(b) = product of integers between b and a
    assert gamma_ratio(7, 3) == 360.0
    assert gamma_ratio(3, 7) == 1.0 / 360.0
    assert gamma_ratio(5, 5) == 1.0
    assert gamma_ratio(1, 1) == 1.0
    for a in range(1, 15):
        for b in range(1, 15):
            want = math.factorial(a - 1) / math.factorial(b - 1)
            assert gamma_ratio(a, b) == pytest.approx(want, rel=1e-15)


def test_kummer_against_rational_oracle():
    # p, b <= 12 at the five reference abscissae, 1e-12 relative
    for p in range(13):
        for b in range(1, 13):
            for t in T_VALUES:
                want = float(kummer_oracle(p, b, t))
                got = kummer_terminating(p, b, float(t))
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_kummer_array_matches_scalar():
    t = np.array([0.0, 0.5, 1.0, 3.0, 9.0])
    got = kummer_terminating(7, 2, t)
    for i, ti in enumerate(t):
        assert got[i] == kummer_terminating(7, 2, float(ti))


def test_kummer_parameter_array_matches_scalar():
    t = np.array([float(v) for v in T_VALUES])
    b = np.arange(1, 13)
    for p in range(13):
        batch = kummer_terminating(p, b[:, None], t)
        assert batch.shape == (12, 5)
        for i, bi in enumerate(b.tolist()):
            for k, tk in enumerate(t.tolist()):
                assert batch[i, k] == kummer_terminating(p, bi, tk)
        # an array b against a scalar t
        assert kummer_terminating(p, b, 2.5).tolist() == [
            kummer_terminating(p, bi, 2.5) for bi in b.tolist()
        ]


def test_kummer_degree_array_matches_scalar():
    # one climb over rows of mixed degree, each leaving at its own
    # degree, equals the per-degree calls bit for bit
    t = np.array([float(v) for v in T_VALUES] + [17.5, 42.0])
    p = np.array([3, 0, 7, 1, 7, 12, 2])
    b = np.array([1, 4, 2, 9, 5, 1, 3])
    batch = kummer_terminating(p[:, None], b[:, None], t)
    assert batch.shape == (7, t.size)
    for i in range(p.size):
        assert batch[i].tobytes() == kummer_terminating(int(p[i]), int(b[i]), t).tobytes()
    # p broadcasts against b, and against a scalar t
    grid = kummer_terminating(p[:, None], b[None, :], 2.5)
    for i, j in np.ndindex(grid.shape):
        assert grid[i, j] == kummer_terminating(int(p[i]), int(b[j]), 2.5)
    assert kummer_terminating(np.int64(4), 3, 1.5) == kummer_terminating(4, 3, 1.5)
    assert isinstance(kummer_terminating(np.int64(4), 3, 1.5), float)


def test_kummer_validation():
    with pytest.raises(ValueError):
        kummer_terminating(-1, 1, 0.5)
    with pytest.raises(ValueError):
        kummer_terminating(2, 0, 0.5)
    with pytest.raises(ValueError):
        kummer_terminating(2, np.array([1, 0]), 0.5)
    with pytest.raises(ValueError):
        kummer_terminating(np.array([2, -1]), 1, 0.5)
    with pytest.raises(TypeError):
        kummer_terminating(2.5, 1, 0.5)


def test_laguerre_equals_kummer():
    for n in range(11):
        for t in T_VALUES:
            a = laguerre(n, float(t))
            b = kummer_terminating(n, 1, float(t))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_laguerre_frozen_values():
    # L_2(t) = 1 - 2t + t^2/2
    assert laguerre(2, 0.5) == pytest.approx(0.125, rel=1e-14)
    assert laguerre(0, 17.0) == 1.0
    assert laguerre(1, 3.0) == pytest.approx(-2.0, rel=1e-14)


def test_generalized_laguerre_against_scipy():
    t = np.linspace(0.0, 40.0, 9)
    for p in range(13):
        for d in range(9):
            got = generalized_laguerre(p, d, t)
            want = scipy.special.eval_genlaguerre(p, d, t)
            scale = 1.0 + np.abs(want)
            assert np.max(np.abs(got - want) / scale) < 1e-11


def test_generalized_laguerre_scalar_type():
    out = generalized_laguerre(3, 2, 1.5)
    assert isinstance(out, float)
    with pytest.raises(ValueError):
        generalized_laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        generalized_laguerre(2, -1, 1.0)


def test_generalized_laguerre_parameter_array_matches_scalar():
    t = np.linspace(0.0, 40.0, 33).reshape(3, 11)
    d = np.arange(9).reshape(-1, 1, 1)
    for p in range(8):
        stacked = generalized_laguerre(p, d, t)
        assert stacked.shape == (9, 3, 11)
        for k in range(9):
            want = generalized_laguerre(p, k, t)
            assert np.array_equal(stacked[k].view(np.uint64), want.view(np.uint64))
        scalar_t = generalized_laguerre(p, np.arange(4.0), 2.5)
        assert scalar_t.tolist() == [generalized_laguerre(p, k, 2.5) for k in range(4)]
    with pytest.raises(ValueError):
        generalized_laguerre(2, np.array([0, -1]), 1.0)


def test_generalized_laguerre_against_mpmath():
    # an independent 30-digit reference, for t of any rank and a scalar
    # or array d.  The recurrence's error scales with the sum of the
    # magnitudes of the polynomial's terms, sum_k C(p+d, p-k) |t|^k / k!;
    # the worst gap measured is 1.46e-15 of it (p = 31, d = 210,
    # t = 0.37), held here to 1e-14.  A value past the double range
    # comes out non-finite: an infinity, or NaN once two infinite
    # iterates meet in the recurrence.
    rng = np.random.default_rng(20261018)
    points = (
        np.float64(7.25),
        rng.uniform(0.0, 60.0, size=101),
        rng.uniform(0.0, 900.0, size=(4, 9)),
        np.array([0.0, -0.0, 1e-300, 700.0, 1e300]),
    )
    reference = {}
    with mpmath.workdps(30), np.errstate(over="ignore", invalid="ignore"):
        for t in points:
            column = np.array([0, 2, 7, 210]).reshape((4,) + (1,) * np.ndim(t))
            for p in (0, 1, 2, 5, 12, 31):
                for d in (0, 1, 4, 210, np.int64(3), column):
                    got = generalized_laguerre(p, d, t)
                    shape = np.broadcast_shapes(np.shape(d), np.shape(t))
                    assert np.shape(got) == shape
                    cases = (np.broadcast_to(a, shape).ravel().tolist() for a in (d, t, got))
                    for dk, x, value in zip(*cases):
                        if (p, dk, x) not in reference:
                            reference[p, dk, x] = mpmath.laguerre(p, dk, x)
                        want = reference[p, dk, x]
                        if math.isinf(float(want)):
                            assert not math.isfinite(value), (p, dk, x)
                            continue
                        scale = math.fsum(
                            math.comb(p + dk, p - k) * abs(x) ** k / math.factorial(k)
                            for k in range(p + 1)
                        )
                        assert abs(value - want) <= 1e-14 * scale, (p, dk, x)


def test_laguerre_climb_iterates_and_retired_rows():
    # the climb overwrites each iterate two steps after yielding it, so
    # the caller copies; iterate k then holds, on the rows the active
    # counts keep, the degree-k polynomial of each row's own d bit for
    # bit, and a row that retires keeps the value of its last degree
    t = np.linspace(0.0, 30.0, 257)
    d = np.array([5, 2, 7, 0, 3]).reshape(-1, 1)
    active = [5, 5, 5, 4, 4, 3, 2, 2, 1, 1]
    iterates = [it.copy() for it in _laguerre_climb(len(active) - 1, d, t, active)]
    assert len(iterates) == len(active)
    for k, (iterate, rows) in enumerate(zip(iterates, active)):
        assert iterate.shape[0] >= rows
        for r in range(rows):
            want = generalized_laguerre(k, int(d[r, 0]), t)
            assert np.array_equal(iterate[r].view(np.int64), want.view(np.int64)), (k, r)


def test_gauss2f1_unit_symmetry():
    for c in (1.0, 2.5, 6.0):
        for p in range(9):
            for q in range(9):
                a = gauss2f1_unit(p, q, c)
                b = gauss2f1_unit(q, p, c)
                assert abs(a - b) <= 1e-13 * (1.0 + abs(b))


def test_gauss2f1_unit_frozen():
    # (c+q)_p / (c)_p at c=2, q=3, p=2: (5/2)(6/3) = 5
    assert gauss2f1_unit(2, 3, 2.0) == pytest.approx(5.0, rel=1e-15)
    assert gauss2f1_unit(0, 5, 3.0) == 1.0
    with pytest.raises(ValueError):
        gauss2f1_unit(1, 1, 0.0)
    with pytest.raises(ValueError):
        gauss2f1_unit(-1, 0, 1.0)


def test_gauss2f1_unit_against_scipy():
    for c in (1.0, 3.0, 7.5):
        for p in range(7):
            for q in range(7):
                want = float(scipy.special.hyp2f1(-p, -q, c, 1.0))
                got = gauss2f1_unit(p, q, c)
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_gauss2f1_unit_at_q_minus_one_against_scipy():
    # 2F1(-p, 1; c; 1) = (c-1)_p / (c)_p, the j = 0 case of the projection radial integral
    for c in (1.0, 1.5, 2.0, 3.5, 7.0, 12.0, 19.0):
        for p in range(15):
            want = float(scipy.special.hyp2f1(-p, 1, c, 1.0))
            got = gauss2f1_unit(p, -1, c)
            assert abs(got - want) <= 1e-14 * (1.0 + abs(want)), (p, c)
    assert gauss2f1_unit(3, -1, 1.0) == 0.0
    with pytest.raises(ValueError):
        gauss2f1_unit(2, -2, 1.0)
