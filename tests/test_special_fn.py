"""Terminating series and exact integer-argument helpers.

Primary oracle: exact Fraction arithmetic for every terminating sum.
scipy.special provides an independent second opinion where it has a
matching routine.
"""

import math
from fractions import Fraction

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
    for n in range(21):
        assert factorial(n) == float(math.factorial(n))
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


def test_kummer_validation():
    with pytest.raises(ValueError):
        kummer_terminating(-1, 1, 0.5)
    with pytest.raises(ValueError):
        kummer_terminating(2, 0, 0.5)
    with pytest.raises(ValueError):
        kummer_terminating(2, np.array([1, 0]), 0.5)


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


def test_buffered_laguerre_equals_the_climb():
    # generalized_laguerre climbs in rotating buffers; its value is the
    # last iterate of the generator climb bit for bit, for t of any rank
    # and a scalar or array d
    rng = np.random.default_rng(20261018)
    points = (
        np.float64(7.25),
        rng.uniform(0.0, 60.0, size=301),
        rng.uniform(0.0, 900.0, size=(7, 13)),
        np.array([0.0, -0.0, 1e-300, 700.0, 1e300]),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for t in points:
            column = np.array([0, 2, 7, 210]).reshape((4,) + (1,) * np.ndim(t))
            for p in (0, 1, 2, 5, 12, 31):
                for d in (0, 1, 4, 210, np.int64(3), column):
                    got = generalized_laguerre(p, d, t)
                    *_, want = _laguerre_climb(p, d, t)
                    assert np.shape(got) == np.broadcast_shapes(np.shape(d), np.shape(t))
                    assert np.array_equal(
                        np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)
                    ), (p, d, np.shape(t))


def test_laguerre_climb_keeps_every_iterate():
    # every yielded iterate is its own array: after the climb has ended,
    # iterate k still equals the degree-k polynomial bit for bit, on the
    # rows the active counts keep
    t = np.linspace(0.0, 30.0, 257)
    d = np.array([5, 2, 7, 0, 3]).reshape(-1, 1)
    active = [5, 5, 5, 4, 4, 3, 2, 2, 1, 1]
    iterates = list(_laguerre_climb(len(active) - 1, d, t, active))
    assert len(iterates) == len(active)
    for k, (iterate, rows) in enumerate(zip(iterates, active)):
        assert iterate.shape[0] >= rows
        want = generalized_laguerre(k, d[:rows], t)
        assert np.array_equal(iterate[:rows].view(np.int64), want.view(np.int64)), k


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
