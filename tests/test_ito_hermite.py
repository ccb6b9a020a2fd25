"""Complex Hermite polynomials, recurrences, and the m = -1 extension.

Primary oracle: the finite monomial sum

    H_{m,n}(z, zbar) = sum_k (-1)^k k! C(m,k) C(n,k) z^(m-k) zbar^(n-k)

evaluated in exact rational arithmetic on the float inputs, so its only
error is the final rounding to complex.  The extension is checked
against its own ascending series and against singular quadrature of the
transform it closes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polycauchy import (
    HermiteIndex,
    build_polar_grid,
    c_mn,
    cauchy_singular_quadrature,
    hermite_eval,
    hermite_eval_extended,
    hermite_gram_matrix,
    hermite_radial_profile,
    hermite_recurrence_eval,
    hermite_row,
    hermite_table,
    polar_separable_quadrature,
)
from polycauchy._ddouble import dd_mul
from polycauchy.ito_hermite import EXTENSION_CROSSOVER
from polycauchy.special_fn import factorial, generalized_laguerre


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _monomial_oracle(m: int, n: int, z: complex) -> complex:
    """Exact-rational monomial sum for H_{m,n} at a float point."""
    zf = (Fraction(z.real), Fraction(z.imag))
    zc = (zf[0], -zf[1])
    zp = [(Fraction(1), Fraction(0))]
    for _ in range(m):
        zp.append(_cmul(zp[-1], zf))
    cp = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        cp.append(_cmul(cp[-1], zc))
    total = (Fraction(0), Fraction(0))
    for k in range(min(m, n) + 1):
        coeff = Fraction((-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k))
        term = _cmul(zp[m - k], cp[n - k])
        total = (total[0] + coeff * term[0], total[1] + coeff * term[1])
    return complex(float(total[0]), float(total[1]))


def _sample_points(count, radius, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(count, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]
    return [complex(a, b) for a, b in pts]


POINTS = [0j, 1.0 + 0j, -2.0 + 0j, 1.5j, 0.3 - 1.7j] + _sample_points(14, 3.0, 424)


def test_index_validation():
    HermiteIndex(-1, 3)
    with pytest.raises(ValueError):
        HermiteIndex(-2, 0)
    with pytest.raises(ValueError):
        HermiteIndex(0, -1)


def test_c_mn_frozen_values():
    assert c_mn(0, 0) == 1.0
    assert c_mn(1, 0) == 1.0
    assert c_mn(2, 1) == -2.0
    for n in range(9):
        assert c_mn(-1, n) == pytest.approx(-1.0 / (n + 1), rel=1e-15)
    with pytest.raises(ValueError):
        c_mn(-2, 0)
    with pytest.raises(ValueError):
        c_mn(0, -1)


def test_eval_examples():
    assert hermite_eval(HermiteIndex(0, 0), 2.3 - 0.4j) == 1.0 + 0j
    assert hermite_eval(HermiteIndex(1, 1), 1.0 + 1.0j) == pytest.approx(1.0 + 0j, abs=1e-14)
    assert hermite_eval(HermiteIndex(2, 1), 2.0 + 0j) == pytest.approx(4.0 + 0j, abs=1e-13)
    assert hermite_eval(HermiteIndex(1, 0), 0.7 - 0.2j) == 0.7 - 0.2j


def test_eval_rejects_extension_index():
    with pytest.raises(ValueError):
        hermite_eval(HermiteIndex(-1, 0), 1.0)
    with pytest.raises(ValueError):
        hermite_recurrence_eval(HermiteIndex(-1, 0), 1.0)


def test_eval_against_monomial_sum():
    for m in range(7):
        for n in range(7):
            idx = HermiteIndex(m, n)
            for z in POINTS:
                want = _monomial_oracle(m, n, z)
                got = hermite_eval(idx, z)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_eval_array_matches_scalar():
    z = np.array(POINTS)
    for m, n in ((0, 0), (3, 1), (2, 5), (6, 6)):
        arr = hermite_eval(HermiteIndex(m, n), z)
        assert arr.shape == z.shape
        for i, zi in enumerate(POINTS):
            assert arr[i] == hermite_eval(HermiteIndex(m, n), zi)


def _bits(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.uint64)


def test_hermite_row_matches_eval_bit_for_bit():
    rng = np.random.default_rng(20261018)
    inputs = [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 0.3j, -2.0 + 0j,
        np.array(POINTS[:20]),
        3.0 * (rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))),
        # above numpy's 256 KiB temporary-elision size
        3.0 * (rng.standard_normal((96, 256)) + 1j * rng.standard_normal((96, 256))),
    ]
    for z in inputs:
        for n in range(9):
            for m_max in sorted({0, max(n - 1, 0), n, n + 1, n + 7}):
                row = hermite_row(m_max, n, z)
                assert row.shape == (m_max + 1,) + np.shape(z)
                for m in range(m_max + 1):
                    want = hermite_eval(HermiteIndex(m, n), z)
                    assert np.array_equal(_bits(row[m]), _bits(want)), (m, n, np.shape(z))


def _bit_inputs():
    rng = np.random.default_rng(20261019)
    return [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 0.3j, -2.0 + 0j,
        np.array(POINTS[:20]),
        # above numpy's 256 KiB temporary-elision size
        3.0 * (rng.standard_normal((96, 256)) + 1j * rng.standard_normal((96, 256))),
    ]


def test_hermite_table_matches_eval_bit_for_bit():
    for z in _bit_inputs():
        for m_max, levels in ((0, (0,)), (5, range(6)), (9, range(10)), (2, (7, 0, 3)), (6, (4, 4))):
            table = hermite_table(m_max, levels, z)
            assert table.shape == (m_max + 1, len(levels)) + np.shape(z)
            for m in range(m_max + 1):
                for j, n in enumerate(levels):
                    want = hermite_eval(HermiteIndex(m, n), z)
                    assert np.array_equal(_bits(table[m, j]), _bits(want)), (m, n, np.shape(z))
    assert hermite_table(3, (), 0.5j).shape == (4, 0)
    with pytest.raises(ValueError):
        hermite_table(-1, (0,), 1.0)
    with pytest.raises(ValueError):
        hermite_table(2, (1, -1), 1.0)


def _row_per_m(m_max, n, z):
    """hermite_row as it was: one Laguerre climb per m < n, one shared for m >= n."""
    z_arr = np.asarray(z, dtype=complex)
    t = (z_arr * z_arr.conjugate()).real

    def confluent(p, d):
        value = factorial(p) * generalized_laguerre(p, d, t)
        return -value if p % 2 else value

    out = np.empty((m_max + 1,) + z_arr.shape, dtype=complex)
    for m in range(min(m_max + 1, n)):
        np.multiply(z_arr.conjugate() ** (n - m), confluent(m, n - m), out=out[m, ...])
    if m_max >= n:
        shared = confluent(n, np.arange(m_max - n + 1).reshape((-1,) + (1,) * t.ndim))
        for k in range(m_max - n + 1):
            np.multiply(z_arr**k, shared[k], out=out[n + k, ...])
    return out


def test_hermite_row_equals_its_per_m_form():
    for z in _bit_inputs():
        for n in range(9):
            for m_max in sorted({0, max(n - 1, 0), n, n + 7}):
                got = hermite_row(m_max, n, z)
                want = _row_per_m(m_max, n, z)
                assert np.array_equal(_bits(got), _bits(want)), (m_max, n, np.shape(z))


def test_hermite_row_validation():
    with pytest.raises(ValueError):
        hermite_row(-1, 0, 1.0)
    with pytest.raises(ValueError):
        hermite_row(2, -1, 1.0)


def test_conjugate_symmetry():
    for m in range(9):
        for n in range(9):
            for z in POINTS[:8]:
                a = hermite_eval(HermiteIndex(m, n), z)
                b = hermite_eval(HermiteIndex(n, m), z)
                assert abs(a - b.conjugate()) <= 1e-11 * (1.0 + abs(a))


def test_recurrence_frozen_values():
    z = 3.0 + 4.0j
    assert hermite_recurrence_eval(HermiteIndex(1, 0), z) == z
    assert hermite_recurrence_eval(HermiteIndex(0, 1), z) == z.conjugate()
    assert hermite_recurrence_eval(HermiteIndex(1, 1), 2.0j) == pytest.approx(3.0 + 0j, abs=1e-15)


def test_recurrence_agrees_with_closed_form():
    # The recurrence walks an (m+1)(n+1) lattice whose entries partly
    # cancel; conditioning near |z|^2 = m+n costs a few digits, so the
    # agreement bound is looser than either route's own accuracy.
    pts = POINTS + _sample_points(16, 4.0, 777)
    for m in range(11):
        for n in range(11):
            idx = HermiteIndex(m, n)
            for z in pts:
                a = hermite_eval(idx, z)
                b = hermite_recurrence_eval(idx, z)
                assert abs(a - b) <= 2e-9 * (1.0 + abs(a))


def test_index_shift_identity():
    # H_{m+1,n} = z H_{m,n} - n H_{m,n-1}
    for m in range(7):
        for n in range(7):
            for z in POINTS[:10]:
                up = hermite_eval(HermiteIndex(m + 1, n), z)
                mid = z * hermite_eval(HermiteIndex(m, n), z)
                low = n * hermite_eval(HermiteIndex(m, n - 1), z) if n else 0j
                scale = 1.0 + abs(up) + abs(mid) + abs(low)
                assert abs(up - (mid - low)) <= 1e-11 * scale


def test_annihilation_identity():
    # m n H_{m-1,n-1} - n zbar H_{m,n-1} = -n H_{m,n}
    for m in range(1, 8):
        for n in range(1, 8):
            for z in POINTS[:8]:
                lhs = m * n * hermite_eval(HermiteIndex(m - 1, n - 1), z) - (
                    n * z.conjugate() * hermite_eval(HermiteIndex(m, n - 1), z)
                )
                rhs = -n * hermite_eval(HermiteIndex(m, n), z)
                assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_extended_frozen_values():
    assert hermite_eval_extended(0, 0j) == 0j
    got = hermite_eval_extended(0, 1.0 + 0j)
    assert got == pytest.approx(-(math.e - 1.0), rel=1e-14)
    got = hermite_eval_extended(1, 1.0 + 0j)
    assert got == pytest.approx(-(math.e - 2.0), rel=1e-14)
    with pytest.raises(ValueError):
        hermite_eval_extended(-1, 1.0)


def test_extended_array_matches_scalar():
    z = np.array(POINTS)
    for n in (0, 2, 5):
        arr = hermite_eval_extended(n, z)
        for i, zi in enumerate(POINTS):
            assert arr[i] == hermite_eval_extended(n, zi)


def _extension_series_oracle(n: int, t: float) -> float:
    # plain-float ascending series of -1F1(1; n+2; t)/(n+1)
    term = 1.0
    total = 0.0
    k = 0
    while term > 1e-22 * max(total, 1.0):
        total += term
        term *= t / (n + 2 + k)
        k += 1
    return -total / (n + 1)


def test_extended_branch_seam():
    # closed exponential branch just above the crossover must agree
    # with the series continued past it
    for n in (0, 1, 2, 5, 8):
        tau = max(EXTENSION_CROSSOVER, 0.5 * n)
        t = tau * (1.0 + 1e-9) + 1e-12
        z = math.sqrt(t)
        want = t ** (0.5 * (n + 1)) * _extension_series_oracle(n, t)
        got = hermite_eval_extended(n, complex(z, 0.0))
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-13 * (1.0 + abs(want))


def test_extension_closes_transform_of_antiholomorphic_family():
    # -e^{-|z|^2} H_{-1,n}(z) reproduces the singular quadrature of the
    # transform of H_{0,n}
    for n in (0, 2):
        for r in (0.5, 2.0):
            z = r * complex(math.cos(0.7), math.sin(0.7))
            closed = -math.exp(-abs(z) ** 2) * hermite_eval_extended(n, z)
            quad = cauchy_singular_quadrature(
                lambda pts, k=n: hermite_eval(HermiteIndex(0, k), pts), z
            )
            assert abs(quad - closed) <= 1e-6 * (1.0 + abs(closed))


def test_radial_profile_reconstructs_values():
    t = np.array([0.3, 1.7, 4.2])
    theta = 0.9
    phase = complex(math.cos(theta), math.sin(theta))
    z = np.sqrt(t) * phase
    for m in range(-1, 5):
        for n in range(5):
            idx = HermiteIndex(m, n)
            hi, lo, freq = hermite_radial_profile(idx, t)
            assert freq == m - n
            prof = (hi + lo) * phase**freq
            direct = (
                hermite_eval_extended(n, z) if m == -1 else hermite_eval(idx, z)
            )
            err = np.max(np.abs(prof - direct) / (1.0 + np.abs(direct)))
            assert err <= 1e-13


def hermite_inner_product(a: HermiteIndex, b: HermiteIndex, grid=None) -> complex:
    """Per-pair oracle of hermite_gram_matrix: <H_a, H_b> on a beta = 1 grid.

    One radial product of the two real profiles in double-double, then
    the separable rule with frequency f_a - f_b.
    """
    grid = build_polar_grid() if grid is None else grid
    ah, al, fa = hermite_radial_profile(a, grid.radial_t)
    bh, bl, fb = hermite_radial_profile(b, grid.radial_t)
    rh, rl = dd_mul(ah, al, bh, bl)
    return polar_separable_quadrature(rh, rl, fa - fb, grid)


def test_inner_product_orthogonality():
    for m in range(4):
        for n in range(4):
            for j in range(4):
                for k in range(4):
                    got = hermite_inner_product(HermiteIndex(m, n), HermiteIndex(j, k))
                    want = (
                        math.pi * math.factorial(m) * math.factorial(n)
                        if (m, n) == (j, k)
                        else 0.0
                    )
                    assert abs(got - want) < 1e-9


def test_gram_matrix_matches_pairwise():
    indices = [HermiteIndex(m, n) for m in range(3) for n in range(3)]
    g = hermite_gram_matrix(indices)
    assert g.shape == (9, 9)
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            assert g[i, j] == hermite_inner_product(a, b)


def test_gram_selection_zero_on_grid_with_odd_factor():
    # frequency difference 4 on n_theta = 12 is off-pattern: an exact zero
    g = hermite_gram_matrix([HermiteIndex(4, 0), HermiteIndex(0, 0)], build_polar_grid(16, 12))
    assert g[0, 1] == 0j and g[1, 0] == 0j


def test_unit_weight_required():
    grid = build_polar_grid(16, 16, 2.0)
    with pytest.raises(ValueError):
        hermite_gram_matrix([HermiteIndex(0, 0)], grid)
