"""Complex Hermite polynomials, recurrences, and the m = -1 extension.

Primary oracle: the finite monomial sum

    H_{m,n}(z, zbar) = sum_k (-1)^k k! C(m,k) C(n,k) z^(m-k) zbar^(n-k)

evaluated in exact rational arithmetic on the float inputs, so its only
error is the final rounding to complex.  The extension is checked
against its own ascending series and against singular quadrature of the
transform it closes.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polycauchy import (
    HermiteIndex,
    build_polar_grid,
    c_mn,
    cauchy_singular_quadrature,
    hermite_eval,
    hermite_eval_extended,
    hermite_radial_profile,
    hermite_table,
    polar_separable_quadrature,
    psi_gram,
)
from polycauchy._ddouble import two_prod
from polycauchy.ito_hermite import (
    EXTENSION_CROSSOVER,
    _power,
    _separable_gram,
    _series_coefficients,
)
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


def _recurrence_oracle(m: int, n: int, z: complex) -> complex:
    """H_{m,n} by climbing H_{i+1,j} = z H_{i,j} - j H_{i,j-1} from H_{0,j} = zbar^j."""
    zbar = z.conjugate()
    row = [1 + 0j]
    for j in range(n):
        row.append(zbar * row[j])
    for _ in range(m):
        row = [z * row[0]] + [z * row[j] - j * row[j - 1] for j in range(1, n + 1)]
    return row[n]


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


def test_c_mn_is_the_correctly_rounded_ratio():
    # one rounding of the exact ratio max(m,n)!/|m-n|!, which a product
    # of rounded factorials misses from max(m, n) = 23 on
    def exact(m, n):
        sign = -1 if min(m, n) % 2 else 1
        return float(sign * Fraction(math.factorial(max(m, n)), math.factorial(abs(m - n))))

    for m in range(-1, 60):
        for n in range(60):
            assert c_mn(m, n) == exact(m, n), (m, n)
    for n in range(60, 400):
        assert c_mn(-1, n) == exact(-1, n), n
    assert c_mn(3, 200) == -7880400.0
    assert c_mn(171, 1) == -171.0
    with pytest.raises(OverflowError):
        c_mn(1000, 800)
    # min(m, n) factors at most: no factorial of 1e9 is ever formed
    assert c_mn(-1, 10**9) == -1 / (10**9 + 1)
    assert c_mn(10**9, 2) == 999999999000000000.0
    for m, n in ((10**9, 10**9 - 1), (10**9, 170)):
        with pytest.raises(OverflowError):
            c_mn(m, n)


def test_eval_examples():
    assert hermite_eval(HermiteIndex(0, 0), 2.3 - 0.4j) == 1.0 + 0j
    assert hermite_eval(HermiteIndex(1, 1), 1.0 + 1.0j) == pytest.approx(1.0 + 0j, abs=1e-14)
    assert hermite_eval(HermiteIndex(2, 1), 2.0 + 0j) == pytest.approx(4.0 + 0j, abs=1e-13)
    assert hermite_eval(HermiteIndex(1, 0), 0.7 - 0.2j) == 0.7 - 0.2j


def test_eval_rejects_extension_index():
    with pytest.raises(ValueError):
        hermite_eval(HermiteIndex(-1, 0), 1.0)


def test_eval_against_monomial_sum():
    # worst measured gap 1.6e-13 of (1 + |exact|), up to |z| = 4
    pts = POINTS + _sample_points(16, 4.0, 777)
    for m in range(11):
        for n in range(11):
            idx = HermiteIndex(m, n)
            for z in pts:
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


def _bit_inputs():
    rng = np.random.default_rng(20261019)
    return [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 0.3j, -2.0 + 0j,
        np.array(POINTS[:20]),
        # above numpy's 256 KiB temporary-elision size
        3.0 * (rng.standard_normal((96, 256)) + 1j * rng.standard_normal((96, 256))),
    ]


def test_hermite_table_matches_eval_bit_for_bit():
    rng = np.random.default_rng(20261018)
    # a grid-shaped block below numpy's 256 KiB temporary-elision size
    block = 3.0 * (rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128)))
    cases = [(0, (0,)), (5, range(6)), (9, range(10)), (2, (7, 0, 3)), (6, (4, 4))]
    # one-level tables, the form the kernel series and projections use
    cases += [
        (m_max, (n,)) for n in range(9) for m_max in sorted({0, max(n - 1, 0), n, n + 1, n + 7})
    ]
    for z in _bit_inputs() + [block]:
        for m_max, levels in cases:
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
    """A one-level table per m: one Laguerre climb per m < n, one shared for m >= n."""
    z_arr = np.asarray(z, dtype=complex)
    t = (z_arr * z_arr.conjugate()).real

    def confluent(p, d):
        value = factorial(p) * generalized_laguerre(p, d, t)
        return -value if p % 2 else value

    out = np.empty((m_max + 1,) + z_arr.shape, dtype=complex)
    # monomials through the shared power helper, on 1-element arrays for
    # a scalar point, as every evaluator raises them
    points = np.atleast_1d(z_arr)
    for m in range(min(m_max + 1, n)):
        monomial = _power(points.conjugate(), n - m).reshape(z_arr.shape)
        np.multiply(monomial, confluent(m, n - m), out=out[m, ...])
    if m_max >= n:
        shared = confluent(n, np.arange(m_max - n + 1).reshape((-1,) + (1,) * t.ndim))
        for k in range(m_max - n + 1):
            np.multiply(_power(points, k).reshape(z_arr.shape), shared[k], out=out[n + k, ...])
    return out


def test_one_level_table_equals_its_per_m_form():
    for z in _bit_inputs():
        for n in range(9):
            for m_max in sorted({0, max(n - 1, 0), n, n + 7}):
                got = hermite_table(m_max, (n,), z)[:, 0]
                want = _row_per_m(m_max, n, z)
                assert np.array_equal(_bits(got), _bits(want)), (m_max, n, np.shape(z))


def test_conjugate_symmetry():
    for m in range(9):
        for n in range(9):
            for z in POINTS[:8]:
                a = hermite_eval(HermiteIndex(m, n), z)
                b = hermite_eval(HermiteIndex(n, m), z)
                assert abs(a - b.conjugate()) <= 1e-11 * (1.0 + abs(a))


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
                b = _recurrence_oracle(m, n, z)
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


def test_weighted_eval_scalar_equals_its_array_entry():
    # the weighted form folds e^{-t} into the real radial factor; each
    # value still depends on its own point alone
    rng = np.random.default_rng(20261019)
    z = 5.0 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    z[:8] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
             1e-200, -1e-200j, 27.0, 1e14]
    with np.errstate(over="ignore", invalid="ignore"):
        for m, n in ((0, 0), (1, 0), (0, 3), (2, 5), (6, 2), (11, 12), (19, 10)):
            idx = HermiteIndex(m, n)
            values = hermite_eval(idx, z, weighted=True)
            grid = hermite_eval(idx, z.reshape(20, 15), weighted=True)
            assert np.array_equal(grid.ravel().view(np.int64), values.view(np.int64)), (m, n)
            for i, v in enumerate(z.tolist()):
                one = np.array([hermite_eval(idx, v, weighted=True)])
                assert np.array_equal(one.view(np.int64), values[i : i + 1].view(np.int64)), (m, n, v)
            assert isinstance(hermite_eval(idx, complex(z[9]), weighted=True), complex)


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


def _profile(idx, t, *, weighted=False):
    """One index's (profile, freq) from a one-row profile call."""
    profile, freq = hermite_radial_profile([idx], t, weighted=weighted)
    return profile[0], freq[0]


def test_radial_profile_reconstructs_values():
    t = np.array([0.3, 1.7, 4.2])
    theta = 0.9
    phase = complex(math.cos(theta), math.sin(theta))
    z = np.sqrt(t) * phase
    indices = [HermiteIndex(m, n) for m in range(-1, 5) for n in range(5)]
    profiles, freqs = hermite_radial_profile(indices, t)
    assert profiles.shape == (len(indices), t.size)
    for idx, profile, freq in zip(indices, profiles, freqs):
        m, n = idx.m, idx.n
        assert freq == m - n
        prof = profile * phase**freq
        direct = hermite_eval_extended(n, z) if m == -1 else hermite_eval(idx, z)
        err = np.max(np.abs(prof - direct) / (1.0 + np.abs(direct)))
        assert err <= 1e-13


def test_batched_profiles_equal_the_one_index_recurrence():
    # one climb over all rows, rows leaving at their own degree, gives
    # each row the bits of its own one-index call
    pairs = (
        (-1, 0), (3, 0), (0, 0), (2, 5), (-1, 7), (1, 1), (5, 2), (0, 9),
        (7, 3), (4, 4), (30, 12), (12, 30), (6, 11), (-1, 12), (9, 9), (1, 0),
    )
    indices = [HermiteIndex(m, n) for m, n in pairs]
    nodes = (build_polar_grid().radial_t, build_polar_grid(200, 8).radial_t, np.zeros(1))
    for t in nodes:
        for weighted in (False, True):
            # unweighted m = -1 rows overflow to inf past e^t's range
            with np.errstate(over="ignore"):
                profiles, freq = hermite_radial_profile(indices, t, weighted=weighted)
                want = [_profile(idx, t, weighted=weighted) for idx in indices]
            assert freq.tolist() == [m - n for m, n in pairs]
            for r, (row, row_freq) in enumerate(want):
                assert profiles[r].tobytes() == row.tobytes(), (pairs[r], t.size, weighted)
                assert freq[r] == row_freq


def test_radial_profiles_against_mpmath():
    # P = (-1)^p p! t^{d/2} L_p^(d)(t) against a 30-digit reference.  The
    # climb's error scales with the magnitudes of the Laguerre terms, as
    # in test_generalized_laguerre_against_mpmath, so each row is held to
    # 1e-14 of p! t^{d/2} sum_k C(p+d, p-k) t^k / k!
    indices = [HermiteIndex(m, n) for m in range(13) for n in range(13)]
    indices += [HermiteIndex(30, 12), HermiteIndex(12, 30), HermiteIndex(40, 45)]
    t = np.concatenate([build_polar_grid(16, 8).radial_t, [0.0, 0.37, 7.25, 60.0]])
    for weighted in (False, True):
        profiles, _ = hermite_radial_profile(indices, t, weighted=weighted)
        with mpmath.workdps(30):
            for idx, row in zip(indices, profiles):
                p, d = min(idx.m, idx.n), abs(idx.m - idx.n)
                for x, value in zip(t.tolist(), row.tolist()):
                    damp = mpmath.exp(-x) if weighted else 1
                    power = mpmath.mpf(x) ** (mpmath.mpf(d) / 2)
                    want = (-1) ** p * mpmath.factorial(p) * power * mpmath.laguerre(p, d, x)
                    scale = math.fsum(
                        math.comb(p + d, p - k) * x**k / math.factorial(k) for k in range(p + 1)
                    )
                    bound = 1e-14 * math.factorial(p) * float(power * damp) * scale
                    assert abs(value - float(want * damp)) <= bound, (idx, x, weighted)


def _hermite_gram(indices, grid=None) -> np.ndarray:
    """Gram matrix of basis polynomials on a polar grid: one batched profile call."""
    grid = build_polar_grid() if grid is None else grid
    return _separable_gram(*hermite_radial_profile(indices, grid.radial_t), grid)


def hermite_inner_product(a: HermiteIndex, b: HermiteIndex, grid=None) -> complex:
    """Per-pair oracle of :func:`_hermite_gram`: <H_a, H_b> on a polar grid.

    One radial product of the two real profiles in double-double, then
    the separable rule with frequency f_a - f_b.
    """
    grid = build_polar_grid() if grid is None else grid
    pa, fa = _profile(a, grid.radial_t)
    pb, fb = _profile(b, grid.radial_t)
    rh, rl = two_prod(pa, pb)
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


def _exact_rule_gram(indices, n_theta: int) -> np.ndarray:
    """What the separable rule integrates, in exact arithmetic, over pi.

    On circles H_{m,n} = P(t) e^{i (m - n) theta}, where P(t) is the sum
    of (-1)^k k! C(m,k) C(n,k) t^{(m + n)/2 - k}.  The angular rule keeps
    a pair when its frequency difference is a multiple of n_theta, and
    Gauss-Laguerre integrates the polynomial P_a P_b e^{-t} exactly, with
    moments s!.  Kept pairs on an even n_theta have integer powers s.
    """
    def terms(i):
        return [
            ((-1) ** k * math.factorial(k) * math.comb(i.m, k) * math.comb(i.n, k), i.m + i.n - 2 * k)
            for k in range(min(i.m, i.n) + 1)
        ]

    out = np.zeros((len(indices), len(indices)), dtype=object)
    for r, a in enumerate(indices):
        for s, b in enumerate(indices):
            if (a.m - a.n - b.m + b.n) % n_theta == 0:
                out[r, s] = sum(
                    c * c2 * math.factorial((e + e2) // 2)
                    for c, e in terms(a)
                    for c2, e2 in terms(b)
                )
    return out


def test_gram_matrix_matches_exact_rule():
    # Each kept entry is one 64-node (or 16-node) sum of P_a w P_b, so
    # its error is bounded by a few eps times S = pi sum_k w_k |P_a P_b|
    # (1.7 eps S measured at m, n <= 6); the bound is 8 eps S.  On
    # n_theta = 8 the frequency difference 8 of (4,0) and (0,4) aliases
    # to a nonzero entry, which the Gram must integrate too.
    for size, grid in ((7, build_polar_grid()), (5, build_polar_grid(16, 8))):
        indices = [HermiteIndex(m, n) for m in range(size) for n in range(size)]
        profile, freq = hermite_radial_profile(indices, grid.radial_t)
        g = _separable_gram(profile, freq, grid)
        assert g.shape == (size * size, size * size)
        assert np.array_equal(g, g.T)
        exact = _exact_rule_gram(indices, grid.n_theta)
        kept = (freq[:, None] - freq[None, :]) % grid.n_theta == 0
        assert np.all(g[~kept] == 0j)
        profile = np.abs(profile)
        bound = 8 * np.finfo(float).eps * math.pi * (profile * grid.radial_w) @ profile.T
        want = math.pi * exact[kept].astype(float)
        assert np.all(np.abs(g[kept] - want) <= bound[kept])
    aliased = indices.index(HermiteIndex(4, 0)), indices.index(HermiteIndex(0, 4))
    assert g[aliased] == g[aliased[::-1]] != 0
    # the psi Gram integrates aliased pairs too, so n_theta = 6 fails its rule
    assert psi_gram(indices, build_polar_grid(24, 6)).passed is False


def test_gram_selection_zero_on_grid_with_odd_factor():
    # frequency difference 4 on n_theta = 12 is off-pattern: an exact zero
    g = _hermite_gram([HermiteIndex(4, 0), HermiteIndex(0, 0)], build_polar_grid(16, 12))
    assert g[0, 1] == 0j and g[1, 0] == 0j


SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def test_power_at_signed_zeros():
    zeros = np.array(SIGNED_ZEROS)
    assert np.array_equal(_power(zeros, 0), np.ones(4, dtype=complex))
    for d in range(1, 31):
        got = _power(zeros, d)
        assert np.all(got == 0), d


def test_power_of_a_point_equals_its_array_entry():
    rng = np.random.default_rng(20261020)
    z = 3.0 * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
    for d in range(31):
        whole = _power(z, d)
        for i in range(0, z.size, 16):
            assert np.array_equal(_bits(_power(z[i : i + 1], d)), _bits(whole[i])), (d, i)


def test_mirrored_scalar_evaluation_is_bit_identical():
    # H_{n,m}(w) = H_{m,n}(conj w); both sides raise their monomial on a
    # 1-element array, so they agree to the last bit at a scalar too
    w = 2.5789840705589775 - 2.2188529551938907j
    a = hermite_eval(HermiteIndex(0, 2), w)
    assert np.array_equal(_bits(a), _bits(hermite_eval(HermiteIndex(2, 0), w.conjugate())))
    rng = np.random.default_rng(20261021)
    points = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    for i, w in enumerate(points.tolist()):
        m, n = i % 7, (3 * i) % 9
        a = hermite_eval(HermiteIndex(m, n), w)
        b = hermite_eval(HermiteIndex(n, m), w.conjugate())
        assert np.array_equal(_bits(a), _bits(b)), (m, n, w)


def _extension_cloud(count: int, seed: int) -> np.ndarray:
    """Seeded points on both sides of every crossover, far points and signed zeros."""
    rng = np.random.default_rng(seed)
    radius = np.where(rng.uniform(size=count) < 0.9, 4.0, 40.0)
    z = radius * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    for i, zero in enumerate(SIGNED_ZEROS):
        z[i] = zero
        z[8191 + i] = zero
    return z


def test_extension_values_depend_on_the_point_alone():
    z = _extension_cloud(2**16, 20261022)
    sample = np.random.default_rng(5).choice(z.size, 1024, replace=False)
    sample = np.concatenate([np.arange(4), [8191, 8192, 8193, 8194], sample])
    for n in (0, 1, 3, 8, 16):
        for weighted in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                whole = hermite_eval_extended(n, z, weighted=weighted)
                blocks = np.concatenate(
                    [
                        hermite_eval_extended(n, z[s : s + 8192], weighted=weighted)
                        for s in range(0, z.size, 8192)
                    ]
                )
                assert np.array_equal(_bits(whole), _bits(blocks)), (n, weighted)
                for i in sample:
                    one = hermite_eval_extended(n, complex(z[i]), weighted=weighted)
                    assert np.array_equal(_bits(one), _bits(whole[i])), (n, weighted, z[i])


def test_series_term_count_meets_the_cutoff():
    # K(n) is the smallest K with T^K / (n+2)_K <= 1e-17, T = max(0.25, n/2),
    # so every point of the series keeps at least the terms that the
    # cutoff 1e-17 relative to the sum (itself >= 1) asks for
    for n in range(41):
        coefficients = _series_coefficients(n)
        big_k = len(coefficients) - 1
        bound = Fraction(max(EXTENSION_CROSSOVER, 0.5 * n))
        rising = math.prod(range(n + 2, n + 2 + big_k))
        assert bound**big_k / rising <= Fraction(1e-17)
        assert bound ** (big_k - 1) / (rising // (n + 1 + big_k)) > Fraction(1e-17)
        for k, c in enumerate(coefficients):
            assert c == float(Fraction(1, math.prod(range(n + 2, n + 2 + k))))


def test_weighted_profiles():
    t = np.array([0.0, 0.2, 0.3, 1.7, 4.2, 30.0, 700.0, 767.8, 1e4])
    for n in range(6):
        hi, freq = _profile(HermiteIndex(-1, n), t, weighted=True)
        assert freq == -(n + 1) and np.all(np.isfinite(hi))
        with np.errstate(over="ignore", invalid="ignore"):
            plain = _profile(HermiteIndex(-1, n), t)[0]
        small = t <= 30.0
        want = np.exp(-t[small]) * plain[small]
        assert np.all(np.abs(hi[small] - want) <= 1e-14 * np.abs(want))
        # beyond e^t's range the profile tends to -n! t^{-(n+1)/2}
        assert hi[-1] == pytest.approx(-math.factorial(n) * 1e4 ** (-0.5 * (n + 1)), rel=1e-15)
    nodes = t[1:-3]
    for m, n in ((0, 0), (3, 1), (2, 5)):
        h, freq = _profile(HermiteIndex(m, n), nodes)
        wh, wfreq = _profile(HermiteIndex(m, n), nodes, weighted=True)
        # the polynomial profile times e^{-t}, one product per node
        assert wfreq == freq
        assert np.array_equal(wh, h * np.exp(-nodes))


def test_radial_profile_at_the_origin():
    # t^{d/2} at t = 0 is 0 for odd d too, with no NaN or RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        indices = [HermiteIndex(m, n) for m in range(7) for n in range(7)]
        profile, _ = hermite_radial_profile(indices, np.zeros(1))
        assert profile[:, 0].tolist() == [hermite_eval(i, 0j).real for i in indices]
        profile, _ = _profile(HermiteIndex(2, 5), np.array([0.0, 1.0]))
        assert profile.tolist() == [0.0, 11.0]
