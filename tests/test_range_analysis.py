"""Range bases, psi-Gram selection rule, and truncated singular values.

Oracles: exact index-set combinatorics, closed Gaussian integrals
(pi/3, pi/9, pi ln(4/3)) for Gram diagonals, double-double polar
quadrature of every <psi_{j,k}, H_{m,n}> for the closed operator
matrix behind the truncated spectrum, and a per-entry build of that
matrix which the library's scatter matches bit for bit.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polycauchy import (
    CoefficientSequence,
    GramReport,
    HermiteIndex,
    RangeBasisSpec,
    VARIANT_R,
    VARIANT_R_TILDE,
    e_ell_indices,
    pn_cauchy_on_coeffs,
    psi_gram,
    r_range_inclusions,
    range_basis_indices,
    truncated_operator_svd,
)
from polycauchy._ddouble import two_prod
from polycauchy.gaussian_quadrature import (
    PolarGrid,
    build_polar_grid,
    gauss_laguerre_nodes,
    polar_separable_quadrature,
)
from polycauchy.ito_hermite import _separable_gram, c_mn, hermite_radial_profile
from polycauchy.special_fn import kahan_sum, kummer_terminating
from polycauchy.poly_bergman import projection_coefficient_closed
from polycauchy.range_analysis import _operator_matrix
from polycauchy.verification import _hermite_integer_coefficients


def test_basis_spec_validation():
    RangeBasisSpec(VARIANT_R, 0, 0)
    with pytest.raises(ValueError):
        RangeBasisSpec("Q", 0, 0)
    with pytest.raises(ValueError):
        RangeBasisSpec(VARIANT_R, -1, 0)
    with pytest.raises(ValueError):
        RangeBasisSpec(VARIANT_R_TILDE, 0, -1)


def test_basis_index_examples():
    assert range_basis_indices(RangeBasisSpec(VARIANT_R_TILDE, 0, 0)) == []
    got = range_basis_indices(RangeBasisSpec(VARIANT_R_TILDE, 2, 1))
    assert got == [HermiteIndex(0, 1), HermiteIndex(1, 1), HermiteIndex(2, 1)]
    got = range_basis_indices(RangeBasisSpec(VARIANT_R, 0, 2), count=3)
    assert got == [HermiteIndex(1, 2), HermiteIndex(2, 2), HermiteIndex(3, 2)]
    # high offset shifts the starting transform index, not the target space
    got = range_basis_indices(RangeBasisSpec(VARIANT_R, 3, 1), count=2)
    assert got == [HermiteIndex(0, 1), HermiteIndex(1, 1)]
    with pytest.raises(ValueError):
        range_basis_indices(RangeBasisSpec(VARIANT_R, 0, 0), count=0)


def test_rtilde_dimension_is_index_sum():
    for n in range(6):
        for ell in range(6):
            got = range_basis_indices(RangeBasisSpec(VARIANT_R_TILDE, ell, n))
            assert len(got) == n + ell
            assert all(i.n == n and 0 <= i.m < n + ell for i in got)


def test_inclusion_directions():
    got = r_range_inclusions(3, 4)
    assert got == [(0, True, False), (1, True, False), (2, True, True), (3, True, True)]
    # forward inclusion holds at every offset, backward only once the
    # threshold has bottomed out at zero
    for n in range(6):
        for ell, forward, backward in r_range_inclusions(n, 6):
            assert forward
            assert backward == (ell >= n - 1)
    with pytest.raises(ValueError):
        r_range_inclusions(2, 0)


def test_projected_transform_on_coefficients():
    seq = CoefficientSequence(n=0, coeffs=(0.0, 1.0))
    out = pn_cauchy_on_coeffs(seq, 0)
    assert out.n == 0
    assert out.coeffs == (-0.5 + 0j,)

    out = pn_cauchy_on_coeffs(CoefficientSequence(n=0, coeffs=(1.0,)), 0)
    assert out.coeffs == ()

    out = pn_cauchy_on_coeffs(seq, 1)
    assert out.coeffs == (0j, 0.25 + 0j)
    with pytest.raises(ValueError):
        pn_cauchy_on_coeffs(seq, -1)


def test_gram_diagonal_closed_values():
    report = psi_gram([(1, 0), (1, 1), (0, 0)])
    v = report.values
    assert abs(v[0, 0] - math.pi / 3.0) <= 1e-12 * math.pi
    assert abs(v[1, 1] - math.pi / 9.0) <= 1e-12 * math.pi
    assert abs(v[2, 2] - math.pi * math.log(4.0 / 3.0)) <= 1e-12 * math.pi
    assert report.radial_check_max_rel < 1e-8


def test_gram_selection_rule_exact_zeros():
    indices = [(1, 0), (2, 1), (1, 1), (3, 2), (0, 0), (0, 2)]
    report = psi_gram(indices)
    assert report.passed
    assert report.max_violation == 0.0
    assert np.all(report.values[report.expected_zero_mask] == 0)
    # pattern pairs differ by equal index offsets
    assert report.indices == tuple(HermiteIndex(*i) for i in indices)
    for r, a in enumerate(report.indices):
        for s, b in enumerate(report.indices):
            assert report.expected_zero_mask[r, s] == ((a.m - b.m) != (a.n - b.n))


def test_gram_validation():
    with pytest.raises(ValueError):
        psi_gram([(-1, 0)])


def test_psi_gram_overflow_raises_before_any_profile(monkeypatch):
    from polycauchy import range_analysis

    def profile(*args, **kwargs):
        raise AssertionError("a profile was built before the overflow check")

    monkeypatch.setattr(range_analysis, "hermite_radial_profile", profile)
    for past in ([(1, 0), (0, 171)], [(172, 0)], [(3, 171)]):
        with pytest.raises(OverflowError, match=r"factorial\(171\)"):
            psi_gram(past)


def _profile(idx, t, *, weighted=False):
    """One index's (profile, freq) from a one-row profile call."""
    profile, freq = hermite_radial_profile([idx], t, weighted=weighted)
    return profile[0], freq[0]


def _psi_profile(idx: HermiteIndex, grid: PolarGrid):
    """Profile of psi_{m,n} = -e^{-t} H_{m-1,n} on a polar grid."""
    profile, freq = _profile(HermiteIndex(idx.m - 1, idx.n), grid.radial_t, weighted=True)
    return -profile, freq


# pi to 50 digits, so pi times an exact rational rounds once
_PI = Fraction("3.14159265358979323846264338327950288419716939937510")


def _exact_psi_entry(a: HermiteIndex, b: HermiteIndex, table: dict) -> float:
    """<psi_a, psi_b> for m, j >= 1, correctly rounded from exact arithmetic.

    The entry is the integral of H_{m-1,n} conj(H_{j-1,k}) e^{-3|z|^2};
    each matched monomial z^s zbar^s contributes pi s!/3^{s+1}.
    """
    total = Fraction(0)
    for (x, y), c in table[a.m - 1, a.n].items():
        for (u, v), c2 in table[b.m - 1, b.n].items():
            # z^x zbar^y conj(z^u zbar^v) = z^{x+v} zbar^{y+u}
            if x + v == y + u:
                total += Fraction(c * c2 * math.factorial(x + v), 3 ** (x + v + 1))
    return float(_PI * total)


def test_psi_gram_matches_exact_rational_gram():
    # every pattern-nonzero m, j >= 1 entry at K = 8 and 16 is within one
    # ulp of the correctly rounded exact Gram: the closed form rounds the
    # exact rational once, then divides pi by it.  The anchors pi/3 and
    # pi/9 come out exactly.
    for K in (8, 16):
        indices = [HermiteIndex(m, n) for m in range(K + 1) for n in range(K + 1)]
        report = psi_gram(indices)
        values = report.values
        assert np.array_equal(values, values.T)
        # on 128 angles no pair aliases: off the pattern is the exact zero
        assert np.all(values[report.expected_zero_mask] == 0j) and report.max_violation == 0.0
        for idx, anchor in (((1, 0), math.pi / 3), ((2, 0), math.pi / 9)):
            at = indices.index(HermiteIndex(*idx))
            assert values[at, at] == anchor
        table = _hermite_integer_coefficients(K)
        for r, a in enumerate(indices):
            for s, b in enumerate(indices[: r + 1]):
                if a.m >= 1 and b.m >= 1 and not report.expected_zero_mask[r, s]:
                    want = _exact_psi_entry(a, b, table)
                    assert abs(values[r, s] - want) <= np.spacing(abs(want)), (a, b)
    # the m = 0 entries have no exact route: hold them against the
    # per-pair double-double rule on the exact profile products.  Each is
    # one 64-node sum of P_a w P_b, so its error is a few eps times
    # S = pi sum_k w_k |P_a P_b|; the bound is 8 eps S.
    grid = build_polar_grid()
    eps = np.finfo(float).eps
    for r, a in enumerate(indices):
        for s, b in enumerate(indices[: r + 1]):
            if (a.m == 0 or b.m == 0) and not report.expected_zero_mask[r, s]:
                pa, fa = _psi_profile(a, grid)
                pb, fb = _psi_profile(b, grid)
                rh, rl = two_prod(pa, pb)
                want = polar_separable_quadrature(rh, rl, fa - fb, grid)
                scale = math.pi * np.sum(grid.radial_w * np.abs(pa * pb))
                assert abs(values[r, s] - want) <= 8 * eps * scale, (a, b)


def _psi_radial_mp(m: int, n: int, t):
    """Radial factor of psi_{m,n} = -e^{-t} H_{m-1,n} in mpmath.

    H_{a,b} = sum_k (-1)^k k! C(a,k) C(b,k) z^{a-k} zbar^{b-k} for m >= 1,
    and H_{-1,n} = -zbar^{n+1} 1F1(1; n+2; t) / (n+1); the angular
    factor e^{i(m-1-n) theta} is left out.
    """
    root = mpmath.sqrt(t)
    if m == 0:
        h = -(root ** (n + 1)) * mpmath.hyp1f1(1, n + 2, t) / (n + 1)
    else:
        a, b = m - 1, n
        h = sum(
            (-1) ** k * math.factorial(k) * math.comb(a, k) * math.comb(b, k)
            * root ** (a + b - 2 * k)
            for k in range(min(a, b) + 1)
        )
    return -mpmath.exp(-t) * h


def test_psi_gram_m0_entries_against_mpmath():
    # the entries with an m = 0 member have no exact route: hold a few
    # against a 30-digit quadrature of pi * integral f_a f_b e^{-t} dt of
    # the radial factors.  (0,0) x (0,0) is pi log(4/3).  The worst gap
    # measured is 2.5e-16 relative, on (0,2) x (0,2); the bound is 1e-15.
    pairs = (((0, 0), (0, 0)), ((0, 2), (0, 2)), ((0, 1), (2, 3)), ((0, 3), (1, 4)))
    indices = sorted({i for pair in pairs for i in pair})
    report = psi_gram(indices)
    at = {index: r for r, index in enumerate(indices)}
    with mpmath.workdps(30):
        log_ratio = mpmath.pi * mpmath.log(mpmath.mpf(4) / 3)
        for a, b in pairs:
            want = mpmath.pi * mpmath.quad(
                lambda t: _psi_radial_mp(*a, t) * _psi_radial_mp(*b, t) * mpmath.exp(-t),
                [0, mpmath.inf],
            )
            if a == b == (0, 0):
                assert abs(want - log_ratio) < 1e-25
            got = report.values[at[a], at[b]]
            assert abs(got - want) <= 1e-15 * abs(want), (a, b)


def _profile_mp(m: int, n: int, t):
    """Radial profile of e^{-t} H_{m-1,n}, the psi_{m,n} Gram's factor, in mpmath."""
    if m == 0:
        radial = -(t ** (mpmath.mpf(n + 1) / 2)) * mpmath.hyp1f1(1, n + 2, t) / (n + 1)
    else:
        p, d = min(m - 1, n), abs(m - 1 - n)
        radial = (-1) ** p * math.factorial(p) * t ** (mpmath.mpf(d) / 2) * mpmath.laguerre(p, d, t)
    return radial * mpmath.exp(-t)


def test_psi_gram_m0_rows_against_mpmath_on_the_nodes():
    # every pattern-nonzero entry of the nine m = 0 rows at K = 8 against
    # pi sum_k w_k P_a(t_k) P_b(t_k), summed at 30 digits on the same
    # nodes, on the Cauchy-Schwarz scale sqrt(G_aa G_bb).  The worst gap
    # measured is 1.0e-15; the bound is 4e-15.
    grid = build_polar_grid()
    indices = [HermiteIndex(m, n) for m in range(9) for n in range(9)]
    report = psi_gram(indices, grid)
    rows = [r for r, a in enumerate(indices) if a.m == 0]
    cols = sorted({s for r in rows for s in np.flatnonzero(~report.expected_zero_mask[r])})
    with mpmath.workdps(30):
        nodes = [mpmath.mpf(t) for t in grid.radial_t.tolist()]
        weights = [mpmath.mpf(w) for w in grid.radial_w.tolist()]
        profile = {s: [_profile_mp(indices[s].m, indices[s].n, t) for t in nodes] for s in cols}

        def entry(r, s):
            terms = (w * a * b for w, a, b in zip(weights, profile[r], profile[s]))
            return mpmath.pi * mpmath.fsum(terms)

        diagonal = {s: entry(s, s) for s in cols}
        worst = 0.0
        for r in rows:
            for s in np.flatnonzero(~report.expected_zero_mask[r]):
                gap = abs(report.values[r, s] - entry(r, s))
                worst = max(worst, float(gap / mpmath.sqrt(diagonal[r] * diagonal[s])))
    assert worst <= 4e-15, worst


def test_psi_gram_values_are_one_read_only_real_matrix():
    # one float64 matrix, exactly symmetric and read-only, whose m = 0
    # rows and columns are the separable Gram of every row, aliased
    # classes of n_theta = 8 included
    indices = [HermiteIndex(m, n) for m in range(5) for n in range(5)]
    for grid in (build_polar_grid(), build_polar_grid(16, 8)):
        values = psi_gram(indices, grid).values
        assert values.dtype == np.float64 and not values.flags.writeable
        assert np.array_equal(values, values.T)
        with pytest.raises(ValueError):
            values[0, 0] = 0.0
        profile, freq = hermite_radial_profile(
            [HermiteIndex(i.m - 1, i.n) for i in indices], grid.radial_t, weighted=True
        )
        separable = _separable_gram(profile, freq, grid)
        zero = [i.m == 0 for i in indices]
        assert values[zero].tobytes() == separable[zero].tobytes()


def test_psi_polynomial_block_does_not_depend_on_the_grid():
    # the m, j >= 1 block is the closed form on every grid, bit for bit
    indices = [HermiteIndex(m, n) for m in range(6) for n in range(6)]
    poly = np.ix_(*[[i.m >= 1 for i in indices]] * 2)
    blocks = [
        psi_gram(indices, build_polar_grid(nr, nt)).values[poly]
        for nr, nt in ((64, 128), (8, 16), (2, 8))
    ]
    for block in blocks[1:]:
        assert block.tobytes() == blocks[0].tobytes()


def test_psi_gram_overflow_is_a_named_error():
    # past the double range an entry is inf, refused with the pair named
    for indices in ([(110, 110)], [(1, 0), (110, 110)]):
        with pytest.raises(ValueError, match=r"psi_\(110,110\).*not a finite double"):
            psi_gram(indices)


def test_psi_gram_keeps_its_residue_classes():
    # entries off the frequency classes mod n_theta are the rule's exact
    # zeros, the Gram is exactly symmetric, and the radial cross-check
    # equals the per-pair confluent-series integral; on n_theta = 8 the
    # m = 0 pair (0,4), (4,0) aliases to a nonzero entry
    cases = ((range(4), range(3), 32, 16), (range(5), range(5), 16, 8))
    for ms, ns, n_radial, n_theta in cases:
        indices = [HermiteIndex(m, n) for m in ms for n in ns]
        grid = build_polar_grid(n_radial, n_theta)
        x, w = gauss_laguerre_nodes(n_radial)
        t3, w3 = x / 3.0, w / 3.0
        report = psi_gram(indices, grid)
        assert np.array_equal(report.values, report.values.T)
        freq = np.array([i.m - 1 - i.n for i in indices])
        kept = (freq[:, None] - freq[None, :]) % n_theta == 0
        assert np.all(report.values[~kept] == 0j)
        assert np.all(report.values[kept] != 0j)
        worst = 0.0
        for r, a in enumerate(indices):
            for s, b in enumerate(indices):
                if a.m >= 1 and b.m >= 1 and a.m - b.m == a.n - b.n:
                    da, db = abs(a.m - 1 - a.n), abs(b.m - 1 - b.n)

                    def h(t, a=a, b=b, da=da, db=db):
                        return (
                            t ** (0.5 * (da + db))
                            * kummer_terminating(min(a.m - 1, a.n), da + 1, t)
                            * kummer_terminating(min(b.m - 1, b.n), db + 1, t)
                        )

                    expected = (
                        math.pi * c_mn(a.m - 1, a.n) * c_mn(b.m - 1, b.n)
                        * kahan_sum(h(t3) * w3)
                    )
                    gap = abs(report.values[r, s] - expected) / (1.0 + abs(expected))
                    worst = max(worst, gap)
        assert report.radial_check_max_rel == worst > 0.0
    aliased = indices.index(HermiteIndex(0, 4)), indices.index(HermiteIndex(4, 0))
    assert report.expected_zero_mask[aliased] and report.values[aliased] != 0
    assert report.values[aliased[::-1]] == report.values[aliased]


def test_psi_gram_radial_cross_check_keeps_its_compensated_gap():
    # K = 8 on the default grid reads 4.2298e-16; the beta = 3 terms
    # summed by np.sum instead of the Kahan sum read 8.46e-16
    indices = [HermiteIndex(m, n) for m in range(9) for n in range(9)]
    assert psi_gram(indices).radial_check_max_rel <= 5e-16


def test_psi_gram_on_wide_grids_is_finite_and_stable():
    # the outermost Laguerre node at nr = 200 is 767.8, past e^t's range;
    # the m = 0 profiles never form e^t, so the Gram stays finite and
    # agrees with nr = 64
    indices = [HermiteIndex(m, n) for m in range(3) for n in range(3)]
    coarse = psi_gram(indices, build_polar_grid(64, 64)).values
    for nr in (150, 200):
        wide = psi_gram(indices, build_polar_grid(nr, 64))
        assert np.all(np.isfinite(wide.values)) and wide.passed
        nonzero = coarse != 0
        assert np.array_equal(wide.values != 0, nonzero)
        gap = np.abs(wide.values[nonzero] - coarse[nonzero]) / np.abs(coarse[nonzero])
        assert np.max(gap) <= 1e-12, nr


def test_psi_gram_refuses_non_finite_values(monkeypatch):
    from polycauchy import range_analysis

    profile = range_analysis.hermite_radial_profile

    def broken(indices, t, *, weighted=False):
        values, freq = profile(indices, t, weighted=weighted)
        if weighted:
            # the beta = 1 row of psi_(0,1) = -e^{-t} H_{-1,1}
            values[list(indices).index(HermiteIndex(-1, 1)), -1] = np.nan
        return values, freq

    monkeypatch.setattr(range_analysis, "hermite_radial_profile", broken)
    with pytest.raises(ValueError, match=r"psi_\(0,1\).*not a finite double"):
        psi_gram([(0, 0), (0, 1), (1, 0)])


def test_gram_report_consistency_enforced():
    values = np.zeros((1, 1), dtype=complex)
    mask = np.zeros((1, 1), dtype=bool)
    with pytest.raises(ValueError):
        GramReport(
            indices=(HermiteIndex(1, 0),),
            values=values,
            expected_zero_mask=mask,
            max_violation=1.0,
            tolerance=0.5,
            passed=True,
            radial_check_max_rel=0.0,
        )


def test_angular_block_index_examples():
    assert e_ell_indices(0, 3) == [HermiteIndex(0, 0), HermiteIndex(1, 1), HermiteIndex(2, 2)]
    assert e_ell_indices(2, 2) == [HermiteIndex(0, 2), HermiteIndex(1, 3)]
    assert e_ell_indices(-1, 2) == [HermiteIndex(1, 0), HermiteIndex(2, 1)]
    with pytest.raises(ValueError):
        e_ell_indices(0, 0)


def test_angular_blocks_mutually_orthogonal():
    union = []
    for ell in range(-2, 3):
        union.extend(e_ell_indices(ell, 2))
    report = psi_gram(union)
    assert report.passed


def _psi_basis_entry(
    psi_idx: HermiteIndex, basis_idx: HermiteIndex, grid1: PolarGrid, grid2: PolarGrid
) -> float:
    """<psi_{j,k}, H_{m,n}> by the separable rule.

    For j >= 1 the polynomial factors pair with the psi envelope into
    an effective e^{-2|z|^2} weight (grid2, the e^{-t} nodes and weights
    halved, exact rule); j = 0 keeps the extended profile on grid1.
    """
    j, k = psi_idx.m, psi_idx.n
    if j >= 1:
        pa, fa = _profile(HermiteIndex(j - 1, k), grid2.radial_t)
        pb, fb = _profile(basis_idx, grid2.radial_t)
        rh, rl = two_prod(-pa, pb)
        return complex(polar_separable_quadrature(rh, rl, fa - fb, grid2)).real
    pa, fa = _psi_profile(psi_idx, grid1)
    pb, fb = _profile(basis_idx, grid1.radial_t)
    rh, rl = two_prod(pa, pb)
    return complex(polar_separable_quadrature(rh, rl, fa - fb, grid1)).real


def test_closed_operator_matrix_matches_quadrature():
    degree = 8
    basis = sorted(
        (HermiteIndex(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)),
        key=lambda i: (i.m + i.n, i.m),
    )
    grid1 = build_polar_grid()
    x, w = gauss_laguerre_nodes(grid1.n_radial)
    grid2 = PolarGrid(radial_t=x / 2, radial_w=w / 2, n_theta=grid1.n_theta)
    quadrature = np.empty((len(basis), len(basis)))
    for r, row in enumerate(basis):
        row_norm = math.pi * math.sqrt(math.factorial(row.m) * math.factorial(row.n))
        for s, col in enumerate(basis):
            col_norm = math.sqrt(math.factorial(col.m) * math.factorial(col.n))
            quadrature[r, s] = _psi_basis_entry(col, row, grid1, grid2) / (row_norm * col_norm)
    closed = _operator_matrix(degree)
    assert np.array_equal(closed != 0, quadrature != 0)
    assert np.max(np.abs(closed - quadrature)) < 1e-14
    want = np.linalg.svd(quadrature, compute_uv=False)
    assert np.max(np.abs(np.array(truncated_operator_svd(degree)) - want)) < 1e-14


def test_operator_svd_small_degrees():
    assert truncated_operator_svd(0) == [0.0]
    sv1 = truncated_operator_svd(1)
    assert len(sv1) == 3
    assert min(abs(s - 0.5) for s in sv1) < 1e-12
    assert sv1 == sorted(sv1, reverse=True)
    lead2 = truncated_operator_svd(2)[0]
    lead3 = truncated_operator_svd(3)[0]
    assert lead3 >= lead2 - 1e-12
    with pytest.raises(ValueError):
        truncated_operator_svd(13)
    with pytest.raises(ValueError):
        truncated_operator_svd(-1)
    # the degree goes through operator.index, as build_polar_grid's counts do
    for degree in (3.0, 12.5):
        with pytest.raises(TypeError):
            truncated_operator_svd(degree)
    assert truncated_operator_svd(np.int64(2)) == truncated_operator_svd(2)


def _per_entry_operator_matrix(degree):
    # one projection_coefficient_closed per (row, column) pair, with the
    # norm ratio as one int / int of Python-integer factorials
    basis = sorted(
        ((m, n) for m in range(degree + 1) for n in range(degree + 1 - m)),
        key=lambda i: (i[0] + i[1], i[0]),
    )
    f = math.factorial
    matrix = np.zeros((len(basis), len(basis)))
    for r, (m, n) in enumerate(basis):
        for s, (j, k) in enumerate(basis):
            coefficient, target = projection_coefficient_closed(n, j, k)
            if target is not None and target.m == m:
                matrix[r, s] = math.sqrt(f(m) * f(n) / (f(j) * f(k))) * coefficient
    return matrix


@pytest.mark.parametrize("degree", range(13))
def test_operator_matrix_equals_the_per_entry_build_bit_for_bit(degree):
    # the scatter keeps every intermediate exact for D <= 12, so each
    # entry rounds as the per-entry build does and the spectrum is the
    # same LAPACK call on the same bits
    want = _per_entry_operator_matrix(degree)
    got = _operator_matrix(degree)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    svd = np.linalg.svd(want, compute_uv=False)
    assert np.array_equal(np.array(truncated_operator_svd(degree)), svd)
