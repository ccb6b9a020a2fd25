"""Range bases, psi-Gram selection rule, and truncated singular values.

Oracles: exact index-set combinatorics, closed Gaussian integrals
(pi/3, pi/9, pi ln(4/3)) for Gram diagonals, and double-double polar
quadrature of every <psi_{j,k}, H_{m,n}> for the closed operator
matrix behind the truncated spectrum.
"""

import math

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
from polycauchy._ddouble import dd_mul, dd_mul_scalar
from polycauchy.gaussian_quadrature import (
    PolarGrid,
    build_polar_grid,
    integrate_radial_weighted,
    polar_separable_quadrature,
)
from polycauchy.ito_hermite import c_mn, hermite_radial_profile
from polycauchy.special_fn import kummer_terminating
from polycauchy.range_analysis import _operator_matrix, _psi_profile


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
    for (a, b), masked in zip(report.index_pairs, report.expected_zero_mask.ravel()):
        assert masked == ((a.m - b.m) != (a.n - b.n))


def test_gram_validation():
    with pytest.raises(ValueError):
        psi_gram([(-1, 0)])
    with pytest.raises(ValueError):
        psi_gram([(1, 0)], build_polar_grid(8, 8, 3.0))


def test_psi_gram_matches_pairwise():
    # every entry equals its own 1-D separable call, and the radial
    # cross-check equals the per-pair confluent-series integral
    indices = [HermiteIndex(m, n) for m in range(4) for n in range(3)]
    grid = build_polar_grid(32, 16, 1.0)
    grid3 = build_polar_grid(32, 16, 3.0)
    report = psi_gram(indices, grid)
    worst = 0.0
    for r, a in enumerate(indices):
        for s, b in enumerate(indices):
            if a.m >= 1 and b.m >= 1:
                ah, al, fa = hermite_radial_profile(HermiteIndex(a.m - 1, a.n), grid3.radial_t)
                bh, bl, fb = hermite_radial_profile(HermiteIndex(b.m - 1, b.n), grid3.radial_t)
                rh, rl = dd_mul(ah, al, bh, bl)
                value = polar_separable_quadrature(rh, rl, fa - fb, grid3)
                if a.m - b.m == a.n - b.n:
                    da, db = abs(a.m - 1 - a.n), abs(b.m - 1 - b.n)

                    def h(t, a=a, b=b, da=da, db=db):
                        return (
                            t ** (0.5 * (da + db))
                            * kummer_terminating(min(a.m - 1, a.n), da + 1, t)
                            * kummer_terminating(min(b.m - 1, b.n), db + 1, t)
                        )

                    expected = (
                        math.pi * c_mn(a.m - 1, a.n) * c_mn(b.m - 1, b.n)
                        * integrate_radial_weighted(h, 3.0, grid3)
                    )
                    worst = max(worst, abs(value - expected) / (1.0 + abs(expected)))
            else:
                ah, al, fa = _psi_profile(a, grid)
                bh, bl, fb = _psi_profile(b, grid)
                rh, rl = dd_mul(ah, al, bh, bl)
                value = polar_separable_quadrature(rh, rl, fa - fb, grid)
            assert report.values[r, s] == value
    assert report.radial_check_max_rel == worst > 0.0


def test_gram_report_consistency_enforced():
    values = np.zeros((1, 1), dtype=complex)
    mask = np.zeros((1, 1), dtype=bool)
    with pytest.raises(ValueError):
        GramReport(
            index_pairs=((HermiteIndex(1, 0), HermiteIndex(1, 0)),),
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
    report = psi_gram(union, tolerance=1e-9)
    assert report.passed


def _psi_basis_entry(
    psi_idx: HermiteIndex, basis_idx: HermiteIndex, grid1: PolarGrid, grid2: PolarGrid
) -> float:
    """<psi_{j,k}, H_{m,n}> by the separable rule.

    For j >= 1 the polynomial factors pair with the psi envelope into
    an effective e^{-2|z|^2} weight (beta = 2 grid, exact rule); j = 0
    keeps the extended profile on the beta = 1 grid.
    """
    j, k = psi_idx.m, psi_idx.n
    if j >= 1:
        ah, al, fa = hermite_radial_profile(HermiteIndex(j - 1, k), grid2.radial_t)
        bh, bl, fb = hermite_radial_profile(basis_idx, grid2.radial_t)
        rh, rl = dd_mul(ah, al, bh, bl)
        rh, rl = dd_mul_scalar(rh, rl, -1.0)
        return complex(polar_separable_quadrature(rh, rl, fa - fb, grid2)).real
    ah, al, fa = _psi_profile(psi_idx, grid1)
    bh, bl, fb = hermite_radial_profile(basis_idx, grid1.radial_t)
    rh, rl = dd_mul(ah, al, bh, bl)
    return complex(polar_separable_quadrature(rh, rl, fa - fb, grid1)).real


def test_closed_operator_matrix_matches_quadrature():
    degree = 8
    basis = sorted(
        (HermiteIndex(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)),
        key=lambda i: (i.m + i.n, i.m),
    )
    grid1 = build_polar_grid(beta=1.0)
    grid2 = build_polar_grid(beta=2.0)
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
