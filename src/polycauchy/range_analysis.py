"""Structure of the transform's range: bases, Gram reports, spectra.

Three views of the same operator family live here.  Index-set bases
describe the spaces P_n(C(A^2_ell)) and their finite-dimensional
complements; the psi-Gram computations expose the orthogonality
selection rule <psi_{m,n}, psi_{j,k}> = 0 unless m - j = n - k; and a
truncated matrix of the transform against the normalized basis,
assembled entry by entry from the closed projection coefficients and
handed to LAPACK, yields singular values for compactness experiments.

The R-basis index sets are determined by a single threshold: the span
of {P_n C H_{j,ell}: j} is spanned by H_{m,n} for m >= max(0,
n - ell - 1).  The threshold decreases as ell grows, so the computed
index sets satisfy R^ell_n within R^{ell+1}_n; inclusion checks are
reported from the index sets themselves, which are exact, rather than
asserted from expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._ddouble import dd_mul, dd_mul_scalar
from .gaussian_quadrature import PolarGrid, build_polar_grid
from .ito_hermite import HermiteIndex, _separable_gram, c_mn, hermite_radial_profile
from .poly_bergman import CoefficientSequence, projection_coefficient_closed
from .special_fn import factorial, kahan_sum, kummer_terminating

__all__ = [
    "GramReport",
    "RangeBasisSpec",
    "VARIANT_R",
    "VARIANT_R_TILDE",
    "e_ell_indices",
    "pn_cauchy_on_coeffs",
    "psi_gram",
    "r_range_inclusions",
    "range_basis_indices",
    "truncated_operator_svd",
]

VARIANT_R = "R"
VARIANT_R_TILDE = "R-tilde"


@dataclass(frozen=True)
class RangeBasisSpec:
    """Which range space: variant "R" (projected image of level ell
    under the transform, inside level n) or "R-tilde" (its orthogonal
    complement's finite-dimensional counterpart)."""

    variant: str
    ell: int
    n: int

    def __post_init__(self) -> None:
        if self.variant not in (VARIANT_R, VARIANT_R_TILDE):
            raise ValueError(
                f"RangeBasisSpec variant must be '{VARIANT_R}' or '{VARIANT_R_TILDE}', "
                f"got {self.variant!r}"
            )
        if self.ell < 0:
            raise ValueError(f"RangeBasisSpec requires ell >= 0, got {self.ell}")
        if self.n < 0:
            raise ValueError(f"RangeBasisSpec requires n >= 0, got {self.n}")


def range_basis_indices(spec: RangeBasisSpec, count: int = 8) -> list[HermiteIndex]:
    """Basis index list for the requested range space.

    Variant "R": the first ``count`` indices (n+j-ell-1, n) over
    j >= max(0, ell+1-n), i.e. H_{m,n} for m >= max(0, n-ell-1).
    Variant "R-tilde": exactly the n+ell indices (k, n), k < n+ell
    (``count`` is ignored; the space is finite dimensional), empty
    when n = ell = 0.
    """
    if count < 1:
        raise ValueError(f"range_basis_indices requires count >= 1, got {count}")
    ell, n = spec.ell, spec.n
    if spec.variant == VARIANT_R_TILDE:
        return [HermiteIndex(k, n) for k in range(n + ell)]
    j0 = max(0, ell + 1 - n)
    return [HermiteIndex(n + j - ell - 1, n) for j in range(j0, j0 + count)]


def r_range_inclusions(n: int, max_ell: int) -> list[tuple[int, bool, bool]]:
    """Computed index-set inclusions between consecutive R-spaces.

    For each ell < max_ell returns (ell, forward, backward) where
    forward means the ell index set is contained in the ell+1 set and
    backward the reverse.  Containment of these tail sets is exact:
    {m >= a} is a subset of {m >= b} iff a >= b, with thresholds
    a = max(0, n-ell-1).
    """
    if max_ell < 1:
        raise ValueError(f"r_range_inclusions requires max_ell >= 1, got {max_ell}")
    out = []
    for ell in range(max_ell):
        a = max(0, n - ell - 1)
        b = max(0, n - ell - 2)
        out.append((ell, a >= b, b >= a))
    return out


def pn_cauchy_on_coeffs(seq: CoefficientSequence, n: int) -> CoefficientSequence:
    """Coefficient action of P_n after the transform on a level-ell sequence.

    Each input coefficient alpha_j lands on the single target index
    n+j-ell-1 scaled by the closed projection coefficient; indices
    with n+j-ell-1 < 0 drop out.  The output support lies inside
    range_basis_indices("R", ell, n) by construction.
    """
    if n < 0:
        raise ValueError(f"pn_cauchy_on_coeffs requires n >= 0, got n={n}")
    ell = seq.n
    out_len = max(0, n + len(seq.coeffs) - 1 - ell)
    out = [0j] * out_len
    for j, alpha in enumerate(seq.coeffs):
        coefficient, target = projection_coefficient_closed(n, j, ell)
        if target is not None:
            out[target.m] = coefficient * alpha
    return CoefficientSequence(n=n, coeffs=tuple(out))


def _psi_profile(idx: HermiteIndex, grid: PolarGrid):
    """Double-double radial profile of psi_{m,n} = -e^{-t} H_{m-1,n} on the grid."""
    h, l, freq = hermite_radial_profile(HermiteIndex(idx.m - 1, idx.n), grid.radial_t)
    damp = np.exp(-grid.radial_t)
    h, l = dd_mul(h, l, damp, np.zeros_like(damp))
    return dd_mul_scalar(h, l, -1.0) + (freq,)


def _psi_pair_radial(indices, rows, cols, grid: PolarGrid) -> np.ndarray:
    """Radial route to <psi_a, psi_b> for polynomial pairs (m, j >= 1).

    pi c_{m-1,n} c_{j-1,k} * integral of t^{(d_a+d_b)/2} F_a F_b e^{-3t} dt,
    with F the terminating confluent factors; an independent check on
    the grid value (series evaluation against recurrence evaluation).
    Returns one value per pair (indices[rows[e]], indices[cols[e]]),
    Kahan-summed over ascending beta = 3 nodes.
    """
    grid3 = build_polar_grid(grid.n_radial, grid.n_theta, 3.0)
    t, w = grid3.radial_t, grid3.radial_w
    d = np.array([abs(i.m - 1 - i.n) for i in indices], dtype=int)
    factor = np.array(
        [kummer_terminating(min(i.m - 1, i.n), abs(i.m - 1 - i.n) + 1, t) for i in indices]
    ).reshape(len(indices), t.size)
    const = np.array([c_mn(i.m - 1, i.n) for i in indices])
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    exponent = d[rows] + d[cols]
    terms = np.empty((rows.size, t.size))
    for e in np.unique(exponent):
        pick = exponent == e
        terms[pick] = t ** (0.5 * int(e)) * factor[rows[pick]] * factor[cols[pick]] * w
    return math.pi * const[rows] * const[cols] * kahan_sum(terms.T)


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of psi functions with its selection-rule verdict.

    expected_zero_mask flags pairs with m - j != n - k; max_violation
    is the largest magnitude over those entries and passed reflects
    max_violation < tolerance.  radial_check_max_rel records the worst
    relative deviation of pattern-nonzero polynomial entries from the
    independent radial route.
    """

    index_pairs: tuple = field(compare=False)
    values: np.ndarray = field(compare=False)
    expected_zero_mask: np.ndarray = field(compare=False)
    max_violation: float
    tolerance: float
    passed: bool
    radial_check_max_rel: float

    def __post_init__(self) -> None:
        if (self.max_violation < self.tolerance) != self.passed:
            raise ValueError("GramReport passed flag contradicts max_violation")


def psi_gram(
    indices, grid: PolarGrid | None = None, tolerance: float = 1e-9
) -> GramReport:
    """Gram matrix <psi_a, psi_b> over the ambient Gaussian space.

    Pairs with both first indices >= 1 integrate two polynomial
    factors against the effective weight e^{-3|z|^2} on a beta = 3
    grid (the two Gaussian envelopes join the ambient weight); pairs
    involving the extended m = 0 function keep the full integrand on
    the beta = 1 grid, whose decay is only 1/|z| times Gaussian.
    Every entry reduces to a real radial profile times one angular
    frequency, so the selection rule m - j = n - k is resolved
    exactly.  Polynomial entries expected nonzero are re-derived
    through the radial confluent-series route and the worst relative
    gap is reported.
    """
    if grid is None:
        grid = build_polar_grid()
    if grid.beta != 1.0:
        raise ValueError(f"psi_gram requires a grid with beta=1, got beta={grid.beta}")
    idx = [i if isinstance(i, HermiteIndex) else HermiteIndex(*i) for i in indices]
    for i in idx:
        if i.m < 0:
            raise ValueError(f"psi_gram requires indices with m >= 0, got {i}")
    grid3 = build_polar_grid(grid.n_radial, grid.n_theta, 3.0)
    poly_idx = [i for i in idx if i.m >= 1]
    poly_profiles = [
        hermite_radial_profile(HermiteIndex(i.m - 1, i.n), grid3.radial_t) for i in poly_idx
    ]
    psi_profiles = [_psi_profile(i, grid) for i in idx]

    size = len(idx)
    m = np.array([i.m for i in idx], dtype=int)
    n = np.array([i.n for i in idx], dtype=int)
    mask = (m[:, None] - m[None, :]) != (n[:, None] - n[None, :])
    rows, cols = np.indices((size, size)).reshape(2, -1)
    poly = (m[rows] >= 1) & (m[cols] >= 1)
    place = np.cumsum(m >= 1) - 1  # position of each m >= 1 index in poly_idx
    values = np.empty(size * size, dtype=complex)
    values[poly] = _separable_gram(poly_profiles, place[rows[poly]], place[cols[poly]], grid3)
    values[~poly] = _separable_gram(psi_profiles, rows[~poly], cols[~poly], grid)

    check = poly & ~mask.reshape(-1)
    expected = _psi_pair_radial(poly_idx, place[rows[check]], place[cols[check]], grid)
    gap = np.abs(values[check] - expected) / (1.0 + np.abs(expected))
    radial_worst = float(np.max(gap, initial=0.0))
    values = values.reshape(size, size)

    violation = float(np.max(np.abs(values[mask]))) if mask.any() else 0.0
    values.flags.writeable = False
    mask.flags.writeable = False
    return GramReport(
        index_pairs=tuple((a, b) for a in idx for b in idx),
        values=values,
        expected_zero_mask=mask,
        max_violation=violation,
        tolerance=float(tolerance),
        passed=violation < tolerance,
        radial_check_max_rel=radial_worst,
    )


def e_ell_indices(ell: int, count: int) -> list[HermiteIndex]:
    """Indices of the psi family spanning the ell-th angular block.

    ell >= 0 gives (i, i+ell); ell < 0 gives (i+|ell|, i); i < count.
    Distinct blocks are mutually orthogonal by the selection rule.
    """
    if count < 1:
        raise ValueError(f"e_ell_indices requires count >= 1, got {count}")
    if ell >= 0:
        return [HermiteIndex(i, i + ell) for i in range(count)]
    return [HermiteIndex(i - ell, i) for i in range(count)]


def _operator_matrix(max_total_degree: int) -> np.ndarray:
    """Real matrix of <C H_{j,k}, H_{m,n}> / (pi sqrt(m! n! j! k!)).

    Rows and columns run over {(m, n): m+n <= max_total_degree} ordered
    by (m+n, m).  Column (j, k) meets level n only at the target of the
    closed projection coefficient, where <C H_{j,k}, H_{m,n}> = pi m! n!
    * coefficient; every other entry is zero.
    """
    degrees = range(max_total_degree + 1)
    basis = [HermiteIndex(m, d - m) for d in degrees for m in range(d + 1)]
    row_of = {idx: r for r, idx in enumerate(basis)}
    matrix = np.zeros((len(basis), len(basis)))
    for s, col in enumerate(basis):
        col_norm = factorial(col.m) * factorial(col.n)
        for n in degrees:
            coefficient, target = projection_coefficient_closed(n, col.m, col.n)
            r = row_of.get(target)
            if r is not None:
                row_norm = factorial(target.m) * factorial(n)
                matrix[r, s] = math.sqrt(row_norm / col_norm) * coefficient
    return matrix


def truncated_operator_svd(max_total_degree: int) -> list[float]:
    """Singular values of the transform cut to total degree <= D.

    The normalized operator matrix over the basis {(m, n): m+n <= D}
    is assembled from the closed projection coefficients and its
    singular values come from LAPACK (``numpy.linalg.svd``).  Values
    come out descending; growing D extends the matrix, so leading
    values are nondecreasing in D.
    """
    if not 0 <= max_total_degree <= 12:
        raise ValueError(
            f"truncated_operator_svd requires 0 <= max_total_degree <= 12, "
            f"got {max_total_degree}"
        )
    matrix = _operator_matrix(max_total_degree)
    return [float(s) for s in np.linalg.svd(matrix, compute_uv=False)]
