"""Structure of the transform's range: bases, Gram reports, spectra.

Three views of the same operator family live here.  Index-set bases
describe the spaces P_n(C(A^2_ell)) and their finite-dimensional
complements; the psi-Gram computations expose the orthogonality
selection rule <psi_{m,n}, psi_{j,k}> = 0 unless m - j = n - k, with
the polynomial entries from their exact closed form; and a
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

_GRAM_TOLERANCE = 1e-9  # largest selection-rule violation a psi Gram passes with
_PAIR_CHUNK = 8192  # cross-check pairs per term block (8192 x 64 nodes is 4 MB)


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


def _psi_pair_radial(indices, rows, cols, grid: PolarGrid) -> np.ndarray:
    """Radial route to <psi_a, psi_b> for polynomial pairs (m, j >= 1).

    pi c_{m-1,n} c_{j-1,k} * integral of t^{(d_a+d_b)/2} F_a F_b e^{-3t} dt,
    with F the terminating confluent factors; an independent check on
    the grid value (series evaluation against recurrence evaluation).
    Returns one value per pair (indices[rows[e]], indices[cols[e]]),
    Kahan-summed over ascending beta = 3 nodes.  The pairs x nodes terms
    are formed _PAIR_CHUNK pairs at a time; every step is elementwise
    per pair, so the chunking moves no bit.
    """
    grid3 = build_polar_grid(grid.n_radial, grid.n_theta, 3.0)
    t, w = grid3.radial_t, grid3.radial_w
    p = np.array([min(i.m - 1, i.n) for i in indices], dtype=int)
    d = np.array([abs(i.m - 1 - i.n) for i in indices], dtype=int)
    factor = kummer_terminating(p[:, None], d[:, None] + 1, t)
    const = np.array([c_mn(i.m - 1, i.n) for i in indices])
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    power = np.array([t ** (0.5 * e) for e in range(2 * int(d.max(initial=0)) + 1)])
    sums = np.empty(rows.size)
    for s in range(0, rows.size, _PAIR_CHUNK):
        r, c = rows[s : s + _PAIR_CHUNK], cols[s : s + _PAIR_CHUNK]
        terms = power[d[r] + d[c]] * factor[r] * factor[c] * w
        sums[s : s + _PAIR_CHUNK] = kahan_sum(terms.T)
    return math.pi * const[rows] * const[cols] * sums


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of psi functions with its selection-rule verdict.

    ``indices`` is the row and column order of ``values``, a read-only,
    exactly symmetric float64 matrix.
    expected_zero_mask flags pairs with m - j != n - k.  Those entries
    are exact zeros (0.0): the closed form gives them for polynomial pairs,
    and for pairs with an m = 0 member the angular rule integrates only
    pairs whose frequency difference is a multiple of the grid's
    n_theta, so only a grid that aliases them makes them nonzero.
    max_violation is the largest magnitude over the flagged entries and
    passed reflects max_violation < tolerance.  radial_check_max_rel
    records the worst relative deviation of pattern-nonzero polynomial
    entries from the independent radial route.
    """

    indices: tuple = field(compare=False)
    values: np.ndarray = field(compare=False)
    expected_zero_mask: np.ndarray = field(compare=False)
    max_violation: float
    tolerance: float
    passed: bool
    radial_check_max_rel: float

    def __post_init__(self) -> None:
        if (self.max_violation < self.tolerance) != self.passed:
            raise ValueError("GramReport passed flag contradicts max_violation")


def _psi_polynomial_gram(indices) -> np.ndarray:
    """The N x N psi Gram with every entry of two m >= 1 indices filled.

    Each such entry is rounded from its exact value; the rows and
    columns of m = 0 indices are left 0.0.

    With a = m - 1, b = n for the first index and c = j - 1, e = k for
    the second, the entry is zero unless delta = a - b = c - e, and then

        pi (-1)^{a+c} b! e! 2^{a+c} / 3^{a+e+1}
            * sum_{q = max(0, delta)}^{min(a, c)} C(a,q) C(c,q) q! / (4^q (q - delta)!),

    from sum H_{a,b} u^a v^b / (a! b!) = e^{uz + v zbar - uv} and the
    Gaussian integral of e^{Az + B zbar - 3|z|^2}, which is
    (pi/3) e^{AB/3}.  Every term has the sign (-1)^{a+c}, so nothing
    cancels.  Each selection-rule class (one delta, largest a kappa) is
    one exact object-dtype matmul (C * W) @ C.T of the binomials
    against the integer weights W(q) = 4^{kappa-q} q! (kappa-delta)! /
    (q-delta)!.  Each entry is then pi / (den / num), the quotient of
    two Python integers, which rounds once, so pi/3 and pi/9 come out
    exactly.  The matrix is exactly symmetric.  An entry past the double
    range is inf.
    """
    a = np.array([i.m - 1 for i in indices], dtype=int)
    b = np.array([i.n for i in indices], dtype=int)
    deltas = a - b
    poly = np.flatnonzero(a >= 0)
    out = np.zeros((a.size, a.size))
    for delta in np.unique(deltas[poly]).tolist():
        rows = poly[deltas[poly] == delta]
        ar, br = a[rows].tolist(), b[rows].tolist()
        kappa = max(ar)
        qs = range(max(0, delta), kappa + 1)
        binomials = np.array([[math.comb(x, q) for q in qs] for x in ar], dtype=object)
        top = math.factorial(kappa - delta)
        weights = np.array(
            [(math.factorial(q) << 2 * (kappa - q)) * top // math.factorial(q - delta) for q in qs],
            dtype=object,
        )
        sums = (binomials * weights) @ binomials.T
        # num = b! e! S and den = 2^{2 kappa - a - c} 3^{a+e+1} (kappa - delta)!, exact
        fact = np.array([math.factorial(y) for y in br], dtype=object)
        num = np.multiply.outer(fact, fact) * sums
        left = np.array([3 ** (x + 1) * top << kappa - x for x in ar], dtype=object)
        right = np.array([3**y << kappa - x for x, y in zip(ar, br)], dtype=object)
        ratio = (np.multiply.outer(left, right) / num).astype(float)
        sign = np.where((a[rows, None] + a[rows]) % 2, -1.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            out[np.ix_(rows, rows)] = sign * (math.pi / ratio)
    return out


def psi_gram(indices, grid: PolarGrid | None = None) -> GramReport:
    """Gram matrix <psi_a, psi_b> over the ambient Gaussian space.

    Every entry is real, and the Gram is one float64 N x N matrix,
    filled in place.  Pairs with both first indices >= 1 come from their
    exact closed form (:func:`_psi_polynomial_gram`), within one
    rounding of pi times a rational, whatever the grid.  Pairs involving
    the extended m = 0 function are integrated on the beta = 1 grid,
    whose decay is only 1/|z| times Gaussian: every such entry reduces
    to a real radial profile times one angular frequency, so only pairs
    whose frequency difference is a multiple of the grid's n_theta are
    integrated, one real matmul per frequency class modulo n_theta
    (:func:`ito_hermite._separable_gram`), and every other entry is the
    rule's exact zero.  The beta = 1 profiles are built only for rows in
    the class of an m = 0 row, and only the rows and columns of m = 0
    indices are written from them.  The matrix is exactly symmetric.
    Polynomial entries expected nonzero are re-derived through the
    radial confluent-series route on beta = 3 nodes (one batched series
    climb), an independent check, and the worst relative gap is
    reported.  That rule is exact for a pair only while
    (m - 1 + n + j - 1 + k) / 2 <= 2 n_radial - 1, so the gap also shows
    an n_radial too small for the indices.  The largest factorial the
    profiles need is formed first, so an index past its overflow raises
    OverflowError before any work.
    An entry or gap that is not finite raises ValueError, so a report
    never passes on one.
    """
    if grid is None:
        grid = build_polar_grid()
    if grid.beta != 1.0:
        raise ValueError(f"psi_gram requires a grid with beta=1, got beta={grid.beta}")
    idx = [i if isinstance(i, HermiteIndex) else HermiteIndex(*i) for i in indices]
    for i in idx:
        if i.m < 0:
            raise ValueError(f"psi_gram requires indices with m >= 0, got {i}")
    # p! first: past its overflow it raises before the profiles are built
    factorial(max((max(i.m - 1, i.n) for i in idx), default=0))
    m = np.array([i.m for i in idx], dtype=int)
    n = np.array([i.n for i in idx], dtype=int)
    # m - j != n - k, as m - n != j - k: one N x N bool, no N x N integers
    mask = (m - n)[:, None] != (m - n)[None, :]
    values = _psi_polynomial_gram(idx)
    # pairs with an m = 0 member meet only rows of its frequency class
    zero = m == 0
    residue = (m - 1 - n) % grid.n_theta
    near = np.isin(residue, residue[zero])
    if near.any():
        # psi_{m,n} = -e^{-t} H_{m-1,n}; the sign cancels in every product.
        # The weighted profiles form the m = 0 images without e^t, so they
        # stay finite on the outermost nodes of large grids
        profile, freq = hermite_radial_profile(
            [HermiteIndex(i.m - 1, i.n) for i, keep in zip(idx, near) if keep],
            grid.radial_t,
            weighted=True,
        )
        block = _separable_gram(profile, freq, grid)
        values[np.ix_(zero, near)] = block[zero[near]]
        values[np.ix_(near, zero)] = block[:, zero[near]]
        del block  # about a quarter of the N x N matrix at K = 63
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, s = bad[0]
        a, b = idx[r], idx[s]
        raise ValueError(
            f"psi_gram: <psi_({a.m},{a.n}), psi_({b.m},{b.n})> = {values[r, s]} "
            "is not a finite double"
        )

    rows, cols = np.nonzero(~mask[np.ix_(~zero, ~zero)])
    expected = _psi_pair_radial([i for i in idx if i.m >= 1], rows, cols, grid)
    at = np.flatnonzero(~zero)
    gap = np.abs(values[at[rows], at[cols]] - expected) / (1.0 + np.abs(expected))
    radial_worst = float(np.max(gap, initial=0.0))
    if not math.isfinite(radial_worst):
        raise ValueError(f"psi_gram: radial cross-check gap {radial_worst} is not finite")

    # the largest |entry| over the mask with no N x N temporary; + 0.0 drops a -0.0
    largest = np.max(values, where=mask, initial=0.0)
    violation = float(max(largest, -np.min(values, where=mask, initial=0.0))) + 0.0
    values.flags.writeable = False
    mask.flags.writeable = False
    return GramReport(
        indices=tuple(idx),
        values=values,
        expected_zero_mask=mask,
        max_violation=violation,
        tolerance=_GRAM_TOLERANCE,
        passed=violation < _GRAM_TOLERANCE,
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
