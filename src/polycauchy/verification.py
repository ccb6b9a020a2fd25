"""Machine-readable verification suites over the package invariants.

Each suite re-derives a family of identities through an independent
route (rational arithmetic, closed forms, or quadrature) and emits one
:class:`VerificationRecord` per check.  Suites are deterministic: all
pseudo-random draws use fixed seeds and every record carries the value
pair it compared, so repeated runs produce byte-identical reports.
A record's tolerance, provenance and error model come from its family's
row of :data:`CHECK_FAMILIES`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .cauchy_transform import (
    cauchy_hermite_closed,
    cauchy_singular_quadrature,
)
from .gaussian_quadrature import (
    DEFAULT_ANGULAR_NODES,
    DEFAULT_RADIAL_NODES,
    PolarGrid,
    SingularGrid,
    build_polar_grid,
    build_singular_grid,
    inner_product_gaussian,
    integrate_radial_weighted,
    singular_grid_shape,
)
from .ito_hermite import (
    HermiteIndex,
    hermite_eval,
    hermite_eval_extended,
    hermite_table,
)
from .poly_bergman import (
    KernelSpec,
    CoefficientSequence,
    kernel_closed,
    kernel_series,
    project_levels,
    projection_coefficient_closed,
)
from .range_analysis import (
    VARIANT_R,
    VARIANT_R_TILDE,
    RangeBasisSpec,
    _psi_pair_radial,
    e_ell_indices,
    pn_cauchy_on_coeffs,
    psi_gram,
    range_basis_indices,
    truncated_operator_svd,
)
from .special_fn import factorial, gauss2f1_unit, kummer_terminating, laguerre

__all__ = [
    "SUITE_NAMES",
    "VerificationRecord",
    "VerifyConfig",
    "record_to_row",
    "run_suite",
    "write_report",
]

PROVENANCE_CLOSED = "closed-form"
PROVENANCE_QUADRATURE = "quadrature"
PROVENANCE_CONSTANT = "paper-constant"


@dataclass(frozen=True)
class VerificationRecord:
    """One checked identity: the two values, their gap, and the verdict."""

    test_id: str
    lhs: complex
    rhs: complex
    abs_err: float
    tolerance: float
    passed: bool
    provenance: str

    def __post_init__(self) -> None:
        if self.passed != (self.abs_err <= self.tolerance):
            raise ValueError(
                f"record {self.test_id}: passed={self.passed} contradicts "
                f"abs_err={self.abs_err} vs tolerance={self.tolerance}"
            )
        if self.provenance not in (
            PROVENANCE_CLOSED,
            PROVENANCE_QUADRATURE,
            PROVENANCE_CONSTANT,
        ):
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class VerifyConfig:
    """Grid and tolerance settings shared by every suite.

    nr / ntheta replace the module default resolutions when set (None
    means unset; 0 and negative counts are rejected); the
    singular-integral grid keeps its own defaults otherwise, sized to
    the centre by :func:`singular_grid_shape`, as does its radius_pad.
    tolerance, when set, overrides the tolerance of every record; it
    must be finite and >= 0.  radius_pad, when set, must be finite and
    > 0, and kernel_truncation >= 0.
    """

    nr: int | None = None
    ntheta: int | None = None
    radius_pad: float | None = None
    kernel_truncation: int = KernelSpec.truncation
    tolerance: float | None = None

    def __post_init__(self) -> None:
        for name in ("nr", "ntheta"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"VerifyConfig requires {name} >= 1 when set, got {value}")
        if self.tolerance is not None and not (
            math.isfinite(self.tolerance) and self.tolerance >= 0
        ):
            raise ValueError(
                f"VerifyConfig requires a finite tolerance >= 0, got {self.tolerance}"
            )
        if self.radius_pad is not None and not (
            math.isfinite(self.radius_pad) and self.radius_pad > 0
        ):
            raise ValueError(
                f"VerifyConfig requires a finite radius_pad > 0, got {self.radius_pad}"
            )
        if self.kernel_truncation < 0:
            raise ValueError(
                "VerifyConfig requires kernel_truncation >= 0, "
                f"got {self.kernel_truncation}"
            )

    def polar_grid(self) -> PolarGrid:
        """The polar grid for e^{-|z|^2} at the configured resolution."""
        return build_polar_grid(
            DEFAULT_RADIAL_NODES if self.nr is None else self.nr,
            DEFAULT_ANGULAR_NODES if self.ntheta is None else self.ntheta,
        )

    def singular_grid(self, center: complex, refine: int = 1) -> SingularGrid:
        """The singular grid at ``center``, at ``refine`` times the resolution."""
        n_radial, n_theta, radius_pad = singular_grid_shape(center)
        n_radial = n_radial if self.nr is None else self.nr
        n_theta = n_theta if self.ntheta is None else self.ntheta
        return build_singular_grid(
            center,
            refine * n_radial,
            None if n_theta is None else refine * n_theta,
            radius_pad if self.radius_pad is None else self.radius_pad,
        )


ABSOLUTE = "absolute"
RELATIVE = "relative"
SCALED = "scaled"


@dataclass(frozen=True)
class CheckFamily:
    """Tolerance, provenance and error model shared by a family of records.

    A record's gap is |lhs - rhs|, judged by the family's model:

    - ``absolute``: the gap against ``tolerance``;
    - ``relative``: the gap against ``tolerance * (1 + |rhs|)``;
    - ``scaled``: the gap divided by a scale against ``tolerance``; the
      scale is 1 + |rhs|, or 1 + the sum of the term magnitudes when the
      check passes the terms of its identity.
    """

    tolerance: float
    provenance: str
    model: str


# One row per check family; a record's id is its family name, or the name,
# a hyphen and a suffix.
CHECK_FAMILIES = {
    # hermite
    "kummer-rational": CheckFamily(1e-12, PROVENANCE_CLOSED, SCALED),
    "laguerre-kummer": CheckFamily(1e-12, PROVENANCE_CLOSED, SCALED),
    "gauss2f1-symmetry": CheckFamily(1e-13, PROVENANCE_CLOSED, SCALED),
    "hermite-conjugate": CheckFamily(1e-11, PROVENANCE_CLOSED, SCALED),
    "hermite-index-shift": CheckFamily(1e-11, PROVENANCE_CLOSED, SCALED),
    "polyanalytic-order": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "landau-eigenvalue": CheckFamily(1e-11, PROVENANCE_CLOSED, SCALED),
    "extension-transform": CheckFamily(1e-6, PROVENANCE_QUADRATURE, RELATIVE),
    # cauchy
    "cauchy-closed-vs-numeric": CheckFamily(1e-6, PROVENANCE_QUADRATURE, RELATIVE),
    "cauchy-linearity": CheckFamily(1e-10, PROVENANCE_QUADRATURE, RELATIVE),
    "membership-radial": CheckFamily(1e-8, PROVENANCE_CLOSED, RELATIVE),
    "membership-refined": CheckFamily(1e-8, PROVENANCE_QUADRATURE, RELATIVE),
    # projection
    "projection-reproducing": CheckFamily(1e-9, PROVENANCE_QUADRATURE, ABSOLUTE),
    "projection-level-orthogonal": CheckFamily(1e-9, PROVENANCE_QUADRATURE, ABSOLUTE),
    "kernel-series-vs-closed": CheckFamily(1e-8, PROVENANCE_CLOSED, ABSOLUTE),
    "kernel-hermitian": CheckFamily(1e-13, PROVENANCE_CLOSED, ABSOLUTE),
    "prop-coefficient": CheckFamily(1e-8, PROVENANCE_QUADRATURE, ABSOLUTE),
    "prop-sign": CheckFamily(1e-8, PROVENANCE_QUADRATURE, ABSOLUTE),
    "prop-sign-display-typo": CheckFamily(1e-6, PROVENANCE_QUADRATURE, ABSOLUTE),
    # gram
    "radial-moment": CheckFamily(1e-11, PROVENANCE_CLOSED, RELATIVE),
    "angular-orthogonal": CheckFamily(1e-12, PROVENANCE_QUADRATURE, ABSOLUTE),
    "singular-refinement": CheckFamily(1e-7, PROVENANCE_QUADRATURE, RELATIVE),
    "gram-selection-rule-max": CheckFamily(1e-9, PROVENANCE_QUADRATURE, ABSOLUTE),
    "gram-radial-crosscheck-max": CheckFamily(1e-8, PROVENANCE_CLOSED, ABSOLUTE),
    "gram-diagonal": CheckFamily(1e-8, PROVENANCE_CLOSED, RELATIVE),
    "gram-diagonal-pi": CheckFamily(1e-8, PROVENANCE_CONSTANT, RELATIVE),
    "offset-block-orthogonal": CheckFamily(1e-9, PROVENANCE_QUADRATURE, ABSOLUTE),
    # ranges
    "rtilde-dimension": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "range-support": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "range-route-equality": CheckFamily(1e-8, PROVENANCE_QUADRATURE, ABSOLUTE),
    "svd-d8-all-finite": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "svd-d8-sorted-descending": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "svd-d8-tail-decreases": CheckFamily(0.0, PROVENANCE_CLOSED, ABSOLUTE),
    "svd-d1-contains-half": CheckFamily(1e-12, PROVENANCE_CLOSED, ABSOLUTE),
}


def _magnitude(values) -> np.ndarray:
    """Elementwise |values| by libm hypot, as Python's abs(complex) rounds it.

    numpy 2.4's np.abs on complex arrays differs from hypot in the last
    place on about a third of random inputs, so every gap and scale goes
    through this one function.  ``values`` is a number or an ndarray.
    """
    return np.hypot(values.real, values.imag)


def _worst_entry(gaps: np.ndarray) -> int:
    """Index of the worst gap: the first NaN if any, else the first largest.

    This is np.argmax's rule, which ranks NaN above every number and
    returns the first of equal maxima.
    """
    return int(gaps.argmax())


class _Recorder:
    """Accumulates records judged by their family's row of CHECK_FAMILIES.

    lhs and rhs may be paired arrays (rhs may be a scalar); the record
    keeps the worst entry, and a relative tolerance scales with that
    entry's rhs.  A set ``cfg.tolerance`` replaces the tolerance of
    every record.
    """

    def __init__(self, cfg: VerifyConfig):
        self.cfg = cfg
        self.records: list[VerificationRecord] = []

    def add(self, family: str, suffix: str, lhs, rhs, terms: tuple = ()) -> None:
        row = CHECK_FAMILIES[family]
        lhs = np.array(lhs, dtype=complex, ndmin=1)
        rhs = np.array(rhs, dtype=complex, ndmin=1)
        gaps = _magnitude(lhs - rhs)
        if row.model == SCALED:
            gaps = gaps / sum((_magnitude(term) for term in terms or (rhs,)), 1.0)
        i = _worst_entry(gaps)
        # a one-entry side broadcasts against the other
        worst_lhs, worst_rhs = lhs.item(i % lhs.size), rhs.item(i % rhs.size)
        abs_err = gaps.item(i)
        if self.cfg.tolerance is not None:
            tolerance = self.cfg.tolerance
        elif row.model == RELATIVE:
            tolerance = row.tolerance * (1.0 + abs(worst_rhs))
        else:
            tolerance = row.tolerance
        self.records.append(
            VerificationRecord(
                test_id=f"{family}-{suffix}" if suffix else family,
                lhs=worst_lhs,
                rhs=worst_rhs,
                abs_err=abs_err,
                tolerance=float(tolerance),
                passed=bool(abs_err <= tolerance),
                provenance=row.provenance,
            )
        )


def _sample_points(count: int, radius: float, seed: int) -> np.ndarray:
    """Fixed pseudo-random complex points with |z| <= radius, 0 excluded."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, size=count))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return r * np.exp(1j * theta)


def _psi_diagonal_radial(indices: list[HermiteIndex], grid: PolarGrid) -> dict:
    """Radial-route <psi_i, psi_i> for indices with m >= 1, keyed by index."""
    at = np.arange(len(indices))
    return dict(zip(indices, _psi_pair_radial(indices, at, at, grid).tolist()))


def _hermite_integer_coefficients(max_index: int) -> dict:
    """Exact coefficients {(a, b): c} of z^a zbar^b in H_{m,n}, m, n <= max_index.

    Built from H_{m,0} = z^m by the index recurrence
    H_{m,n+1} = zbar H_{m,n} - m H_{m-1,n} in integer arithmetic.
    """
    table = {}
    for m in range(max_index + 1):
        table[m, 0] = {(m, 0): 1}
        for n in range(max_index):
            poly = {(a, b + 1): c for (a, b), c in table[m, n].items()}
            for key, c in (table[m - 1, n].items() if m else ()):
                poly[key] = poly.get(key, 0) - m * c
            table[m, n + 1] = poly
    return table


def _exact_rank(polys: list[dict]) -> int:
    """Rank over the rationals of polynomials given as {(a, b): c} maps.

    Gaussian elimination in integers: each row is scaled by the pivot's
    leading coefficient before the pivot's multiple is subtracted, which
    clears that key exactly and leaves the span's rank unchanged.
    """
    rows = [{key: c for key, c in poly.items() if c} for poly in polys]
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        key, lead = next(iter(pivot.items()))
        for i, row in enumerate(rows):
            factor = row.get(key, 0)
            if factor:
                scaled = {k: lead * c for k, c in row.items()}
                for k, c in pivot.items():
                    scaled[k] = scaled.get(k, 0) - factor * c
                rows[i] = {k: c for k, c in scaled.items() if c}
    return rank


def _span_rank(spec: RangeBasisSpec, table: dict) -> int:
    """Exact rank of the integer coefficient vectors of the spec's basis.

    ``table`` is :func:`_hermite_integer_coefficients` of a max_index
    of at least max(n + ell - 1, n).
    """
    return _exact_rank([table[i.m, i.n] for i in range_basis_indices(spec)])


def _kummer_exact(p: int, b: int, t: Fraction) -> float:
    """1F1(-p; b; t) summed exactly in integers, then correctly rounded.

    The series is nested as 1 + c_0 t (1 + c_1 t (1 + ...)) over one
    integer numerator and denominator.  Python's int / int rounds the
    quotient correctly, so the result equals float() of the exact
    rational sum.
    """
    num, den = 1, 1
    for k in reversed(range(p)):
        step = (b + k) * (k + 1) * t.denominator
        num, den = den * step + (k - p) * t.numerator * num, den * step
    return num / den


# ----------------------------------------------------------------- hermite


def _suite_hermite(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    t_values = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(9))
    t = np.array([float(v) for v in t_values])

    # confluent factor against exact rational sums: every (p, b, t) in
    # one climb, and every n of the Laguerre check in another.  Array-p
    # entries equal the scalar calls bit for bit (kummer_terminating).
    b_values = np.arange(1, 13)
    kummer = kummer_terminating(np.arange(13)[:, None, None], b_values[:, None], t)
    for p, batch in enumerate(kummer):
        for b, row in zip(b_values.tolist(), batch):
            rec.add(
                "kummer-rational",
                f"p{p}-b{b}",
                row,
                [_kummer_exact(p, b, v) for v in t_values],
            )

    confluent = kummer_terminating(np.arange(11)[:, None], 1, t)
    for n in range(11):
        rec.add("laguerre-kummer", f"n{n}", laguerre(n, t), confluent[n])

    for c in (1.0, 2.5, 6.0):
        for p in range(9):
            for q in range(p + 1, 9):
                rec.add(
                    "gauss2f1-symmetry",
                    f"p{p}-q{q}-c{c:g}",
                    gauss2f1_unit(p, q, c),
                    gauss2f1_unit(q, p, c),
                )

    pts = _sample_points(20, 3.0, seed=20260815)
    # h[m, n] = H_{m,n}(pts) for m, n <= 9
    h = hermite_table(9, range(10), pts)

    # conjugate symmetry
    for m in range(9):
        for n in range(9):
            rec.add("hermite-conjugate", f"m{m}-n{n}", h[m, n], np.conjugate(h[n, m]))

    # raising identity H_{m+1,n} = z H_{m,n} - n H_{m,n-1}
    for m in range(9):
        for n in range(9):
            up = h[m + 1, n]
            mid = pts * h[m, n]
            low = 0.0 if n == 0 else n * h[m, n - 1]
            rec.add("hermite-index-shift", f"m{m}-n{n}", up, mid - low, terms=(up, mid, low))

    # polyanalytic of order n+1: d/dzbar applied n+1 times to the exact
    # integer coefficients of H_{m,n} leaves nothing
    table = _hermite_integer_coefficients(8)
    for m in range(9):
        for n in range(9):
            poly = table[m, n]
            for _ in range(n + 1):
                poly = {(a, b - 1): b * c for (a, b), c in poly.items() if b}
            rec.add(
                "polyanalytic-order",
                f"m{m}-n{n}",
                float(max((abs(c) for c in poly.values()), default=0)),
                0.0,
            )

    # Landau eigen-identity m*n*H_{m-1,n-1} - n*conj(z)*H_{m,n-1} = -n*H_{m,n}
    zero = np.zeros_like(pts)
    for m in range(9):
        for n in range(9):
            first = m * n * h[m - 1, n - 1] if m >= 1 and n >= 1 else zero
            second = n * np.conjugate(pts) * h[m, n - 1] if n >= 1 else zero
            target = -n * h[m, n]
            rec.add(
                "landau-eigenvalue",
                f"m{m}-n{n}",
                first - second,
                target,
                terms=(first, second, target),
            )

    # extended function matches the transform of the antiholomorphic basis:
    # one singular grid per radius and one stacked quadrature of H_{0,0..4}
    # on it.  Table entries equal hermite_eval, and stacked entries the
    # one-integrand calls, bit for bit.
    centres = {r: r * complex(math.cos(0.7), math.sin(0.7)) for r in (0.5, 1.0, 2.0)}
    numerics = {
        r: cauchy_singular_quadrature(
            lambda pts: hermite_table(0, range(5), pts)[0], z, cfg.singular_grid(z)
        )
        for r, z in centres.items()
    }
    for n in range(5):
        for r, z in centres.items():
            closed = -math.exp(-abs(z) ** 2) * hermite_eval_extended(n, z)
            rec.add("extension-transform", f"n{n}-r{r:g}", numerics[r][n], closed)

    return rec.records


# ------------------------------------------------------------------ cauchy


_CAUCHY_POINTS = (0.5 + 0j, 1 + 1j, -2 + 0j, 0.3 - 1.7j, 3j)
_LINEARITY_WEIGHTS = (0.8 - 0.3j, -1.1 + 0.7j)


def _linearity_sources(h):
    """f and g of the linearity records from a table h[m, n] = H_{m,n}.

    f = H_{2,1} + 0.5i H_{0,3} and g = H_{1,1} - 1.25 H_{3,0}; table
    entries equal ``hermite_eval`` bit for bit.
    """
    return h[2, 1] + 0.5j * h[0, 3], h[1, 1] - 1.25 * h[3, 0]


def _linearity_integrand(fv, gv):
    """a f + b g with the array as the left operand of each product.

    numpy's complex multiply can round ``scalar * array`` and
    ``array * scalar`` differently, so the operand order is fixed here
    to keep the report bytes independent of how the terms are named.
    """
    a, b = _LINEARITY_WEIGHTS
    return np.multiply(fv, a) + np.multiply(gv, b)


def _suite_cauchy(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    grids = {z: cfg.singular_grid(z) for z in _CAUCHY_POINTS}

    # one H_{m,n} table (m, n <= 5) per centre, one stacked quadrature
    # of H_{0..5,n} per level: a 36-deep stack measured slower.  The
    # linearity sources below are read from the same table.
    numerics = {}
    linearity = {}
    for z in _CAUCHY_POINTS:
        table = hermite_table(5, range(6), grids[z].points)
        for n in range(6):
            numerics[z, n] = cauchy_singular_quadrature(
                lambda pts, h=table[:, n]: h, complex(z), grids[z]
            )
        linearity[z] = _linearity_sources(table)
    # each closed image is evaluated once on the array of the centres; a
    # scalar image equals its array entry bit for bit
    centres = np.array(_CAUCHY_POINTS)
    for m in range(6):
        for n in range(6):
            closed = cauchy_hermite_closed(HermiteIndex(m, n), centres)
            for z, image in zip(_CAUCHY_POINTS, closed.tolist()):
                rec.add(
                    "cauchy-closed-vs-numeric",
                    f"m{m}-n{n}-z{z}",
                    numerics[z, n][m],
                    image,
                )

    # linearity of the numeric transform, f and g evaluated once per centre
    a, b = _LINEARITY_WEIGHTS
    for z in _CAUCHY_POINTS:
        grid = grids[z]
        fv, gv = linearity[z]
        combined = cauchy_singular_quadrature(
            lambda pts: _linearity_integrand(fv, gv), complex(z), grid
        )
        split = a * cauchy_singular_quadrature(lambda pts: fv, complex(z), grid) + b * (
            cauchy_singular_quadrature(lambda pts: gv, complex(z), grid)
        )
        rec.add("cauchy-linearity", f"z{z}", combined, split)

    # transform images stay square-integrable: diagonal radial route.
    # The m >= 1 diagonal is the closed form entry by entry, whatever the
    # block.  The m = 0 diagonal is a BLAS sum over its frequency class,
    # so its last bits follow the block: (0,0) reads 0.9037798853840014
    # here and ...18 as a one-index Gram, far inside the 1e-8 relative
    # tolerance of the refined-grid record.
    base = cfg.polar_grid()
    block = [HermiteIndex(m, n) for m in range(5) for n in range(5)]
    diagonal = np.diagonal(psi_gram(block, grid=base).values)
    radial = _psi_diagonal_radial([idx for idx in block if idx.m >= 1], base)
    fine = build_polar_grid(min(2 * base.n_radial, 160), 2 * base.n_theta)
    # block[:5] holds the m = 0 indices
    refined_diagonal = np.diagonal(psi_gram(block[:5], grid=fine).values)
    for i, idx in enumerate(block):
        suffix = f"m{idx.m}-n{idx.n}"
        if idx.m >= 1:
            rec.add("membership-radial", suffix, diagonal[i], radial[idx])
        else:
            rec.add("membership-refined", suffix, diagonal[i], refined_diagonal[i])

    return rec.records


# -------------------------------------------------------------- projection


def _suite_projection(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    grid = cfg.polar_grid()
    # h[m, k] = H_{m,k} on the grid points for m, k <= 5, and
    # onto[m, k, n, j] its coefficient j <= 7 on level n <= 5: one
    # angular FFT per source.  Coefficient j does not depend on J, so
    # each record slices the J = m + 2 it checks.
    h = hermite_table(5, range(6), grid.points)
    onto = project_levels(h, range(6), 7, grid)

    # reproducing property on the basis of each level
    for m in range(6):
        for n in range(6):
            expected = np.zeros(m + 3, dtype=complex)
            expected[m] = 1.0
            rec.add("projection-reproducing", f"m{m}-n{n}", onto[m, n, n, : m + 3], expected)

    # cross-level projections vanish
    for m in range(6):
        for n in range(5):
            for k in range(5):
                if k == n:
                    continue
                rec.add(
                    "projection-level-orthogonal", f"m{m}-n{n}-k{k}", onto[m, k, n, : m + 3], 0.0
                )

    # kernel series versus closed evaluation, and kernel hermiticity;
    # closed[n][i, j] = K_n(z_i, z_j), so K_n(z_j, z_i) is its transpose
    kernel_pts = (0j, 0.7 + 0j, -1.2 + 0.5j, 1.9j, -0.3 - 1.1j)
    closed = [
        np.array([[kernel_closed(n, z, w) for w in kernel_pts] for z in kernel_pts])
        for n in range(5)
    ]
    for n in range(5):
        spec = KernelSpec(n=n, truncation=cfg.kernel_truncation)
        series = kernel_series(spec, kernel_pts, kernel_pts)
        rec.add("kernel-series-vs-closed", f"n{n}", series.ravel(), closed[n].ravel())
    for n in range(5):
        flipped = closed[n].T.conjugate()
        rec.add("kernel-hermitian", f"n{n}", closed[n].ravel(), flipped.ravel())

    # closed projection coefficient against quadrature extraction; a
    # vanishing projection is judged by its largest coefficient.  The 25
    # psi_{j,k} images are projected onto every level in one call, at
    # the largest J a record reads (target m = 7, at level 4).
    psi = np.stack(
        [cauchy_hermite_closed(HermiteIndex(j, k), grid.points) for j in range(5) for k in range(5)]
    ).reshape(5, 5, *grid.points.shape)
    onto = project_levels(psi, range(5), 8, grid)
    for n in range(5):
        for j in range(5):
            for k in range(5):
                coefficient, target = projection_coefficient_closed(n, j, k)
                upto = 1 if target is None else max(1, target.m + 1)
                coeffs = onto[j, k, n, : upto + 1]
                oracle = coeffs if target is None else coeffs[target.m]
                if (n, j, k) == (0, 1, 0):
                    rec.add("prop-sign", "n0j1k0", oracle, coefficient)
                else:
                    rec.add("prop-coefficient", f"n{n}-j{j}-k{k}", oracle, coefficient)

    # the flipped-sign variant must disagree with the prop-sign oracle,
    # coefficient 0 of psi_{1,0} on level 0
    coefficient, _ = projection_coefficient_closed(0, 1, 0)
    display = -coefficient
    rec.add("prop-sign-display-typo", "n0j1k0", abs(display - complex(onto[1, 0, 0, 0])), 1.0)

    return rec.records


# -------------------------------------------------------------------- gram


def _suite_gram(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    base = cfg.polar_grid()

    # radial moment exactness at two weights
    for n_radial, beta in ((base.n_radial, 1.0), (24, 3.0)):
        for k in range(2 * n_radial):
            rec.add(
                "radial-moment",
                f"beta{beta:g}-k{k}",
                integrate_radial_weighted(lambda t, kk=k: t**kk, beta, n_radial),
                factorial(k) / beta ** (k + 1),
            )

    # angular exactness of monomial inner products; each power is the same
    # numpy call as pts**e inside the integrand, raised once for every pair
    powers = [base.points**e for e in range(11)]
    for a in range(11):
        for b in range(a + 1, 11):
            value = inner_product_gaussian(
                lambda pts, v=powers[a]: v, lambda pts, v=powers[b]: v, base
            )
            normalized = value / (
                math.pi * math.sqrt(factorial(a) * factorial(b))
            )
            rec.add("angular-orthogonal", f"a{a}-b{b}", normalized, 0.0)

    # refinement stability of the singular rule
    refinement_cases = (
        (HermiteIndex(1, 0), 0j),
        (None, 1 + 0j),
        (HermiteIndex(1, 1), 1 + 0j),
    )
    for idx, z in refinement_cases:
        f = (lambda pts: np.ones_like(pts)) if idx is None else (
            lambda pts, i=idx: hermite_eval(i, pts)
        )
        coarse = cauchy_singular_quadrature(f, z, cfg.singular_grid(z))
        fine = cauchy_singular_quadrature(f, z, cfg.singular_grid(z, refine=2))
        name = "const" if idx is None else f"m{idx.m}-n{idx.n}"
        rec.add("singular-refinement", f"{name}-z{z}", coarse, fine)

    # selection rule over the full index block
    indices = [HermiteIndex(m, n) for m in range(6) for n in range(6)]
    report = psi_gram(indices, grid=base)
    rec.add("gram-selection-rule-max", "", report.max_violation, 0.0)
    rec.add("gram-radial-crosscheck-max", "", report.radial_check_max_rel, 0.0)

    diag = dict(zip(indices, np.diagonal(report.values)))
    radial = _psi_diagonal_radial([i for i in indices if i.m >= 1], base)
    for m in range(1, 6):
        for n in range(6):
            idx = HermiteIndex(m, n)
            rec.add("gram-diagonal", f"m{m}-n{n}", diag[idx], radial[idx])

    for idx, constant, label in (
        (HermiteIndex(1, 0), math.pi / 3.0, "third"),
        (HermiteIndex(2, 0), math.pi / 9.0, "ninth"),
    ):
        rec.add("gram-diagonal-pi", f"{label}-m{idx.m}-n{idx.n}", diag[idx], constant)
    rec.add(
        "gram-diagonal",
        "log-m0-n0",
        diag[HermiteIndex(0, 0)],
        math.pi * math.log(4.0 / 3.0),
    )

    # diagonal-offset families are mutually orthogonal.  Their indices lie
    # in the block above.  A masked entry is the closed form's exact zero
    # (m, j >= 1) or, on a grid that does not alias its frequencies, the
    # rule's exact zero (an m = 0 member), in any block, so the masked
    # entries of each union's Gram are read from that report in the
    # union's order: the maximum equals psi_gram(union).max_violation.
    offsets = (-2, -1, 0, 1, 2)
    position = {idx: i for i, idx in enumerate(indices)}
    for i, ell in enumerate(offsets):
        for ell2 in offsets[i + 1 :]:
            union = e_ell_indices(ell, 4) + e_ell_indices(ell2, 4)
            pick = np.ix_(*[[position[idx] for idx in union]] * 2)
            cross = report.values[pick][report.expected_zero_mask[pick]]
            violation = float(np.max(np.abs(cross)))
            rec.add("offset-block-orthogonal", f"l{ell}-l{ell2}", violation, 0.0)

    return rec.records


# ------------------------------------------------------------------ ranges


def _suite_ranges(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)

    # closure dimensions of the conjugate-side spans: the exact rank of
    # the integer coefficient vectors of each listed basis
    table = _hermite_integer_coefficients(10)
    for n in range(11):
        for ell in range(11):
            if not 0 < n + ell <= 10:
                continue
            rec.add(
                "rtilde-dimension",
                f"n{n}-l{ell}",
                _span_rank(RangeBasisSpec(VARIANT_R_TILDE, ell, n), table),
                n + ell,
            )
    empty = RangeBasisSpec(VARIANT_R_TILDE, 0, 0)
    rec.add("rtilde-dimension", "n0-l0", _span_rank(empty, table), 0)

    # projected-transform support stays inside the range index set
    rng = np.random.default_rng(20260816)
    for case in range(50):
        ell = int(rng.integers(0, 5))
        length = int(rng.integers(1, 6))
        coeffs = tuple(
            complex(a, b)
            for a, b in zip(
                rng.uniform(-1, 1, size=length), rng.uniform(-1, 1, size=length)
            )
        )
        seq = CoefficientSequence(n=ell, coeffs=coeffs)
        violations = 0
        for n in range(5):
            out = pn_cauchy_on_coeffs(seq, n)
            support = {m for m, alpha in enumerate(out.coeffs) if alpha != 0}
            allowed = {
                idx.m
                for idx in range_basis_indices(
                    RangeBasisSpec(VARIANT_R, ell, n), count=n + length + 2
                )
            }
            violations += len(support - allowed)
        rec.add("range-support", f"case{case:02d}", violations, 0)

    # coefficient route equals the quadrature route: the five images
    # are projected onto every level in one call, at the largest J a
    # record reads
    grid = cfg.polar_grid()
    rng = np.random.default_rng(20260817)
    images, closed = [], []
    for ell in range(5):
        coeffs = tuple(
            complex(a, b)
            for a, b in zip(rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=4))
        )
        seq = CoefficientSequence(n=ell, coeffs=coeffs)
        psis = [cauchy_hermite_closed(HermiteIndex(j, ell), grid.points) for j in range(4)]
        image = coeffs[0] * psis[0]
        for alpha, psi in zip(coeffs[1:], psis[1:]):
            image = image + alpha * psi
        images.append(image)
        closed.append([pn_cauchy_on_coeffs(seq, n).coeffs for n in range(5)])
    J = max(max(1, len(c)) for row in closed for c in row)
    onto = project_levels(np.stack(images), range(5), J, grid)
    for ell in range(5):
        for n in range(5):
            upto = max(1, len(closed[ell][n]))
            closed_arr = np.zeros(upto + 1, dtype=complex)
            closed_arr[: len(closed[ell][n])] = closed[ell][n]
            rec.add("range-route-equality", f"l{ell}-n{n}", onto[ell, n, : upto + 1], closed_arr)

    # truncated-operator spectrum structure
    values = truncated_operator_svd(8)
    finite = sum(0 if math.isfinite(s) else 1 for s in values)
    rec.add("svd-d8-all-finite", "", finite, 0)
    disorder = max(
        (values[i + 1] - values[i] for i in range(len(values) - 1)), default=0.0
    )
    rec.add("svd-d8-sorted-descending", "", max(0.0, disorder), 0.0)
    mid = values[len(values) // 2]
    rec.add("svd-d8-tail-decreases", "", 0.0 if values[-1] < mid else 1.0, 0.0)
    head = truncated_operator_svd(1)
    rec.add("svd-d1-contains-half", "", min(head, key=lambda s: abs(s - 0.5)), 0.5)

    return rec.records


_SUITE_BUILDERS = {
    "hermite": _suite_hermite,
    "cauchy": _suite_cauchy,
    "projection": _suite_projection,
    "gram": _suite_gram,
    "ranges": _suite_ranges,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS)


def run_suite(
    suite: str, config: VerifyConfig | None = None
) -> list[VerificationRecord]:
    """Run one named suite (or ``all``) and return its records in order."""
    if config is None:
        config = VerifyConfig()
    if suite == "all":
        records: list[VerificationRecord] = []
        for build in _SUITE_BUILDERS.values():
            records.extend(build(config))
        return records
    if suite not in _SUITE_BUILDERS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}"
        )
    return _SUITE_BUILDERS[suite](config)


def _json_complex(value: complex) -> float | list[float]:
    """A complex for JSON: a bare real when im is 0, else [re, im]; -0.0 as 0.0."""
    value = complex(value) + 0j
    return value.real if value.imag == 0.0 else [value.real, value.imag]


def record_to_row(record: VerificationRecord) -> dict:
    """JSON-ready mapping with a stable key order."""
    return {
        "test_id": record.test_id,
        "lhs": _json_complex(record.lhs),
        "rhs": _json_complex(record.rhs),
        "abs_err": record.abs_err,
        "tolerance": record.tolerance,
        "pass": record.passed,
        "provenance": record.provenance,
    }


def _float_json(value: float) -> str:
    """A float as json.dumps prints it: repr, or NaN / Infinity / -Infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


def _complex_json(value: complex) -> str:
    """json.dumps of :func:`_json_complex` of ``value``."""
    value = complex(value) + 0j
    if value.imag == 0.0:
        return _float_json(value.real)
    return f"[{_float_json(value.real)}, {_float_json(value.imag)}]"


def _number_texts(value) -> tuple[str, str]:
    """abs_err or tolerance as json.dumps and as repr print it."""
    if type(value) is float:
        return _float_json(value), float.__repr__(value)
    return json.dumps(value), repr(value)


def write_report(records: list[VerificationRecord], path: str) -> str:
    """Write records as JSON lines plus a CSV summary next to them.

    Returns the CSV path: ``path`` with its extension replaced by
    ``.csv``.  Output bytes depend only on the records.  Each record's
    texts are formed once and shared by both files: a JSON line is
    ``json.dumps(record_to_row(record))``, and a CSV row holds the same
    lhs and rhs JSON and the ``repr`` of abs_err and tolerance.
    """
    csv_path = path.rsplit(".", 1)[0] + ".csv" if "." in path.rsplit("/", 1)[-1] else path + ".csv"
    if csv_path == path:
        raise ValueError(
            f"report path {path} is where its CSV summary goes; use another extension"
        )
    lines = []
    rows = [["test_id", "lhs", "rhs", "abs_err", "tolerance", "pass", "provenance"]]
    for record in records:
        lhs, rhs = _complex_json(record.lhs), _complex_json(record.rhs)
        err_json, err_repr = _number_texts(record.abs_err)
        tol_json, tol_repr = _number_texts(record.tolerance)
        verdict = "true" if record.passed else "false"
        lines.append(
            f'{{"test_id": {encode_basestring_ascii(record.test_id)}, "lhs": {lhs}, '
            f'"rhs": {rhs}, "abs_err": {err_json}, "tolerance": {tol_json}, '
            f'"pass": {verdict}, '
            f'"provenance": {encode_basestring_ascii(record.provenance)}}}\n'
        )
        rows.append(
            [record.test_id, lhs, rhs, err_repr, tol_repr, verdict, record.provenance]
        )
    summary = io.StringIO()
    csv.writer(summary, lineterminator="\n").writerows(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary.getvalue())
    return csv_path
