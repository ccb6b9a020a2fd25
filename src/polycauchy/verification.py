"""Machine-readable verification suites over the package invariants.

Each suite re-derives a family of identities through an independent
route (rational arithmetic, closed forms, or quadrature) and emits one
:class:`VerificationRecord` per check.  Suites are deterministic: all
pseudo-random draws use fixed seeds and every record carries the value
pair it compared, so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cauchy_transform import (
    CauchyGridOptions,
    PsiFunction,
    cauchy_hermite_closed,
    cauchy_singular_quadrature,
)
from .gaussian_quadrature import (
    DEFAULT_ANGULAR_NODES,
    DEFAULT_RADIAL_NODES,
    DEFAULT_RADIUS_PAD,
    DEFAULT_SINGULAR_ANGULAR,
    DEFAULT_SINGULAR_RADIAL,
    PolarGrid,
    build_polar_grid,
    build_singular_grid,
    inner_product_gaussian,
    integrate_radial_weighted,
)
from .ito_hermite import (
    HermiteIndex,
    hermite_eval,
    hermite_eval_extended,
    hermite_row,
)
from .poly_bergman import (
    KernelSpec,
    CoefficientSequence,
    kernel_closed,
    kernel_series,
    project_numeric,
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

SUITE_NAMES = ("hermite", "cauchy", "projection", "gram", "ranges")

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
    singular-integral grid keeps its own (larger) defaults otherwise.
    tolerance, when set, overrides the tolerance of every record.
    """

    nr: int | None = None
    ntheta: int | None = None
    radius_pad: float = DEFAULT_RADIUS_PAD
    kernel_truncation: int = 60
    tolerance: float | None = None

    def __post_init__(self) -> None:
        for name in ("nr", "ntheta"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"VerifyConfig requires {name} >= 1 when set, got {value}")

    def polar_grid(self, beta: float = 1.0) -> PolarGrid:
        return build_polar_grid(
            DEFAULT_RADIAL_NODES if self.nr is None else self.nr,
            DEFAULT_ANGULAR_NODES if self.ntheta is None else self.ntheta,
            beta,
        )

    def cauchy_opts(self) -> CauchyGridOptions:
        return CauchyGridOptions(
            n_radial=DEFAULT_SINGULAR_RADIAL if self.nr is None else self.nr,
            n_theta=DEFAULT_SINGULAR_ANGULAR if self.ntheta is None else self.ntheta,
            radius_pad=self.radius_pad,
        )


class _Recorder:
    """Accumulates records, applying any global tolerance override."""

    def __init__(self, cfg: VerifyConfig):
        self.cfg = cfg
        self.records: list[VerificationRecord] = []

    def add(
        self,
        test_id: str,
        lhs: complex,
        rhs: complex,
        tolerance: float,
        provenance: str,
        abs_err: float | None = None,
    ) -> None:
        if abs_err is None:
            abs_err = abs(complex(lhs) - complex(rhs))
        if self.cfg.tolerance is not None:
            tolerance = self.cfg.tolerance
        self.records.append(
            VerificationRecord(
                test_id=test_id,
                lhs=complex(lhs),
                rhs=complex(rhs),
                abs_err=float(abs_err),
                tolerance=float(tolerance),
                passed=bool(abs_err <= tolerance),
                provenance=provenance,
            )
        )


def _sample_points(count: int, radius: float, seed: int) -> np.ndarray:
    """Fixed pseudo-random complex points with |z| <= radius, 0 excluded."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.05, 1.0, size=count))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return r * np.exp(1j * theta)


def _worst_pair(lhs: np.ndarray, rhs: np.ndarray) -> tuple[complex, complex, float]:
    """Worst scaled gap across paired arrays, with the values at it."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=complex))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=complex))
    err = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    i = int(np.argmax(err))
    return complex(lhs[i]), complex(rhs[i]), float(err[i])


def _worst_gap(triples: list[tuple]) -> tuple:
    """The (lhs, rhs, gap) triple with the largest gap, the last of equals.

    A NaN gap wins outright, so its record fails instead of being skipped.
    """
    nan = [triple for triple in triples if math.isnan(triple[2])]
    return nan[0] if nan else max(reversed(triples), key=lambda triple: triple[2])


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
    """Rank over the rationals of polynomials given as {(a, b): c} maps."""
    rows = [{key: Fraction(c) for key, c in poly.items() if c} for poly in polys]
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        key, lead = next(iter(pivot.items()))
        for row in rows:
            factor = row.get(key, 0) / lead
            if factor:
                for k, c in pivot.items():
                    row[k] = row.get(k, 0) - factor * c
                    if not row[k]:
                        del row[k]
    return rank


def _span_rank(spec: RangeBasisSpec) -> int:
    """Exact rank of the integer coefficient vectors of the spec's basis."""
    table = _hermite_integer_coefficients(max(spec.n + spec.ell - 1, spec.n))
    return _exact_rank([table[i.m, i.n] for i in range_basis_indices(spec)])


def _kummer_fraction_oracle(p: int, b: int, t: Fraction) -> Fraction:
    total = Fraction(0)
    term = Fraction(1)
    for k in range(p + 1):
        total += term
        term *= Fraction(-(p - k), 1) * t / ((b + k) * (k + 1))
    return total


# ----------------------------------------------------------------- hermite


def _suite_hermite(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    t_values = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(9))

    # confluent factor against exact rational sums
    for p in range(13):
        for b in range(1, 13):
            triples = []
            for t in t_values:
                oracle = float(_kummer_fraction_oracle(p, b, t))
                got = kummer_terminating(p, b, float(t))
                triples.append((got, oracle, abs(got - oracle) / (1.0 + abs(oracle))))
            worst = _worst_gap(triples)
            rec.add(
                f"kummer-rational-p{p}-b{b}",
                worst[0],
                worst[1],
                1e-12,
                PROVENANCE_CLOSED,
                abs_err=worst[2],
            )

    for n in range(11):
        triples = []
        for t in t_values:
            a = laguerre(n, float(t))
            b = kummer_terminating(n, 1, float(t))
            triples.append((a, b, abs(a - b) / (1.0 + abs(b))))
        worst = _worst_gap(triples)
        rec.add(
            f"laguerre-kummer-n{n}",
            worst[0],
            worst[1],
            1e-12,
            PROVENANCE_CLOSED,
            abs_err=worst[2],
        )

    for c in (1.0, 2.5, 6.0):
        for p in range(9):
            for q in range(p + 1, 9):
                a = gauss2f1_unit(p, q, c)
                b = gauss2f1_unit(q, p, c)
                gap = abs(a - b) / (1.0 + abs(b))
                rec.add(
                    f"gauss2f1-symmetry-p{p}-q{q}-c{c:g}",
                    a,
                    b,
                    1e-13,
                    PROVENANCE_CLOSED,
                    abs_err=gap,
                )

    pts = _sample_points(20, 3.0, seed=20260815)
    # h[m, n] = H_{m,n}(pts) for m, n <= 9
    h = np.stack([hermite_row(9, n, pts) for n in range(10)], axis=1)

    # conjugate symmetry
    for m in range(9):
        for n in range(9):
            a = h[m, n]
            b = np.conjugate(h[n, m])
            lhs, rhs, err = _worst_pair(a, b)
            rec.add(
                f"hermite-conjugate-m{m}-n{n}", lhs, rhs, 1e-11,
                PROVENANCE_CLOSED, abs_err=err,
            )

    # raising identity residual
    for m in range(9):
        for n in range(9):
            up = h[m + 1, n]
            mid = pts * h[m, n]
            low = 0.0 if n == 0 else n * h[m, n - 1]
            scale = 1.0 + np.abs(up) + np.abs(mid) + np.abs(low)
            err = np.abs(up - mid + low) / scale
            i = int(np.argmax(err))
            rec.add(
                f"hermite-index-shift-m{m}-n{n}",
                complex(up[i]),
                complex((mid - low)[i]),
                1e-11,
                PROVENANCE_CLOSED,
                abs_err=float(err[i]),
            )

    # polyanalytic of order n+1: d/dzbar applied n+1 times to the exact
    # integer coefficients of H_{m,n} leaves nothing
    table = _hermite_integer_coefficients(8)
    for m in range(9):
        for n in range(9):
            poly = table[m, n]
            for _ in range(n + 1):
                poly = {(a, b - 1): b * c for (a, b), c in poly.items() if b}
            rec.add(
                f"polyanalytic-order-m{m}-n{n}",
                float(max((abs(c) for c in poly.values()), default=0)),
                0.0,
                0.0,
                PROVENANCE_CLOSED,
            )

    # Landau eigen-identity m*n*H_{m-1,n-1} - n*conj(z)*H_{m,n-1} = -n*H_{m,n}
    for m in range(9):
        for n in range(9):
            if m >= 1 and n >= 1:
                first = m * n * h[m - 1, n - 1]
            else:
                first = np.zeros_like(pts)
            if n >= 1:
                second = n * np.conjugate(pts) * h[m, n - 1]
            else:
                second = np.zeros_like(pts)
            target = -n * h[m, n]
            scale = 1.0 + np.abs(first) + np.abs(second) + np.abs(target)
            err = np.abs(first - second - target) / scale
            i = int(np.argmax(err))
            rec.add(
                f"landau-eigenvalue-m{m}-n{n}",
                complex((first - second)[i]),
                complex(target[i]),
                1e-11,
                PROVENANCE_CLOSED,
                abs_err=float(err[i]),
            )

    # extended function matches the transform of the antiholomorphic basis
    opts = cfg.cauchy_opts()
    for n in range(5):
        for r in (0.5, 1.0, 2.0):
            z = r * complex(math.cos(0.7), math.sin(0.7))
            closed = -math.exp(-abs(z) ** 2) * hermite_eval_extended(n, z)
            grid = build_singular_grid(z, opts.n_radial, opts.n_theta, opts.radius_pad)
            numeric = cauchy_singular_quadrature(
                lambda pts, nn=n: hermite_eval(HermiteIndex(0, nn), pts), z, grid
            )
            rec.add(
                f"extension-transform-n{n}-r{r:g}",
                numeric,
                closed,
                1e-6 * (1.0 + abs(closed)),
                PROVENANCE_QUADRATURE,
            )

    return rec.records


# ------------------------------------------------------------------ cauchy


_CAUCHY_POINTS = (0.5 + 0j, 1 + 1j, -2 + 0j, 0.3 - 1.7j, 3j)


def _suite_cauchy(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    opts = cfg.cauchy_opts()
    grids = {
        z: build_singular_grid(complex(z), opts.n_radial, opts.n_theta, opts.radius_pad)
        for z in _CAUCHY_POINTS
    }

    # one stacked quadrature of H_{0..5,n} per centre and level
    numerics = {
        (z, n): cauchy_singular_quadrature(
            lambda pts, nn=n: hermite_row(5, nn, pts), complex(z), grids[z]
        )
        for z in _CAUCHY_POINTS
        for n in range(6)
    }
    for m in range(6):
        for n in range(6):
            idx = HermiteIndex(m, n)
            for z in _CAUCHY_POINTS:
                closed = cauchy_hermite_closed(idx, z)
                numeric = complex(numerics[z, n][m])
                rec.add(
                    f"cauchy-closed-vs-numeric-m{m}-n{n}-z{z}",
                    numeric,
                    closed,
                    1e-6 * (1.0 + abs(closed)),
                    PROVENANCE_QUADRATURE,
                )

    # linearity of the numeric transform
    a, b = 0.8 - 0.3j, -1.1 + 0.7j

    def f(pts):
        return hermite_eval(HermiteIndex(2, 1), pts) + 0.5j * hermite_eval(
            HermiteIndex(0, 3), pts
        )

    def g(pts):
        return hermite_eval(HermiteIndex(1, 1), pts) - 1.25 * hermite_eval(
            HermiteIndex(3, 0), pts
        )

    for z in _CAUCHY_POINTS:
        grid = grids[z]
        combined = cauchy_singular_quadrature(
            lambda pts: a * f(pts) + b * g(pts), complex(z), grid
        )
        split = a * cauchy_singular_quadrature(f, complex(z), grid) + b * (
            cauchy_singular_quadrature(g, complex(z), grid)
        )
        rec.add(
            f"cauchy-linearity-z{z}",
            combined,
            split,
            1e-10 * (1.0 + abs(split)),
            PROVENANCE_QUADRATURE,
        )

    # transform images stay square-integrable: diagonal radial route.
    # Gram entries are computed pair by pair, so the diagonal of one
    # block Gram equals each single-index Gram bit for bit.
    base = cfg.polar_grid(1.0)
    block = [HermiteIndex(m, n) for m in range(5) for n in range(5)]
    diagonal = np.diagonal(psi_gram(block, grid=base).values).real
    radial = _psi_diagonal_radial([idx for idx in block if idx.m >= 1], base)
    fine = build_polar_grid(min(2 * base.n_radial, 160), 2 * base.n_theta, 1.0)
    # block[:5] holds the m = 0 indices
    refined_diagonal = np.diagonal(psi_gram(block[:5], grid=fine).values).real
    for i, idx in enumerate(block):
        m, n = idx.m, idx.n
        value = diagonal[i]
        if m >= 1:
            expected = radial[idx]
            rec.add(
                f"membership-radial-m{m}-n{n}",
                value,
                expected,
                1e-8 * (1.0 + abs(expected)),
                PROVENANCE_CLOSED,
            )
        else:
            refined = refined_diagonal[i]
            rec.add(
                f"membership-refined-m{m}-n{n}",
                value,
                refined,
                1e-8 * (1.0 + abs(refined)),
                PROVENANCE_QUADRATURE,
            )

    return rec.records


# -------------------------------------------------------------- projection


def _suite_projection(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    grid = cfg.polar_grid(1.0)

    # reproducing property on the basis of each level
    for m in range(6):
        for n in range(6):
            idx = HermiteIndex(m, n)
            seq = project_numeric(
                lambda pts, i=idx: hermite_eval(i, pts), n, J=m + 2, grid=grid
            )
            coeffs = np.asarray(seq.coeffs)
            expected = np.zeros(m + 3, dtype=complex)
            expected[m] = 1.0
            err = float(np.max(np.abs(coeffs - expected)))
            rec.add(
                f"projection-reproducing-m{m}-n{n}",
                complex(coeffs[m]),
                1.0,
                1e-9,
                PROVENANCE_QUADRATURE,
                abs_err=err,
            )

    # cross-level projections vanish
    for m in range(6):
        for n in range(5):
            for k in range(5):
                if k == n:
                    continue
                seq = project_numeric(
                    lambda pts, i=HermiteIndex(m, k): hermite_eval(i, pts),
                    n,
                    J=m + 2,
                    grid=grid,
                )
                coeffs = np.asarray(seq.coeffs)
                i = int(np.argmax(np.abs(coeffs)))
                rec.add(
                    f"projection-level-orthogonal-m{m}-n{n}-k{k}",
                    complex(coeffs[i]),
                    0.0,
                    1e-9,
                    PROVENANCE_QUADRATURE,
                )

    # kernel series versus closed evaluation
    kernel_pts = (0j, 0.7 + 0j, -1.2 + 0.5j, 1.9j, -0.3 - 1.1j)
    for n in range(5):
        spec = KernelSpec(n=n, truncation=cfg.kernel_truncation)
        triples = []
        for z in kernel_pts:
            for w in kernel_pts:
                series = kernel_series(spec, z, w)
                closed = kernel_closed(n, z, w)
                triples.append((series, closed, abs(series - closed)))
        worst = _worst_gap(triples)
        rec.add(
            f"kernel-series-vs-closed-n{n}",
            worst[0],
            worst[1],
            1e-8,
            PROVENANCE_CLOSED,
            abs_err=worst[2],
        )

    # kernel hermiticity
    for n in range(5):
        triples = []
        for z in kernel_pts:
            for w in kernel_pts:
                a = kernel_closed(n, z, w)
                b = kernel_closed(n, w, z).conjugate()
                triples.append((a, b, abs(a - b)))
        worst = _worst_gap(triples)
        rec.add(
            f"kernel-hermitian-n{n}",
            worst[0],
            worst[1],
            1e-13,
            PROVENANCE_CLOSED,
            abs_err=worst[2],
        )

    # closed projection coefficient against quadrature extraction
    for n in range(5):
        for j in range(5):
            for k in range(5):
                coefficient, target = projection_coefficient_closed(n, j, k)
                psi = PsiFunction(HermiteIndex(j, k))
                upto = 1 if target is None else max(1, target.m + 1)
                seq = project_numeric(psi, n, J=upto, grid=grid)
                coeffs = np.asarray(seq.coeffs)
                if target is None:
                    i = int(np.argmax(np.abs(coeffs)))
                    oracle = complex(coeffs[i])
                else:
                    oracle = complex(coeffs[target.m])
                test_id = f"prop-coefficient-n{n}-j{j}-k{k}"
                if (n, j, k) == (0, 1, 0):
                    test_id = "prop-sign-n0j1k0"
                rec.add(test_id, oracle, coefficient, 1e-8, PROVENANCE_QUADRATURE)

    # the flipped-sign variant must disagree with the oracle at (0, 1, 0)
    coefficient, _ = projection_coefficient_closed(0, 1, 0)
    display = -coefficient
    psi = PsiFunction(HermiteIndex(1, 0))
    oracle = complex(project_numeric(psi, 0, J=1, grid=grid).coeffs[0])
    rec.add(
        "prop-sign-display-typo-n0j1k0",
        abs(display - oracle),
        1.0,
        1e-6,
        PROVENANCE_QUADRATURE,
    )

    return rec.records


# -------------------------------------------------------------------- gram


def _suite_gram(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)
    base = cfg.polar_grid(1.0)

    # radial moment exactness at two weights
    for n_radial, beta in ((base.n_radial, 1.0), (24, 3.0)):
        grid = build_polar_grid(n_radial, 8, beta)
        for k in range(2 * n_radial):
            got = integrate_radial_weighted(lambda t, kk=k: t**kk, beta, grid)
            want = factorial(k) / beta ** (k + 1)
            rec.add(
                f"radial-moment-beta{beta:g}-k{k}",
                got,
                want,
                1e-11 * (1.0 + abs(want)),
                PROVENANCE_CLOSED,
            )

    # angular exactness of monomial inner products
    for a in range(11):
        for b in range(a + 1, 11):
            value = inner_product_gaussian(
                lambda pts, e=a: pts**e, lambda pts, e=b: pts**e, base
            )
            normalized = value / (
                math.pi * math.sqrt(factorial(a) * factorial(b))
            )
            rec.add(
                f"angular-orthogonal-a{a}-b{b}",
                normalized,
                0.0,
                1e-12,
                PROVENANCE_QUADRATURE,
            )

    # refinement stability of the singular rule
    refinement_cases = (
        (HermiteIndex(1, 0), 0j),
        (None, 1 + 0j),
        (HermiteIndex(1, 1), 1 + 0j),
    )
    opts = cfg.cauchy_opts()
    for idx, z in refinement_cases:
        f = (lambda pts: np.ones_like(pts)) if idx is None else (
            lambda pts, i=idx: hermite_eval(i, pts)
        )
        coarse_grid = build_singular_grid(z, opts.n_radial, opts.n_theta, opts.radius_pad)
        fine_grid = build_singular_grid(
            z, 2 * opts.n_radial, 2 * opts.n_theta, opts.radius_pad
        )
        coarse = cauchy_singular_quadrature(f, z, coarse_grid)
        fine = cauchy_singular_quadrature(f, z, fine_grid)
        name = "const" if idx is None else f"m{idx.m}-n{idx.n}"
        rec.add(
            f"singular-refinement-{name}-z{z}",
            coarse,
            fine,
            1e-7 * (1.0 + abs(fine)),
            PROVENANCE_QUADRATURE,
        )

    # selection rule over the full index block
    indices = [HermiteIndex(m, n) for m in range(6) for n in range(6)]
    report = psi_gram(indices, grid=base)
    rec.add(
        "gram-selection-rule-max",
        report.max_violation,
        0.0,
        1e-9,
        PROVENANCE_QUADRATURE,
    )
    rec.add(
        "gram-radial-crosscheck-max",
        report.radial_check_max_rel,
        0.0,
        1e-8,
        PROVENANCE_CLOSED,
    )

    diag = {
        idx: report.values[i, i].real for i, idx in enumerate(indices)
    }
    radial = _psi_diagonal_radial([i for i in indices if i.m >= 1], base)
    for m in range(1, 6):
        for n in range(6):
            idx = HermiteIndex(m, n)
            expected = radial[idx]
            rec.add(
                f"gram-diagonal-m{m}-n{n}",
                diag[idx],
                expected,
                1e-8 * (1.0 + abs(expected)),
                PROVENANCE_CLOSED,
            )

    for idx, constant, label in (
        (HermiteIndex(1, 0), math.pi / 3.0, "third"),
        (HermiteIndex(2, 0), math.pi / 9.0, "ninth"),
    ):
        rec.add(
            f"gram-diagonal-pi-{label}-m{idx.m}-n{idx.n}",
            diag[idx],
            constant,
            1e-8 * (1.0 + constant),
            PROVENANCE_CONSTANT,
        )
    rec.add(
        "gram-diagonal-log-m0-n0",
        diag[HermiteIndex(0, 0)],
        math.pi * math.log(4.0 / 3.0),
        1e-8 * (1.0 + math.pi * math.log(4.0 / 3.0)),
        PROVENANCE_CLOSED,
    )

    # diagonal-offset families are mutually orthogonal
    offsets = (-2, -1, 0, 1, 2)
    for i, ell in enumerate(offsets):
        for ell2 in offsets[i + 1 :]:
            union = e_ell_indices(ell, 4) + e_ell_indices(ell2, 4)
            cross = psi_gram(union, grid=base)
            rec.add(
                f"offset-block-orthogonal-l{ell}-l{ell2}",
                cross.max_violation,
                0.0,
                1e-9,
                PROVENANCE_QUADRATURE,
            )

    return rec.records


# ------------------------------------------------------------------ ranges


def _suite_ranges(cfg: VerifyConfig) -> list[VerificationRecord]:
    rec = _Recorder(cfg)

    # closure dimensions of the conjugate-side spans: the exact rank of
    # the integer coefficient vectors of each listed basis
    for n in range(11):
        for ell in range(11):
            if not 0 < n + ell <= 10:
                continue
            rec.add(
                f"rtilde-dimension-n{n}-l{ell}",
                _span_rank(RangeBasisSpec(VARIANT_R_TILDE, ell, n)),
                n + ell,
                0.0,
                PROVENANCE_CLOSED,
            )
    rec.add(
        "rtilde-dimension-n0-l0",
        _span_rank(RangeBasisSpec(VARIANT_R_TILDE, 0, 0)),
        0,
        0.0,
        PROVENANCE_CLOSED,
    )

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
        rec.add(
            f"range-support-case{case:02d}",
            violations,
            0,
            0.0,
            PROVENANCE_CLOSED,
        )

    # coefficient route equals the quadrature route
    grid = cfg.polar_grid(1.0)
    rng = np.random.default_rng(20260817)
    for ell in range(5):
        coeffs = tuple(
            complex(a, b)
            for a, b in zip(rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=4))
        )
        seq = CoefficientSequence(n=ell, coeffs=coeffs)
        psis = [PsiFunction(HermiteIndex(j, ell)) for j in range(4)]

        def image(pts):
            total = coeffs[0] * psis[0](pts)
            for alpha, psi in zip(coeffs[1:], psis[1:]):
                total = total + alpha * psi(pts)
            return total

        for n in range(5):
            closed = pn_cauchy_on_coeffs(seq, n)
            upto = max(1, len(closed.coeffs))
            numeric = project_numeric(image, n, J=upto, grid=grid)
            closed_arr = np.zeros(upto + 1, dtype=complex)
            closed_arr[: len(closed.coeffs)] = closed.coeffs
            numeric_arr = np.asarray(numeric.coeffs)
            gap = float(np.max(np.abs(closed_arr - numeric_arr)))
            i = int(np.argmax(np.abs(closed_arr - numeric_arr)))
            rec.add(
                f"range-route-equality-l{ell}-n{n}",
                complex(numeric_arr[i]),
                complex(closed_arr[i]),
                1e-8,
                PROVENANCE_QUADRATURE,
                abs_err=gap,
            )

    # truncated-operator spectrum structure
    values = truncated_operator_svd(8)
    finite = sum(0 if math.isfinite(s) else 1 for s in values)
    rec.add("svd-d8-all-finite", finite, 0, 0.0, PROVENANCE_CLOSED)
    disorder = max(
        (values[i + 1] - values[i] for i in range(len(values) - 1)), default=0.0
    )
    rec.add(
        "svd-d8-sorted-descending",
        max(0.0, disorder),
        0.0,
        0.0,
        PROVENANCE_CLOSED,
    )
    mid = values[len(values) // 2]
    rec.add(
        "svd-d8-tail-decreases",
        0.0 if values[-1] < mid else 1.0,
        0.0,
        0.0,
        PROVENANCE_CLOSED,
    )
    head = truncated_operator_svd(1)
    rec.add(
        "svd-d1-contains-half",
        min(head, key=lambda s: abs(s - 0.5)),
        0.5,
        1e-12,
        PROVENANCE_CLOSED,
    )

    return rec.records


_SUITE_BUILDERS = {
    "hermite": _suite_hermite,
    "cauchy": _suite_cauchy,
    "projection": _suite_projection,
    "gram": _suite_gram,
    "ranges": _suite_ranges,
}


def run_suite(
    suite: str, config: VerifyConfig | None = None
) -> list[VerificationRecord]:
    """Run one named suite (or ``all``) and return its records in order."""
    if config is None:
        config = VerifyConfig()
    if suite == "all":
        records: list[VerificationRecord] = []
        for name in SUITE_NAMES:
            records.extend(_SUITE_BUILDERS[name](config))
        return records
    if suite not in _SUITE_BUILDERS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}"
        )
    return _SUITE_BUILDERS[suite](config)


def _complex_json(value: complex) -> float | list[float]:
    if value.imag == 0.0:
        return value.real + 0.0
    return [value.real, value.imag]


def record_to_row(record: VerificationRecord) -> dict:
    """JSON-ready mapping with a stable key order."""
    return {
        "test_id": record.test_id,
        "lhs": _complex_json(record.lhs),
        "rhs": _complex_json(record.rhs),
        "abs_err": record.abs_err,
        "tolerance": record.tolerance,
        "pass": record.passed,
        "provenance": record.provenance,
    }


def write_report(records: list[VerificationRecord], path: str) -> str:
    """Write records as JSON lines plus a CSV summary next to them.

    Returns the CSV path: ``path`` with its extension replaced by
    ``.csv``.  Output bytes depend only on the records.
    """
    csv_path = path.rsplit(".", 1)[0] + ".csv" if "." in path.rsplit("/", 1)[-1] else path + ".csv"
    if csv_path == path:
        raise ValueError(
            f"report path {path} is where its CSV summary goes; use another extension"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_row(record)) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["test_id", "lhs", "rhs", "abs_err", "tolerance", "pass", "provenance"]
        )
        for record in records:
            row = record_to_row(record)
            writer.writerow(
                [
                    row["test_id"],
                    json.dumps(row["lhs"]),
                    json.dumps(row["rhs"]),
                    repr(record.abs_err),
                    repr(record.tolerance),
                    "true" if record.passed else "false",
                    record.provenance,
                ]
            )
    return csv_path
