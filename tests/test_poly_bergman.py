"""Level kernels, projections, and the closed coefficient formula.

Oracles: the exponential closed kernel recomputed with cmath, the
radial-integral route to the projection coefficient, and quadrature
round-trips for coefficient extraction.
"""

import cmath
import math
from collections import OrderedDict

import numpy as np
import pytest

from polycauchy import (
    CoefficientSequence,
    HermiteIndex,
    KernelSpec,
    PolarGrid,
    PsiFunction,
    build_polar_grid,
    factorial,
    hermite_eval,
    inner_product_gaussian,
    kahan_sum,
    kernel_closed,
    kernel_series,
    kernel_series_tail,
    project_numeric,
    projection_coefficient_closed,
    radial_J_closed,
    run_suite,
    synthesize,
)
from polycauchy import poly_bergman

KERNEL_POINTS = (0j, 0.7 + 0j, -1.2 + 0.5j, 1.9j, -0.3 - 1.1j)


def test_coefficient_sequence_norm():
    seq = CoefficientSequence(n=1, coeffs=(1.0, 2.0j))
    assert seq.norm_sq == pytest.approx(5.0 * math.pi, rel=1e-15)
    assert seq.coeffs == (1.0 + 0j, 2.0j)
    assert CoefficientSequence(n=0, coeffs=()).norm_sq == 0.0
    with pytest.raises(ValueError):
        CoefficientSequence(n=-1, coeffs=(1.0,))


def test_kernel_spec_validation():
    assert KernelSpec(n=2).truncation == 60
    KernelSpec(n=0, truncation=0)
    with pytest.raises(ValueError):
        KernelSpec(n=-1)
    with pytest.raises(ValueError):
        KernelSpec(n=0, truncation=-1)


def test_kernel_closed_against_exponential():
    for z in KERNEL_POINTS:
        for w in KERNEL_POINTS:
            base = cmath.exp(z * w.conjugate()) / math.pi
            assert kernel_closed(0, z, w) == pytest.approx(base, rel=1e-14, abs=1e-18)
            want = base * (1.0 - abs(z - w) ** 2)
            assert kernel_closed(1, z, w) == pytest.approx(want, rel=1e-13, abs=1e-18)
    with pytest.raises(ValueError):
        kernel_closed(-1, 0j, 0j)


def test_kernel_series_matches_closed():
    spec60 = {n: KernelSpec(n=n, truncation=60) for n in (0, 1, 3)}
    for n, spec in spec60.items():
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                closed = kernel_closed(n, z, w)
                series = kernel_series(spec, z, w)
                assert abs(series - closed) < 1e-8


def test_kernel_series_on_point_lists_equals_scalar_calls():
    # rows built on these seeded points as one array differ from scalar
    # rows in the last bits, and so would some kernel values
    rng = np.random.default_rng(20261018)
    cloud = 1.5 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    z_list = KERNEL_POINTS + tuple(cloud.tolist())
    w_list = z_list[::-1] + (0.25 - 0.5j,)
    for n in (0, 2, 4):
        spec = KernelSpec(n=n, truncation=30)
        matrix = kernel_series(spec, z_list, w_list)
        assert matrix.shape == (len(z_list), len(w_list))
        # the per-index terms at scalar points, as the two-point call sums
        # them: H_{n,m}(w) is taken as H_{m,n}(conj w)
        at_z = [[hermite_eval(HermiteIndex(m, n), z) for m in range(31)] for z in z_list]
        at_w = [
            [hermite_eval(HermiteIndex(m, n), w.conjugate()) for m in range(31)] for w in w_list
        ]
        scale = [math.pi * factorial(m) * factorial(n) for m in range(31)]
        for i, z in enumerate(z_list):
            for j, w in enumerate(w_list):
                want = complex(
                    kahan_sum(a * b / c for a, b, c in zip(at_z[i], at_w[j], scale))
                )
                assert matrix[i, j] == want == kernel_series(spec, z, w)
        column = kernel_series(spec, 0.7 + 0j, w_list)
        assert column.shape == (len(w_list),)
        assert column.tolist() == matrix[1].tolist()
        assert isinstance(kernel_series(spec, 0.7, -0.2j), complex)


def test_kernel_hermitian():
    for n in (0, 2):
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                a = kernel_closed(n, z, w)
                b = kernel_closed(n, w, z)
                assert abs(a - b.conjugate()) <= 1e-13 * (1.0 + abs(a))


def test_series_tail_bounds_truncation_error():
    for n in (0, 2):
        for z, w in ((0.7 + 0j, -1.2 + 0.5j), (1.9j, -0.3 - 1.1j), (1.5 + 1.0j, 1.5 + 1.0j)):
            spec = KernelSpec(n=n, truncation=10)
            tail = kernel_series_tail(spec, z, w)
            assert tail >= 0.0
            actual = abs(kernel_closed(n, z, w) - kernel_series(spec, z, w))
            assert actual <= tail + 1e-15
            tighter = kernel_series_tail(KernelSpec(n=n, truncation=30), z, w)
            assert tighter <= tail + 1e-15


def test_projection_coefficient_anchor_value():
    coeff, target = projection_coefficient_closed(0, 1, 0)
    assert coeff == pytest.approx(-0.5, rel=1e-15)
    assert target == HermiteIndex(0, 0)


def test_projection_coefficient_vanishing_guard():
    coeff, target = projection_coefficient_closed(0, 0, 5)
    assert coeff == 0.0
    assert target is None
    with pytest.raises(ValueError):
        projection_coefficient_closed(-1, 0, 0)


def test_projection_coefficient_matches_radial_integral():
    cases = ((0, 1, 0), (1, 2, 1), (2, 3, 0), (1, 0, 0), (3, 2, 4), (2, 2, 2))
    for n, j, k in cases:
        m = n + j - k - 1
        coeff, target = projection_coefficient_closed(n, j, k)
        assert target == HermiteIndex(m, n)
        want = radial_J_closed(m, n, j, k)
        assert coeff == pytest.approx(want, rel=1e-12)


def test_radial_integral_validation():
    with pytest.raises(ValueError):
        radial_J_closed(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        radial_J_closed(1, 0, 1, 0)


def test_project_reproduces_basis_coefficients():
    for m in range(4):
        for n in range(4):
            idx = HermiteIndex(m, n)
            seq = project_numeric(lambda pts, i=idx: hermite_eval(i, pts), n, m + 2)
            want = np.zeros(m + 3, dtype=complex)
            want[m] = 1.0
            assert np.max(np.abs(np.array(seq.coeffs) - want)) < 1e-9


def test_project_validation():
    with pytest.raises(ValueError):
        project_numeric(lambda pts: pts, -1, 2)
    with pytest.raises(ValueError):
        project_numeric(lambda pts: pts, 0, 0)


def test_synthesize_matches_manual_sum():
    seq = CoefficientSequence(n=1, coeffs=(0.5, -2.0j, 1.0 + 1.0j))
    for z in (0.3 + 0.4j, -1.1 + 0j):
        manual = sum(
            hermite_eval(HermiteIndex(j, 1), z) * a for j, a in enumerate(seq.coeffs)
        )
        assert synthesize(seq, z) == pytest.approx(manual, rel=1e-15)


def test_project_synthesize_round_trip():
    f = lambda pts: 2.0 * hermite_eval(HermiteIndex(0, 1), pts) - 0.7j * hermite_eval(
        HermiteIndex(2, 1), pts
    )
    seq = project_numeric(f, 1, 3)
    for z in (0.5 + 0.2j, -0.9 + 1.1j):
        assert abs(synthesize(seq, z) - complex(f(np.asarray(z)))) < 1e-9


def _project_oracle(f, n, J, grid):
    """The per-coefficient quadrature loop that project_numeric batches."""
    return tuple(
        inner_product_gaussian(f, lambda pts, b=HermiteIndex(j, n): hermite_eval(b, pts), grid)
        / (math.pi * factorial(j) * factorial(n))
        for j in range(J + 1)
    )


def test_project_numeric_equals_per_coefficient_quadrature():
    sources = (
        lambda pts: hermite_eval(HermiteIndex(3, 1), pts),
        PsiFunction(HermiteIndex(2, 1)),
        PsiFunction(HermiteIndex(0, 2)),
    )
    for grid in (build_polar_grid(), build_polar_grid(16, 12)):
        for f in sources:
            for n in range(4):
                # a growing J rebuilds the cached basis, a shrinking one slices it
                for J in (1, 5, 9, 3):
                    got = project_numeric(f, n, J, grid=grid).coeffs
                    assert got == _project_oracle(f, n, J, grid)


def test_project_basis_cache_is_bounded_and_per_grid():
    grid = build_polar_grid(12, 8)
    # same shape, other nodes: must never see the first grid's basis
    other = PolarGrid(
        beta=1.0,
        radial_t=np.array(grid.radial_t) * 0.75,
        radial_w=np.array(grid.radial_w),
        n_theta=8,
    )
    f = PsiFunction(HermiteIndex(1, 0))
    for g in (grid, other, grid):
        assert project_numeric(f, 0, 3, grid=g).coeffs == _project_oracle(f, 0, 3, g)
    for n in range(3 * poly_bergman._BASIS_CACHE_SIZE):
        project_numeric(f, n, 2, grid=grid)
    assert len(poly_bergman._basis_cache) <= poly_bergman._BASIS_CACHE_SIZE
    for g, stack in poly_bergman._basis_cache.values():
        assert not stack.flags.writeable


def test_verify_builds_each_level_stack_once(monkeypatch):
    # a cold projection + ranges pass builds each of the six levels'
    # grid stack once; no later call grows one
    builds = []
    row = poly_bergman.hermite_row

    def counting(m_max, n, z):
        if np.size(z) > 1:
            builds.append(n)
        return row(m_max, n, z)

    monkeypatch.setattr(poly_bergman, "_basis_cache", OrderedDict())
    monkeypatch.setattr(poly_bergman, "hermite_row", counting)
    run_suite("projection")
    run_suite("ranges")
    assert sorted(builds) == list(range(6))


def test_project_rejects_other_beta():
    with pytest.raises(ValueError, match="beta=1"):
        project_numeric(lambda pts: pts, 0, 2, grid=build_polar_grid(8, 8, 3.0))


def test_overflow_raises_before_allocation():
    calls = []

    def source(pts):
        calls.append(pts.shape)
        return pts

    with pytest.raises(OverflowError, match="factorial"):
        project_numeric(source, 0, 10**8)
    assert calls == []
    spec = KernelSpec(n=0, truncation=10**8)
    with pytest.raises(OverflowError, match="factorial"):
        kernel_series(spec, 0.5j, 0.2)
    with pytest.raises(OverflowError, match="factorial"):
        kernel_series_tail(spec, 0.5j, 0.2)


def test_series_equal_per_index_terms():
    # the per-index sums the row evaluator replaced, term for term
    for n in range(4):
        spec = KernelSpec(n=n, truncation=25)
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                want = complex(
                    kahan_sum(
                        hermite_eval(HermiteIndex(m, n), z)
                        * hermite_eval(HermiteIndex(n, m), w)
                        / (math.pi * factorial(m) * factorial(n))
                        for m in range(26)
                    )
                )
                assert kernel_series(spec, z, w) == want
    seq = CoefficientSequence(n=2, coeffs=(0.5, -2.0j, 1.0 + 1.0j, 0.25))
    for z in KERNEL_POINTS:
        want = complex(
            kahan_sum(
                hermite_eval(HermiteIndex(j, 2), z) * a for j, a in enumerate(seq.coeffs)
            )
        )
        assert synthesize(seq, z) == want
    assert synthesize(CoefficientSequence(n=1, coeffs=()), 0.5) == 0j
