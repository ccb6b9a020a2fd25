"""Level kernels, projections, and the closed coefficient formula.

Oracles: the exponential closed kernel recomputed with cmath, the
radial-integral route to the projection coefficient, and quadrature
round-trips for coefficient extraction.
"""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polycauchy import (
    CoefficientSequence,
    HermiteIndex,
    KernelSpec,
    PolarGrid,
    build_polar_grid,
    cauchy_hermite_closed,
    factorial,
    hermite_eval,
    hermite_table,
    inner_product_gaussian,
    kernel_closed,
    kernel_levels,
    kernel_series,
    project_levels,
    project_numeric,
    projection_coefficient_closed,
    run_suite,
)
from polycauchy import poly_bergman, verification
from polycauchy.ito_hermite import c_mn
from polycauchy.special_fn import gauss2f1_unit

KERNEL_POINTS = (0j, 0.7 + 0j, -1.2 + 0.5j, 1.9j, -0.3 - 1.1j)


def test_coefficient_sequence_norm():
    seq = CoefficientSequence(n=1, coeffs=(1.0, 2.0j))
    assert seq.coeffs == (1.0 + 0j, 2.0j)
    assert CoefficientSequence(n=0, coeffs=()).coeffs == ()
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


def _ascending_plain_sum(at_z, at_w, scale):
    """sum_m at_z[m] at_w[m] / scale[m] in plain Python complex, ascending m."""
    total = 0j
    for a, b, c in zip(at_z, at_w, scale):
        total += a * b / c
    return total


def test_kernel_series_on_point_lists_equals_scalar_calls():
    # every list entry must equal its two-point call, and the per-index
    # terms at scalar points
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
                want = _ascending_plain_sum(at_z[i], at_w[j], scale)
                assert matrix[i, j] == want == kernel_series(spec, z, w)
        column = kernel_series(spec, 0.7 + 0j, w_list)
        assert column.shape == (len(w_list),)
        assert column.tolist() == matrix[1].tolist()
        assert isinstance(kernel_series(spec, 0.7, -0.2j), complex)


@pytest.mark.parametrize("truncation", [0, 60])
def test_kernel_levels_equal_one_level_series(truncation):
    # the stacked levels equal each one-level call bit for bit, on scalar
    # points, unequal point lists and 2-D point arrays
    rng = np.random.default_rng(20261020)
    cloud = 1.5 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
    cases = (
        (0.7 - 0.2j, -1.1 + 0.4j),
        (cloud[:3], cloud[3:]),
        (cloud[:6].reshape(2, 3), cloud[6:].reshape(2, 2)),
        (0.3j, cloud[:4].reshape(2, 2)),
    )
    for z, w in cases:
        stacked = kernel_levels(z, w, range(5), truncation)
        assert stacked.shape == (5,) + np.shape(z) + np.shape(w)
        for n in range(5):
            one = kernel_series(KernelSpec(n=n, truncation=truncation), z, w)
            assert np.shape(one) == stacked.shape[1:]
            assert np.asarray(one).tobytes() == stacked[n].tobytes()
    # a level list in any order, with repeats, reads the same rows
    z, w = cloud[:3], cloud[3:]
    assert kernel_levels(z, w, (4, 0, 4), truncation).tobytes() == (
        kernel_levels(z, w, range(5), truncation)[[4, 0, 4]].tobytes()
    )


def test_kernel_levels_validation():
    with pytest.raises(ValueError):
        kernel_levels(0j, 0j, (0, -1))
    with pytest.raises(ValueError):
        kernel_levels(0j, 0j, (0,), -1)
    with pytest.raises(OverflowError, match="factorial"):
        kernel_levels(0j, 0j, (0,), 10**8)
    assert kernel_levels(0j, 0j, ()).shape == (0,)


def test_kernel_series_builds_one_table_for_both_point_lists(monkeypatch):
    # one table over z and conj w serves the series, whatever the levels
    calls = []
    table = poly_bergman.hermite_table

    def counting(m_max, levels, z):
        calls.append((len(levels), np.shape(z)))
        return table(m_max, levels, z)

    monkeypatch.setattr(poly_bergman, "hermite_table", counting)
    kernel_series(KernelSpec(n=2, truncation=20), KERNEL_POINTS, KERNEL_POINTS[:3])
    assert calls == [(1, (len(KERNEL_POINTS) + 3,))]
    calls.clear()
    kernel_series(KernelSpec(n=2, truncation=20), 0.5j, 0.2)
    assert calls == [(1, (2,))]
    calls.clear()
    kernel_levels(KERNEL_POINTS, KERNEL_POINTS[:3], range(5), 20)
    assert calls == [(5, (len(KERNEL_POINTS) + 3,))]


def test_kernel_hermitian():
    for n in (0, 2):
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                a = kernel_closed(n, z, w)
                b = kernel_closed(n, w, z)
                assert abs(a - b.conjugate()) <= 1e-13 * (1.0 + abs(a))


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


def test_projection_coefficient_is_the_correctly_rounded_rational():
    # (-1)^{n+k+1} Gamma(n+j) / (2^{n+j} n! Gamma(n+j-k)) is rational;
    # every nonzero coefficient for n, j, k <= 12 is its correctly
    # rounded value, which pins the arguments of the integer ratio
    nonzero = 0
    for n in range(13):
        for j in range(13):
            for k in range(13):
                coeff, target = projection_coefficient_closed(n, j, k)
                if n + j - k - 1 < 0:
                    assert (coeff, target) == (0.0, None)
                    continue
                exact = Fraction(
                    (-1) ** (n + k + 1) * math.factorial(n + j - 1),
                    2 ** (n + j) * math.factorial(n) * math.factorial(n + j - k - 1),
                )
                assert coeff == float(exact), (n, j, k)
                nonzero += 1
    assert nonzero == 1742


def _radial_integral(m: int, n: int, j: int, k: int) -> float:
    """The radial integral behind the projection coefficient, m = n+j-k-1 >= 0.

    The coefficient of P_n(psi_{j,k}) equals

        J = -(c_{m,n} c_{j-1,k} / (m! n!)) *
            integral_0^inf t^{|j-k-1|} F_a(t) F_b(t) e^{-2t} dt,

    with F_a, F_b the terminating confluent factors of the two
    polynomials, and the product-of-confluents formula collapses it to

        Gamma(|k+1-j|+1) / 2^{min(m,n) + min(j-1,k) + |k+1-j| + 1}
        * 2F1(-min(m,n), -min(j-1,k); |k+1-j|+1; 1).

    For j = 0 the second lower parameter is +1 (min(j-1, k) = -1),
    still a terminating sum over the first.
    """
    pa, pb, db = min(m, n), min(j - 1, k), abs(j - 1 - k)
    pref = -(c_mn(m, n) * c_mn(j - 1, k)) / (factorial(m) * factorial(n))
    return pref * factorial(db) / 2.0 ** (pa + pb + db + 1) * gauss2f1_unit(pa, pb, db + 1.0)


def test_projection_coefficient_matches_radial_integral():
    cases = ((0, 1, 0), (1, 2, 1), (2, 3, 0), (1, 0, 0), (3, 2, 4), (2, 2, 2))
    for n, j, k in cases:
        m = n + j - k - 1
        coeff, target = projection_coefficient_closed(n, j, k)
        assert target == HermiteIndex(m, n)
        want = _radial_integral(m, n, j, k)
        assert coeff == pytest.approx(want, rel=1e-12)
    # j = 0 takes 2F1(-p, 1; c; 1) as a Pochhammer ratio, which keeps the
    # digits an alternating sum over its terms would cancel
    for n in range(1, 25):
        for k in range(n):
            coeff, _ = projection_coefficient_closed(n, 0, k)
            assert _radial_integral(n - k - 1, n, 0, k) == pytest.approx(coeff, rel=1e-13, abs=0)


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
    with pytest.raises(ValueError, match="J >= 0"):
        project_numeric(lambda pts: pts, 0, -1)
    # J = 0, as in project_levels, is coefficient 0 alone
    assert len(project_numeric(lambda pts: np.ones_like(pts), 0, 0).coeffs) == 1


def test_project_synthesize_round_trip():
    f = lambda pts: 2.0 * hermite_eval(HermiteIndex(0, 1), pts) - 0.7j * hermite_eval(
        HermiteIndex(2, 1), pts
    )
    seq = project_numeric(f, 1, 3)
    for z in (0.5 + 0.2j, -0.9 + 1.1j):
        row = hermite_table(len(seq.coeffs) - 1, (seq.n,), z)[:, 0]
        assert abs(np.dot(row, seq.coeffs) - complex(f(np.asarray(z)))) < 1e-9


def _project_oracle(f, n, J, grid):
    """The per-coefficient quadrature loop: a direct sum over the grid points."""
    return tuple(
        inner_product_gaussian(f, lambda pts, b=HermiteIndex(j, n): hermite_eval(b, pts), grid)
        / (math.pi * factorial(j) * factorial(n))
        for j in range(J + 1)
    )


def _assert_near_oracle(f, n, J, grid):
    """Each coefficient within (log2 n_theta + log2 n_radial + 2) eps sum |terms|.

    The FFT's error grows like log2 n_theta and the pairwise radial
    sum's like log2 n_radial, each times the sum of the magnitudes of
    the terms f conj(H_{j,n}) w / (n_theta j! n!); the 2 covers the
    rounding of a term.  The worst case measured on the grids below is
    6.8 eps times that sum, on 16 x 12.
    """
    got = project_numeric(f, n, J, grid=grid).coeffs
    want = _project_oracle(f, n, J, grid)
    fv = np.abs(np.broadcast_to(f(grid.points), grid.points.shape)) * grid.radial_w[:, None]
    ulps = math.log2(grid.n_theta) + math.log2(grid.n_radial) + 2
    for j in range(J + 1):
        h = np.abs(hermite_eval(HermiteIndex(j, n), grid.points))
        terms = float(np.sum(fv * h)) / (grid.n_theta * factorial(j) * factorial(n))
        assert abs(got[j] - want[j]) <= ulps * np.finfo(float).eps * terms, (n, J, j)


def test_project_numeric_equals_per_coefficient_quadrature():
    sources = (
        lambda pts: hermite_eval(HermiteIndex(3, 1), pts),
        lambda pts: cauchy_hermite_closed(HermiteIndex(2, 1), pts),
        lambda pts: cauchy_hermite_closed(HermiteIndex(0, 2), pts),
    )
    for grid in (build_polar_grid(), build_polar_grid(16, 12)):
        for f in sources:
            for n in range(4):
                for J in (1, 5, 9, 3):
                    _assert_near_oracle(f, n, J, grid)


def test_project_reads_each_grids_own_nodes():
    grid = build_polar_grid(12, 8)
    # same shape, other nodes: the radial rows come from each grid's own nodes
    other = PolarGrid(
        radial_t=np.array(grid.radial_t) * 0.75,
        radial_w=np.array(grid.radial_w),
        n_theta=8,
    )
    f = lambda pts: cauchy_hermite_closed(HermiteIndex(1, 0), pts)
    for g in (grid, other, grid):
        _assert_near_oracle(f, 0, 3, g)


@pytest.mark.parametrize("shape", [(64, 128), (16, 9), (20, 15)])
def test_project_levels_stack_equals_one_source_calls(shape):
    grid = build_polar_grid(*shape)
    hermite = hermite_table(4, range(3), grid.points)
    psi = np.stack([cauchy_hermite_closed(HermiteIndex(j, 1), grid.points) for j in range(3)])
    for stack in (hermite, psi):
        got = project_levels(stack, range(4), 6, grid)
        assert got.shape == stack.shape[:-2] + (4, 7)
        for at in np.ndindex(stack.shape[:-2]):
            for n in range(4):
                one = project_numeric(lambda pts, v=stack[at]: v, n, 6, grid=grid)
                assert got[at][n].tolist() == list(one.coeffs)


def test_project_coefficient_j_does_not_depend_on_J():
    grid = build_polar_grid(16, 12)
    source = cauchy_hermite_closed(HermiteIndex(2, 1), grid.points)
    top = project_levels(source, range(3), 11, grid)
    for J in range(11):
        assert project_levels(source, range(3), J, grid).tolist() == top[:, : J + 1].tolist()


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first access, about 1 ms; import must not pay it
    env = dict(os.environ)
    src = str(Path(poly_bergman.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, polycauchy; sys.exit('numpy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verify_projects_in_three_batched_calls(monkeypatch):
    # a projection + ranges pass makes two batched calls (the Hermite
    # table and the psi images) and one (the range images); none per record
    calls = []

    def counting(values, levels, J, grid):
        calls.append((np.shape(values)[:-2], tuple(levels), J))
        return project_levels(values, levels, J, grid)

    monkeypatch.setattr(verification, "project_levels", counting)
    run_suite("projection")
    run_suite("ranges")
    assert calls == [
        ((6, 6), tuple(range(6)), 7),
        ((5, 5), tuple(range(5)), 8),
        ((5,), tuple(range(5)), 7),
    ]


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


def test_series_equal_per_index_terms():
    # the per-index sums the row evaluator replaced, term for term
    for n in range(4):
        spec = KernelSpec(n=n, truncation=25)
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                want = _ascending_plain_sum(
                    [hermite_eval(HermiteIndex(m, n), z) for m in range(26)],
                    [hermite_eval(HermiteIndex(n, m), w) for m in range(26)],
                    [math.pi * factorial(m) * factorial(n) for m in range(26)],
                )
                assert kernel_series(spec, z, w) == want
