"""Plane and radial quadrature rules.

Oracles: closed-form one- and two-point rules, exact Gaussian moments
k!/beta^(k+1), and numpy's Gauss-Laguerre constructor as an independent
node/weight source.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from polycauchy import (
    HermiteIndex,
    PolarGrid,
    angular_phase_sum,
    build_polar_grid,
    build_singular_grid,
    cauchy_singular_quadrature,
    gauss_laguerre_nodes,
    hermite_eval,
    inner_product_gaussian,
    integrate_radial_weighted,
    plane_quadrature,
    polar_separable_quadrature,
)
from polycauchy import gaussian_quadrature
from polycauchy.gaussian_quadrature import _phase_table, _radial_rule, _reduce_polar


def test_one_point_rule_exact():
    x, w = gauss_laguerre_nodes(1)
    assert x[0] == 1.0
    assert w[0] == 1.0


def test_two_point_rule_closed_form():
    # nodes 2 +- sqrt(2), weights (2 -+ sqrt(2))/4
    x, w = gauss_laguerre_nodes(2)
    s = math.sqrt(2.0)
    assert x[0] == pytest.approx(2.0 - s, rel=1e-15)
    assert x[1] == pytest.approx(2.0 + s, rel=1e-15)
    assert w[0] == pytest.approx((2.0 + s) / 4.0, rel=1e-15)
    assert w[1] == pytest.approx((2.0 - s) / 4.0, rel=1e-15)


def test_nodes_against_numpy_constructor():
    # At n = 128 numpy's own first node is 7.6e-14 off the root (checked
    # against mpmath at 50 digits), which moves its first weight by 2.1e-11.
    for n, w_tol in ((5, 1e-11), (16, 1e-11), (64, 1e-11), (128, 5e-11)):
        x, w = gauss_laguerre_nodes(n)
        xr, wr = np.polynomial.laguerre.laggauss(n)
        assert np.max(np.abs(x - xr) / xr) < 1e-13
        assert np.max(np.abs(w - wr) / np.abs(wr)) < w_tol
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)


def _laguerre_signs(n: int, points) -> list[int]:
    """Sign of L_n at each rational point, from exact integers."""
    # n! L_n(x) = sum_k (-1)^k C(n, k) n!/k! x^k, by Horner in num/den
    coefficients = [
        (-1) ** k * math.comb(n, k) * (math.factorial(n) // math.factorial(k))
        for k in range(n + 1)
    ]
    signs = []
    for point in points:
        num, den = point.numerator, point.denominator
        acc, den_power = 0, 1
        for c in reversed(coefficients):
            acc = acc * num + c * den_power
            den_power *= den
        signs.append((acc > 0) - (acc < 0))
    return signs


def test_nodes_are_correctly_rounded_roots():
    # L_n changes sign between the ends of each node's rounding interval,
    # so the root is within half an ulp: the double-double recurrence is
    # what gets there (in plain double it leaves nodes 942 ulp off at
    # n = 128)
    for n in (24, 64, 128, 200):
        x, _ = gauss_laguerre_nodes(n)
        ends = [
            (Fraction(v) + Fraction(math.nextafter(v, toward))) / 2
            for v in x.tolist()
            for toward in (0.0, math.inf)
        ]
        signs = _laguerre_signs(n, ends)
        assert all(lo * hi <= 0 for lo, hi in zip(signs[::2], signs[1::2])), n


_NODE_DIGESTS = {
    # sha256 of the little-endian float64 nodes and weights
    24: ("c25654dc4fbf63fe7f09b1cc6bf6483b2278a11a3fc8109e6760394141a8d767",
         "c79146804c2ee396e1399732a2375738eb41df5fa2120c28640d961220a6c94c"),
    64: ("c8bc55baa12766094fa17c2b9af11a5e90ae86dfd104b854442e5b7284c9cc7e",
         "4120103efdfb8578bd094c55d2c6c1563a4bfcc6de3eef886dab1558349864d9"),
    128: ("6729fdb5b28deac0050fbf6f8ebedfdbfc8bbe4e57e1616c92f2072aa474cc5a",
          "d2518cb0215f49302485dc4faab2644d6bfcca972473518444eaab585d421a12"),
    200: ("8f932434f7a82871cb025e38d70d45e1252871a1cf86b498271170e397655fdb",
          "9b93cbe16dbe2192c9a7cd3843d3df32031d74296f4a4080d0ddf2c96b0ac1c4"),
}


def _node_digests(n: int) -> tuple[str, str]:
    return tuple(
        hashlib.sha256(np.asarray(a, dtype="<f8").tobytes()).hexdigest()
        for a in gauss_laguerre_nodes(n)
    )


def test_node_digests_are_pinned():
    for n, want in _NODE_DIGESTS.items():
        assert _node_digests(n) == want, n


def test_node_digests_hold_from_perturbed_guesses(monkeypatch):
    # the second Newton step makes the rule independent of its guesses:
    # with one step, rules change bits when the guesses move by 1e-11
    good = gaussian_quadrature._laguerre_guesses
    rng = np.random.default_rng(20261020)

    def perturbed(n):
        return good(n) * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, n))

    monkeypatch.setattr(gaussian_quadrature, "_laguerre_guesses", perturbed)
    for n, want in _NODE_DIGESTS.items():
        assert _node_digests(n) == want, n


def test_newton_non_convergence_raises(monkeypatch):
    # guesses 10% off are too far for the two double-double Newton steps
    good = gaussian_quadrature._laguerre_guesses
    monkeypatch.setattr(gaussian_quadrature, "_laguerre_guesses", lambda n: 1.1 * good(n))
    with pytest.raises(ValueError, match=r"n=24\): Newton did not converge at node \d+"):
        gauss_laguerre_nodes(24)


def test_weights_sum_to_one():
    for n in (8, 32, 120):
        _, w = gauss_laguerre_nodes(n)
        assert math.fsum(w) == pytest.approx(1.0, rel=1e-14)


def test_moment_exactness():
    # integral of t^k e^(-beta t) = k!/beta^(k+1), exact up to k = 2n-1
    for n_radial, beta in ((24, 1.0), (24, 3.0), (64, 1.0)):
        for k in range(2 * n_radial):
            got = integrate_radial_weighted(lambda t, kk=k: t**kk, beta, n_radial)
            want = math.factorial(k) / beta ** (k + 1)
            assert abs(got - want) <= 1e-11 * (1.0 + want)


def test_build_polar_grid_examples():
    g = build_polar_grid(1, 4)
    assert g.radial_t[0] == 1.0 and g.radial_w[0] == 1.0
    g = build_polar_grid(2, 4)
    s = math.sqrt(2.0)
    assert g.radial_t[0] == pytest.approx(2.0 - s, rel=1e-15)
    t3, w3 = _radial_rule(2, 3.0)
    assert t3[0] == pytest.approx((2.0 - s) / 3.0, rel=1e-15)
    assert w3[1] == pytest.approx((2.0 - s) / 12.0, rel=1e-15)


def test_build_polar_grid_validation():
    with pytest.raises(ValueError):
        build_polar_grid(0, 8)
    with pytest.raises(ValueError):
        build_polar_grid(201, 8)
    with pytest.raises(ValueError):
        PolarGrid(radial_t=np.array([1.0]), radial_w=np.array([1.0]), n_theta=3)


def test_grid_arrays_read_only():
    g = build_polar_grid(4, 8)
    for arr in (g.radial_t, g.radial_w, g.points):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_phase_tables_are_cached_and_read_only():
    assert _phase_table(64) is _phase_table(64)
    with pytest.raises(ValueError):
        _phase_table(64)[1] = 0
    # grid points are sqrt(t) times the cached table
    g = build_polar_grid(8, 64)
    want = np.sqrt(g.radial_t)[:, None] * _phase_table(64)[None, :]
    assert g.points.tobytes() == want.tobytes()


def test_singular_grid_holds_its_fixed_factors():
    grid = build_singular_grid(0.3 - 1.7j, 24, 64)
    pts = grid.points
    weight = np.exp(-(pts * pts.conjugate()).real) * _phase_table(64).conjugate()
    assert grid.weight.dtype == complex and grid.weight.shape == pts.shape
    assert grid.weight.tobytes() == weight.tobytes()
    with pytest.raises(ValueError):
        grid.weight[0, 0] = 0


def test_angular_phase_sum_exact_selection():
    g = build_polar_grid(4, 16)
    assert angular_phase_sum(0, g) == complex(16)
    assert angular_phase_sum(16, g) == complex(16)
    for p in (1, 2, 3, 5, 7, 8, 9, 15, -3, 31):
        assert angular_phase_sum(p, g) == 0j
    # even grids with an odd factor (p a multiple of N's power-of-two
    # part), and odd grids, where no node pairs cancel
    for n_theta, freqs in (
        (12, (4, 8, -4)),
        (96, (32, 64)),
        (9, (1, 3, -2, 10)),
        (15, (5, 6, 14, -1)),
    ):
        g = build_polar_grid(4, n_theta)
        assert angular_phase_sum(n_theta, g) == complex(n_theta)
        for p in freqs:
            assert angular_phase_sum(p, g) == 0j


def test_polar_separable_matches_generic():
    # a separable integrand must agree with the generic reduction
    g = build_polar_grid(32, 32)
    radial = np.exp(-0.5 * g.radial_t) * (1.0 + g.radial_t)
    for p in (0, 1, 4):
        sep = polar_separable_quadrature(radial, np.zeros_like(radial), p, g)
        values = radial[:, None] * _phase_table(g.n_theta)[None, :] ** p
        gen = plane_quadrature(values, g)
        assert abs(sep - gen) <= 1e-13 * (1.0 + abs(gen))


def test_reduce_polar_accepts_stacked_values():
    g = build_polar_grid(16, 8)
    values = np.stack([g.points**k for k in range(3)])
    stacked = _reduce_polar(values, g.radial_w)
    assert stacked.shape == (3,)
    for k in range(3):
        assert stacked[k] == _reduce_polar(values[k], g.radial_w)


def test_polar_grids_are_cached():
    assert build_polar_grid(12, 8) is build_polar_grid(12, 8)
    assert build_polar_grid(12, 8) is not build_polar_grid(12, 16)
    # the cache key is normalised to (int, int), so defaults and numpy
    # integers hit the same grid
    default = build_polar_grid()
    assert build_polar_grid(64, 128) is default
    assert build_polar_grid(n_theta=128) is default
    assert build_polar_grid(np.int64(64), np.int32(128)) is default


def test_grids_compare_and_hash_by_identity():
    # grids of other shapes compare unequal instead of comparing arrays
    coarse, fine = build_polar_grid(8, 8), build_polar_grid(9, 8)
    assert coarse != fine and coarse == build_polar_grid(8, 8)
    near, far = build_singular_grid(1j), build_singular_grid(1j, 48)
    # singular grids are not cached: two builds are two grids
    assert near != far and near != build_singular_grid(1j)
    assert hash(coarse) == hash(build_polar_grid(8, 8))
    assert len({coarse, fine, build_polar_grid(8, 8), near, far, build_singular_grid(1j)}) == 5


def test_grid_counts_are_integers():
    # a float count is refused, not truncated to a coarser rule
    for n_radial, n_theta in ((8.0, 12), (8, 12.7), (8, 12.0)):
        with pytest.raises(TypeError):
            build_polar_grid(n_radial, n_theta)
        with pytest.raises(TypeError):
            build_singular_grid(0.5, n_radial, n_theta)
    assert build_singular_grid(0.5, np.int64(16), np.int64(12)).n_theta == 12


def test_inner_product_examples():
    # <1,1> = pi, <z,z> = pi, <z, conj(z)> = 0
    one = lambda pts: np.ones_like(pts)
    ident = lambda pts: pts
    conj = lambda pts: pts.conjugate()
    assert inner_product_gaussian(one, one) == pytest.approx(math.pi, rel=1e-13)
    assert abs(inner_product_gaussian(ident, ident) - math.pi) <= 1e-13 * math.pi
    assert abs(inner_product_gaussian(ident, conj)) <= 1e-13


def test_angular_orthogonality_of_monomials():
    g = build_polar_grid(64, 128)
    for a in range(11):
        for b in range(a + 1, 11):
            v = inner_product_gaussian(
                lambda pts, e=a: pts**e, lambda pts, e=b: pts**e, g
            )
            norm = math.pi * math.sqrt(math.factorial(a) * math.factorial(b))
            assert abs(v) / norm < 1e-12


def test_integrate_radial_examples():
    assert integrate_radial_weighted(lambda t: np.ones_like(t), 1.0) == pytest.approx(
        1.0, rel=1e-13
    )
    assert integrate_radial_weighted(lambda t: t, 3.0) == pytest.approx(
        1.0 / 9.0, rel=1e-13
    )
    assert integrate_radial_weighted(lambda t: t**2, 2.0) == pytest.approx(
        0.25, rel=1e-13
    )


def test_radial_rule_requires_a_finite_positive_beta():
    for beta in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite beta > 0"):
            integrate_radial_weighted(lambda t: np.ones_like(t), beta)
        with pytest.raises(ValueError, match="finite beta > 0"):
            _radial_rule(8, beta)
    for n_radial in (0, 201):
        with pytest.raises(ValueError, match="n_radial"):
            integrate_radial_weighted(lambda t: t, 1.0, n_radial)


def test_radial_rules_share_their_nodes():
    # each beta divides the cached e^{-t} rule: x / 1.0 is x bit for bit
    x, w = gauss_laguerre_nodes(32)
    t1, w1 = _radial_rule(32, 1.0)
    t2, w2 = _radial_rule(32, 2.0)
    assert t1.tobytes() == x.tobytes() and w1.tobytes() == w.tobytes()
    assert t2.tobytes() == (x / 2.0).tobytes() and w2.tobytes() == (w / 2.0).tobytes()
    assert _radial_rule(32, 2.0)[0] is t2
    assert build_polar_grid(32, 8).radial_t.tobytes() == x.tobytes()
    for arr in (t1, w1, t2, w2):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_singular_quadrature_examples():
    # transform values with known closed forms
    got = cauchy_singular_quadrature(
        lambda pts: hermite_eval(HermiteIndex(1, 0), pts), 0j
    )
    assert abs(got - (-1.0)) < 1e-9

    got = cauchy_singular_quadrature(lambda pts: np.ones_like(pts), 1.0 + 0j)
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-9

    got = cauchy_singular_quadrature(
        lambda pts: hermite_eval(HermiteIndex(1, 1), pts), 1.0 + 0j
    )
    assert abs(got - (-math.exp(-1.0))) < 1e-9


def test_singular_quadrature_stacked_matches_1d():
    for z, (n_radial, n_theta) in ((0j, (24, 16)), (1 - 0.5j, (40, 64)), (0.3 + 2j, (96, 256))):
        grid = build_singular_grid(z, n_radial, n_theta)
        indices = [HermiteIndex(m, n) for m in range(4) for n in range(3)]
        stacked = cauchy_singular_quadrature(
            lambda pts: np.array([hermite_eval(i, pts) for i in indices]).reshape(4, 3, *pts.shape),
            z,
            grid,
        )
        assert stacked.shape == (4, 3)
        for k, idx in enumerate(indices):
            want = cauchy_singular_quadrature(lambda pts: hermite_eval(idx, pts), z, grid)
            assert stacked[divmod(k, 3)] == want


def test_singular_grid_center_mismatch_raises():
    grid = build_singular_grid(1.0 + 0j)
    with pytest.raises(ValueError):
        cauchy_singular_quadrature(lambda pts: pts, 2.0 + 0j, grid)


def test_singular_refinement_stability():
    cases = (
        (lambda pts: hermite_eval(HermiteIndex(1, 0), pts), 0j),
        (lambda pts: np.ones_like(pts), 1.0 + 0j),
        (lambda pts: hermite_eval(HermiteIndex(1, 1), pts), 1.0 + 0j),
    )
    for f, z in cases:
        coarse = cauchy_singular_quadrature(f, z, build_singular_grid(z, 96, 256))
        fine = cauchy_singular_quadrature(f, z, build_singular_grid(z, 192, 512))
        assert abs(coarse - fine) <= 1e-7 * (1.0 + abs(fine))
