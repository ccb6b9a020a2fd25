"""Monomials, weighted polynomials and far-field m = 0 images against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from polycauchy import HermiteIndex, cauchy_hermite_closed, hermite_eval, hermite_eval_extended
from polycauchy.ito_hermite import _power

PRECISION = 120


def _split(value) -> tuple[complex, complex]:
    """An mpc as the pair (nearest complex, remainder): a double-double reference."""
    head = complex(value)
    with mpmath.workprec(PRECISION):
        return head, complex(value - mpmath.mpc(head))


def _relative_errors(got: np.ndarray, reference) -> np.ndarray:
    head = np.array([h for h, _ in reference])
    tail = np.array([t for _, t in reference])
    return np.abs((got - head) - tail) / np.abs(head)


def _worst_relative_error(got: np.ndarray, reference) -> float:
    return float(np.max(_relative_errors(got, reference)))


def test_power_rounds_no_worse_than_numpy():
    # Up to d = 2 the helper and numpy's ** do the same operations.  Past
    # it the helper rounds lower on average at every d; its worst point
    # can lose to numpy's by a few tenths of an ulp where both run the
    # same squaring chain (d = 4, 8, 16) and differ only in the fused
    # multiply-add of numpy's array multiply, so the worst case is held
    # to a fixed bound instead.
    rng = np.random.default_rng(20261023)
    z = 3.0 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    exact = [mpmath.mpc(v.real, v.imag) for v in z.tolist()]
    powers = [mpmath.mpc(1)] * z.size
    for d in range(31):
        helper = _power(z, d)
        if d <= 2:
            assert np.array_equal(helper.view(np.uint64), (z**d).view(np.uint64)), d
        else:
            reference = [_split(p) for p in powers]
            errors = _relative_errors(helper, reference)
            numpy_errors = _relative_errors(z**d, reference)
            assert np.mean(errors) <= np.mean(numpy_errors), d
            assert np.max(errors) <= d * 2.0**-52, d
        with mpmath.workprec(PRECISION):
            powers = [p * e for p, e in zip(powers, exact)]


def _weighted_hermite_reference(m: int, n: int, z: complex):
    """e^{-t} H_{m,n}(z, zbar) by the explicit double sum at 400 bits.

    sum_k (-1)^k k! C(m,k) C(n,k) z^{m-k} zbar^{n-k} cancels many digits
    at large |z|; 400 bits leave far more than a double's worth.
    """
    with mpmath.workprec(400):
        w = mpmath.mpc(z.real, z.imag)
        total = mpmath.fsum(
            (-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
            * w ** (m - k) * mpmath.conj(w) ** (n - k)
            for k in range(min(m, n) + 1)
        )
        value = mpmath.exp(-(w.real**2 + w.imag**2)) * total
    return _split(value)


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (0, 4), (2, 5), (7, 2), (3, 9), (11, 12), (19, 10)])
def test_weighted_hermite_eval_against_mpmath(m, n):
    # e^{-|z|^2} folded into the real radial factor, out to |z| = 26.5,
    # where e^{-t} is near the bottom of the double range.  e^{-t} turns
    # the rounding of t into a relative error of about t ulp, so each
    # point is held to (t + 64) ulp; the route that multiplies e^{-t}
    # into the unweighted value is held to the same bound
    rng = np.random.default_rng(20261018)
    z = 26.5 * np.sqrt(rng.uniform(size=160)) * np.exp(2j * np.pi * rng.uniform(size=160))
    z[:4] = [26.5, 26.5j, -26.5, 18.7 - 18.7j]
    t = (z * z.conjugate()).real
    reference = [_weighted_hermite_reference(m, n, v) for v in z.tolist()]
    bound = (t + 64.0) * 2.0**-52
    got = hermite_eval(HermiteIndex(m, n), z, weighted=True)
    assert np.all(_relative_errors(got, reference) <= bound)
    unfolded = np.exp(-t) * hermite_eval(HermiteIndex(m, n), z)
    assert np.all(_relative_errors(unfolded, reference) <= bound)


def _psi_reference(n: int, z: complex):
    """psi_{0,n}(z) = e^{-t} zbar^{n+1} 1F1(1; n+2; t) / (n+1), t = |z|^2."""
    with mpmath.workprec(PRECISION):
        w = mpmath.mpc(z.real, z.imag)
        t = w.real**2 + w.imag**2
        return mpmath.exp(-t) * mpmath.conj(w) ** (n + 1) * mpmath.hyp1f1(1, n + 2, t) / (n + 1)


@pytest.mark.parametrize("radius", [27.0, 30.0, 100.0])
@pytest.mark.parametrize("n", [0, 2, 5])
def test_far_m0_images_are_finite_and_accurate(radius, n):
    # e^{|z|^2} overflows past |z| ~ 26.6; the image itself decays like
    # n! / |z|^{n+1} and must stay finite and accurate there
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False) + 0.1
    z = radius * np.exp(1j * angles)
    z = np.concatenate([z, [radius + 0j, complex(0.0, -radius)]])
    reference = [_split(_psi_reference(n, v)) for v in z.tolist()]
    images = cauchy_hermite_closed(HermiteIndex(0, n), z)
    assert np.all(np.isfinite(images))
    assert _worst_relative_error(images, reference) <= 1e-14
    weighted = hermite_eval_extended(n, z, weighted=True)
    assert np.array_equal(-weighted, images)
    for v, image in zip(z.tolist(), images.tolist()):
        assert cauchy_hermite_closed(HermiteIndex(0, n), v) == image


def test_m0_image_at_level_170_is_finite_and_accurate():
    # (n + 1)! overflows at n = 170, but the series branch's prefactor
    # -1/(n + 1) and the image itself (about 2.9e75 at z = 3) do not
    z = 3.0 * np.exp(1j * np.array([0.0, 0.4, 2.0]))
    reference = [_split(_psi_reference(170, v)) for v in z.tolist()]
    images = cauchy_hermite_closed(HermiteIndex(0, 170), z)
    assert np.all(np.isfinite(images))
    assert _worst_relative_error(images, reference) <= 1e-14


@pytest.mark.parametrize("radius", [1e155, 1e160, 1e300])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_m0_images_past_the_overflow_of_t(radius, n):
    # |z|^2 is inf past |z| ~ 1.34e154; the image is n!/z^{n+1}, which
    # falls to subnormals (n = 1 at 1e155) or to 0 (n = 2), held to a
    # few subnormal steps there
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.3
    z = np.concatenate([radius * np.exp(1j * angles), [radius + 0j, complex(0.0, -radius)]])
    images = cauchy_hermite_closed(HermiteIndex(0, n), z)
    assert np.all(np.isfinite(images))
    with mpmath.workprec(PRECISION):
        for v, image in zip(z.tolist(), images.tolist()):
            want = math.factorial(n) / mpmath.mpc(v.real, v.imag) ** (n + 1)
            gap = abs(mpmath.mpc(image.real, image.imag) - want)
            assert gap <= 1e-14 * abs(want) + 8 * 2.0**-1074, (v, n)
            assert cauchy_hermite_closed(HermiteIndex(0, n), v) == image


def test_overflowing_points_leave_their_neighbours_alone():
    # points whose |z|^2 overflows are handled on their own: a cloud with
    # such points mixed in equals the cloud alone elsewhere, bit for bit
    rng = np.random.default_rng(20261024)
    near = 40.0 * np.sqrt(rng.uniform(size=4096)) * np.exp(2j * np.pi * rng.uniform(size=4096))
    mixed = near.copy()
    mixed[::7] = 1e200 * np.exp(1j * np.arange(mixed[::7].size))
    keep = np.ones(near.size, dtype=bool)
    keep[::7] = False
    for n in (0, 1, 4, 12):
        alone = hermite_eval_extended(n, near, weighted=True)
        both = hermite_eval_extended(n, mixed, weighted=True)
        assert np.all(np.isfinite(both))
        assert np.array_equal(both[keep].view(np.int64), alone[keep].view(np.int64)), n
