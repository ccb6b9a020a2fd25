"""Weighted Cauchy transform: closed basis action vs singular quadrature."""

import math

import numpy as np
import pytest

from polycauchy import cauchy_transform
from polycauchy import (
    CauchyGridOptions,
    HermiteIndex,
    PsiFunction,
    cauchy_hermite_closed,
    cauchy_transform_numeric,
    hermite_eval,
)
from polycauchy.cauchy_transform import _BLOCK

BLOCKED_INDICES = ((1, 0), (2, 5), (12, 12), (20, 10))


def test_options_defaults_and_validation():
    opts = CauchyGridOptions()
    assert (opts.n_radial, opts.n_theta, opts.radius_pad) == (96, 256, 12.0)
    with pytest.raises(ValueError):
        CauchyGridOptions(n_radial=0)
    with pytest.raises(ValueError):
        CauchyGridOptions(n_theta=3)
    with pytest.raises(ValueError):
        CauchyGridOptions(radius_pad=0.0)


def test_closed_frozen_values():
    assert cauchy_hermite_closed(HermiteIndex(1, 0), 0j) == -1.0 + 0j
    got = cauchy_hermite_closed(HermiteIndex(1, 1), 1.0 + 0j)
    assert got == pytest.approx(-math.exp(-1.0) + 0j, rel=1e-14)
    got = cauchy_hermite_closed(HermiteIndex(0, 0), 1.0 + 0j)
    assert got == pytest.approx(1.0 - math.exp(-1.0) + 0j, rel=1e-13)
    got = cauchy_hermite_closed(HermiteIndex(0, 0), 2.0 + 0j)
    assert got == pytest.approx((1.0 - math.exp(-4.0)) / 2.0 + 0j, rel=1e-13)
    assert cauchy_hermite_closed(HermiteIndex(0, 1), 0j) == 0j


def test_closed_rejects_negative_m():
    with pytest.raises(ValueError):
        cauchy_hermite_closed(HermiteIndex(-1, 0), 1.0)


def test_psi_function_wraps_closed_form():
    psi = PsiFunction(HermiteIndex(2, 1))
    pts = np.array([0.4 + 0.1j, -1.2j, 2.0 + 0j])
    vals = psi(pts)
    for i, z in enumerate(pts):
        assert vals[i] == cauchy_hermite_closed(HermiteIndex(2, 1), complex(z))
    assert psi(1.0 + 1.0j) == cauchy_hermite_closed(HermiteIndex(2, 1), 1.0 + 1.0j)
    with pytest.raises(ValueError):
        PsiFunction(HermiteIndex(-1, 2))


def test_numeric_matches_closed_on_basis():
    pts = (0.5 + 0j, 1.0 + 1.0j, 0.3 - 1.7j)
    for m in range(4):
        for n in range(4):
            idx = HermiteIndex(m, n)
            for z in pts:
                closed = cauchy_hermite_closed(idx, z)
                numeric = cauchy_transform_numeric(
                    lambda xi, i=idx: hermite_eval(i, xi), z
                )
                assert abs(numeric - closed) <= 1e-6 * (1.0 + abs(closed))


def test_transform_linearity():
    a, b = 0.8 - 0.3j, -1.1 + 0.7j
    f = lambda xi: hermite_eval(HermiteIndex(2, 1), xi)
    g = lambda xi: hermite_eval(HermiteIndex(1, 1), xi)
    for z in (0.5 + 0j, -1.0 + 0.5j):
        combo = cauchy_transform_numeric(lambda xi: a * f(xi) + b * g(xi), z)
        split = a * cauchy_transform_numeric(f, z) + b * cauchy_transform_numeric(g, z)
        assert abs(combo - split) <= 1e-10 * (1.0 + abs(split))


def test_numeric_honors_custom_resolution():
    idx = HermiteIndex(2, 2)
    z = 1.0 + 0.5j
    closed = cauchy_hermite_closed(idx, z)
    coarse = cauchy_transform_numeric(
        lambda xi: hermite_eval(idx, xi), z, CauchyGridOptions(n_radial=24, n_theta=64)
    )
    fine = cauchy_transform_numeric(
        lambda xi: hermite_eval(idx, xi), z, CauchyGridOptions(n_radial=160, n_theta=512)
    )
    assert abs(fine - closed) <= abs(coarse - closed) + 1e-12
    assert abs(fine - closed) <= 1e-8 * (1.0 + abs(closed))


def _cloud(count: int, seed: int) -> np.ndarray:
    """Seeded points with |z| <= 3, holding z = 0 and the signed zeros."""
    rng = np.random.default_rng(seed)
    z = 3.0 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    # at the start, across the first block boundary and at the end
    for i, zero in enumerate(zeros):
        z[i] = zero
        z[min(_BLOCK - 2 + i, count - 1 - i)] = zero
        z[count - 1 - i] = zero
    return z


def test_blocked_images_equal_unblocked_formula():
    shapes = [(_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (3 * _BLOCK + 17,), (5, _BLOCK // 2 + 3)]
    for seed, shape in enumerate(shapes):
        z = _cloud(math.prod(shape), seed).reshape(shape)
        t = (z * z.conjugate()).real
        for m, n in BLOCKED_INDICES:
            got = cauchy_hermite_closed(HermiteIndex(m, n), z)
            want = -np.exp(-t) * hermite_eval(HermiteIndex(m - 1, n), z)
            assert got.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (shape, m, n)


def test_closed_image_is_one_public_call(monkeypatch):
    # blocks go through a private helper, so a wrapper on the public
    # name (as a tracer installs) sees one call per image; m >= 1 makes
    # one hermite_eval call per block, m = 0 stays one unblocked call
    counts = {"closed": 0, "eval": 0, "extended": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    closed = cauchy_transform.cauchy_hermite_closed
    monkeypatch.setattr(cauchy_transform, "cauchy_hermite_closed", counting("closed", closed))
    monkeypatch.setattr(
        cauchy_transform, "hermite_eval", counting("eval", cauchy_transform.hermite_eval)
    )
    monkeypatch.setattr(
        cauchy_transform,
        "hermite_eval_extended",
        counting("extended", cauchy_transform.hermite_eval_extended),
    )
    z = _cloud(3 * _BLOCK + 17, 7)
    images = [
        cauchy_transform.cauchy_hermite_closed(HermiteIndex(m, n), z)
        for m, n in BLOCKED_INDICES + ((0, 3),)
    ]
    assert all(image.shape == z.shape for image in images)
    assert counts == {"closed": 5, "eval": 4 * 4, "extended": 1}
