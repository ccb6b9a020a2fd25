"""Weighted Cauchy transform: closed basis action vs singular quadrature."""

import math

import numpy as np
import pytest

from polycauchy import cauchy_transform, ito_hermite
from polycauchy import (
    HermiteIndex,
    build_singular_grid,
    cauchy_hermite_closed,
    cauchy_singular_quadrature,
    cauchy_singular_scale,
    cauchy_transform_numeric,
    hermite_eval,
    hermite_eval_extended,
    singular_grid_shape,
)
from polycauchy.cauchy_transform import _BLOCK

BLOCKED_INDICES = ((1, 0), (2, 5), (12, 12), (20, 10))


def test_singular_grid_defaults_and_validation():
    grid = build_singular_grid(1.0 + 0.5j)
    assert (grid.radial_rho.size, grid.n_theta) == (64, 128)
    assert grid.radius == abs(1.0 + 0.5j) + 8.0
    assert singular_grid_shape(-5.0j) == (64, 128, 8.0)
    # past |z| = 5: 128 radii on [max(0, |z| - 12), |z| + 12], and 256
    # angles doubled until they are at least 16 |z|
    assert singular_grid_shape(5.5) == (128, 256, 12.0)
    far = build_singular_grid(15.0)
    assert (far.radial_rho.size, far.n_theta) == (128, 256)
    assert 3.0 < far.radial_rho.min() and far.radial_rho.max() < far.radius == 27.0
    assert [build_singular_grid(r).n_theta for r in (16.0, 16.5, 256.0)] == [256, 512, 4096]
    assert singular_grid_shape(256.5) == (128, None, 12.0)
    with pytest.raises(ValueError, match=r"resolves \|center\| <= 256"):
        build_singular_grid(256.5j)
    assert build_singular_grid(1e6, n_theta=8).n_theta == 8
    with pytest.raises(ValueError, match="n_radial"):
        build_singular_grid(0j, n_radial=0)
    with pytest.raises(ValueError, match="n_theta"):
        build_singular_grid(0j, n_theta=3)
    with pytest.raises(ValueError, match="radius_pad"):
        build_singular_grid(0j, radius_pad=0.0)
    f = lambda xi: hermite_eval(HermiteIndex(1, 1), xi)
    with pytest.raises(ValueError, match="center"):
        cauchy_transform_numeric(f, 0.5, build_singular_grid(0.25))


def test_singular_grid_rejects_non_finite_inputs():
    # any of them makes every grid point NaN, and the quadrature NaN
    nan, inf = math.nan, math.inf
    for center in (complex(nan, 0.0), complex(0.0, nan), complex(inf, 0.0), complex(0.0, -inf)):
        with pytest.raises(ValueError, match="finite center"):
            build_singular_grid(center)
    with pytest.raises(ValueError, match="finite center"):
        cauchy_singular_quadrature(lambda xi: xi, complex(nan, 0.0))
    for pad in (nan, inf):
        with pytest.raises(ValueError, match="finite radius_pad"):
            build_singular_grid(0.5, radius_pad=pad)


def test_default_grid_holds_the_field_indices_to_their_scale():
    # The gap is judged against the route's own scale, its sum of
    # |terms| (what `cauchy --numeric` prints as scale=), since the
    # terms' cancellation scales with it.  Divided by 1 + |closed|
    # instead, the gap reads 1.8e-11 at (12, 12) near a zero of the
    # image and 1e-5 at (20, 10) near the origin.  On the default grid
    # the worst ratio over 360 centres was 4.4e-15; a pad of 7 truncates
    # the Gaussian tail to 3.1e-13 at (12, 12) at every centre.
    rng = np.random.default_rng(2026)
    centres = 3.0 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
    indices = ((0, 0), (0, 3), (1, 0), (2, 5), (4, 4), (7, 2), (3, 9), (12, 12), (20, 10))
    for z in centres.tolist():
        grid = build_singular_grid(z)
        for m, n in indices:
            idx = HermiteIndex(m, n)
            f = lambda xi: hermite_eval(idx, xi)
            scale = cauchy_singular_scale(f, z, grid)
            gap = abs(cauchy_transform_numeric(f, z, grid) - cauchy_hermite_closed(idx, z))
            assert gap <= 3e-14 * scale, (m, n, z, gap / scale)


def test_default_grid_resolves_far_centres():
    # The Gaussian's mass lies within an angle of about 1/|z|, so 64 x
    # 128, pad 8 reads 2.0e-4 of 1 + |closed| at (4, 4) and |z| = 15;
    # the grid sized to |z| reads at most 3.1e-15 at (4, 4) and 8.6e-14
    # at (0, 3) out to 256.
    def sweep(indices, radii):
        for m, n in indices:
            idx = HermiteIndex(m, n)
            f = lambda xi: hermite_eval(idx, xi)
            for r in radii:
                for k in range(3):
                    z = r * complex(math.cos(2.1 * k + 0.3), math.sin(2.1 * k + 0.3))
                    closed = cauchy_hermite_closed(idx, z)
                    yield (m, n, z), abs(cauchy_transform_numeric(f, z) - closed), closed, f

    for key, gap, closed, _ in sweep(((4, 4), (0, 3)), (15.0, 30.0, 100.0)):
        assert gap <= 1e-12 * (1.0 + abs(closed)), (key, gap)
    # The degree-30 sources cancel to 1e-4 of 1 + |closed| out here, so
    # they are judged on the scale: the sized grid reads at most 2.4e-15
    # at |z| <= 12, where pad 8 loses 6e-9 at |z| = 8 to the Gaussian
    # tail and 96 radii 7.3e-12 at |z| = 12.
    for (m, n, z), gap, _, f in sweep(((12, 12), (20, 10)), (8.0, 12.0)):
        scale = cauchy_singular_scale(f, z)
        assert gap <= 3e-14 * scale, (m, n, z, gap / scale)


def test_scale_is_the_sum_of_the_rule_moduli():
    z = 0.4 - 0.2j
    grid = build_singular_grid(z)
    stack = lambda xi: np.stack([hermite_eval(HermiteIndex(m, 2), xi) for m in range(3)])
    scales = cauchy_singular_scale(stack, z, grid)
    for m in range(3):
        f = lambda xi, m=m: hermite_eval(HermiteIndex(m, 2), xi)
        scale = cauchy_singular_scale(f, z)
        assert isinstance(scale, float) and scale == scales[m]
        assert abs(cauchy_singular_quadrature(f, z, grid)) <= scale
    assert cauchy_singular_scale(lambda xi: np.zeros_like(xi), z, grid) == 0.0


def test_numeric_delegates_to_the_singular_quadrature():
    # the default grid and a given one give the quadrature's bits
    f = lambda xi: hermite_eval(HermiteIndex(2, 1), xi)
    for z in (0.5, 1.0 + 1.0j):
        want = cauchy_singular_quadrature(f, z, build_singular_grid(z))
        assert cauchy_transform_numeric(f, z) == want
        grid = build_singular_grid(z, 24, 64, 6.0)
        got = cauchy_transform_numeric(f, z, grid)
        assert got == cauchy_singular_quadrature(f, z, grid)
        assert isinstance(got, complex)


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
        lambda xi: hermite_eval(idx, xi), z, build_singular_grid(z, 24, 64)
    )
    fine = cauchy_transform_numeric(
        lambda xi: hermite_eval(idx, xi), z, build_singular_grid(z, 160, 512)
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
        for m, n in BLOCKED_INDICES:
            got = cauchy_hermite_closed(HermiteIndex(m, n), z)
            want = -hermite_eval(HermiteIndex(m - 1, n), z, weighted=True)
            assert got.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (shape, m, n)


def test_closed_image_is_one_public_call(monkeypatch):
    # blocks go through a private helper, so a wrapper on the public
    # name (as a tracer installs) sees one call per image; m >= 1 makes
    # one hermite_eval call per block, m = 0 one weighted extended call
    # per block
    counts = {"closed": 0, "eval": 0, "extended": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

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
    assert counts == {"closed": 5, "eval": 4 * 4, "extended": 4}


def test_m0_images_depend_on_the_point_alone():
    # the m = 0 image is blocked like m >= 1: each value equals the
    # unblocked weighted extension and the scalar image bit for bit
    z = _cloud(2**16, 11)
    z[::97] *= 12.0  # past |z| = 26.6, where e^{|z|^2} overflows
    sample = np.random.default_rng(12).choice(z.size, 512, replace=False)
    for n in (0, 3, 9):
        idx = HermiteIndex(0, n)
        images = cauchy_hermite_closed(idx, z)
        whole = -hermite_eval_extended(n, z, weighted=True)
        blocks = np.concatenate(
            [cauchy_hermite_closed(idx, z[s : s + _BLOCK]) for s in range(0, z.size, _BLOCK)]
        )
        assert np.all(np.isfinite(images))
        assert np.array_equal(images.view(np.int64), whole.view(np.int64)), n
        assert np.array_equal(images.view(np.int64), blocks.view(np.int64)), n
        for i in np.concatenate([np.arange(4), sample]):
            one = np.array([cauchy_hermite_closed(idx, complex(z[i]))])
            assert np.array_equal(one.view(np.int64), images[i : i + 1].view(np.int64)), (n, z[i])


def _split_extended_parts(n, t, weighted):
    """The extension's two branches, each on its own gathered points.

    The route of an earlier release, kept as an oracle: the library
    now runs each branch's loop in place in fixed buffers, and must
    give the same bits.
    """
    series = t <= ito_hermite._extension_threshold(n)
    body = np.empty_like(t)
    if np.any(series):
        ts = t[series]
        coefficients = ito_hermite._series_coefficients(n)
        total = np.full_like(ts, coefficients[-1])
        for c in coefficients[-2::-1]:
            total = total * ts + c
        value = ito_hermite.c_mn(-1, n) * total
        body[series] = value * np.exp(-ts) if weighted else value
    closed = ~series
    if np.any(closed):
        tc = t[closed]
        scale = -math.factorial(n)
        term = np.exp(-tc)
        partial = term
        for k in range(1, n + 1):
            term = term * tc / k
            partial = partial + term
        value = scale * (1.0 - partial)
        body[closed] = value if weighted else value * np.exp(tc)
    return series, body


def test_m0_images_equal_the_split_branch_route(monkeypatch):
    z = _cloud(3 * _BLOCK + 17, 13)
    z[::11] *= 0.05  # more points on the series branch
    z[5:13] = [1e-200, -1e-200j, complex(-0.0, 1e-200), 1e160, -1e160j, 30.0, 1e200 + 1e200j, 0.5]
    with np.errstate(over="ignore", invalid="ignore"):
        images = {n: cauchy_hermite_closed(HermiteIndex(0, n), z) for n in (0, 1, 3, 9, 20)}
        unweighted = {n: hermite_eval_extended(n, z[:4096]) for n in (0, 3, 9)}
        monkeypatch.setattr(ito_hermite, "_extended_parts", _split_extended_parts)
        for n, image in images.items():
            want = cauchy_hermite_closed(HermiteIndex(0, n), z)
            assert np.array_equal(image.view(np.int64), want.view(np.int64)), n
        for n, values in unweighted.items():
            want = hermite_eval_extended(n, z[:4096])
            assert np.array_equal(values.view(np.int64), want.view(np.int64)), n


def test_scalar_images_equal_their_array_entries():
    # one block path: a scalar is a one-point block, so for m >= 1 as for
    # m = 0 it equals its entry in any array bit for bit
    z = _cloud(600, 5)
    for m, n in BLOCKED_INDICES + ((0, 0), (0, 4), (3, 0)):
        idx = HermiteIndex(m, n)
        images = cauchy_hermite_closed(idx, z)
        scalars = np.array([cauchy_hermite_closed(idx, v) for v in z.tolist()])
        assert np.array_equal(scalars.view(np.int64), images.view(np.int64)), (m, n)
        assert isinstance(cauchy_hermite_closed(idx, complex(z[7])), complex)
    empty = cauchy_hermite_closed(HermiteIndex(1, 1), np.zeros((0, 3), dtype=complex))
    assert empty.shape == (0, 3)


def test_every_input_runs_through_the_block_loop(monkeypatch):
    # one path: scalars and small inputs are single flat blocks
    shapes = []
    image = cauchy_transform._closed_image

    def recording(m, n, points):
        shapes.append(points.shape)
        return image(m, n, points)

    monkeypatch.setattr(cauchy_transform, "_closed_image", recording)
    for m in (0, 2):
        shapes.clear()
        for z in (0.5j, np.full((3, 4), 1 + 1j), np.zeros(_BLOCK + 1, dtype=complex)):
            cauchy_hermite_closed(HermiteIndex(m, 1), z)
        assert shapes == [(1,), (12,), (_BLOCK,), (1,)]
