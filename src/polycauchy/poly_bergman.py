"""Reproducing kernels, projections, and the closed coefficient formula.

The level-n space is the closure of span{H_{j,n}: j >= 0} under the
Gaussian inner product; its reproducing kernel has the closed form

.. math::

    \\mathcal{K}_n(z, w) = \\frac{e^{z \\bar w}}{\\pi} L_n(|z - w|^2)

and the expansion

.. math::

    \\mathcal{K}_n(z, w) = \\sum_{m \\ge 0}
        \\frac{H_{m,n}(z) \\, H_{n,m}(w)}{\\pi\\, m!\\, n!}.

Note the exponent z wbar: with the convention that the power of z
rides on the first Hermite index (H_{1,0} = z), the n = 0 series sums
to e^{z wbar}/pi, and the closed form must carry the same exponent for
the series and closed routes to agree.

The orthogonal projection P_n acts on the transformed basis in closed
form: P_n(psi_{j,k}) is a single basis polynomial times

.. math::

    (-1)^{n+k+1} \\frac{\\Gamma(j+n)}{2^{n+j}\\, n!\\, \\Gamma(n+j-k)},

nonzero only when the target index n+j-k-1 is nonnegative.  The sign
exponent n+k+1 is fixed by an independent Gaussian-integral oracle at
(n, j, k) = (0, 1, 0), which gives -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_quadrature import PolarGrid, build_polar_grid
from .ito_hermite import HermiteIndex, hermite_radial_profile, hermite_table
from .special_fn import factorial, laguerre

__all__ = [
    "CoefficientSequence",
    "KernelSpec",
    "kernel_closed",
    "kernel_levels",
    "kernel_series",
    "project_levels",
    "project_numeric",
    "projection_coefficient_closed",
]


@dataclass(frozen=True)
class CoefficientSequence:
    """Finite coefficient list of f = sum_j H_{j,n} alpha_j at level n.

    The finite length makes square-summability trivial; the squared
    norm in the ambient space is sum_j pi j! n! |alpha_j|^2.
    """

    n: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"CoefficientSequence requires n >= 0, got n={self.n}")
        object.__setattr__(self, "coeffs", tuple(complex(a) for a in self.coeffs))


@dataclass(frozen=True)
class KernelSpec:
    """Level and series truncation for kernel evaluation.

    truncation is the highest retained series index M; the series is
    then M + 1 terms.  M = 0 is allowed (single-term series).
    """

    n: int
    truncation: int = 60

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"KernelSpec requires n >= 0, got n={self.n}")
        if self.truncation < 0:
            raise ValueError(
                f"KernelSpec requires truncation >= 0, got {self.truncation}"
            )


def kernel_closed(n: int, z: complex, w: complex) -> complex:
    """Closed-form reproducing kernel e^{z wbar} L_n(|z-w|^2) / pi."""
    if n < 0:
        raise ValueError(f"kernel_closed requires n >= 0, got {n}")
    z, w = complex(z), complex(w)
    d = z - w
    return complex(
        np.exp(z * w.conjugate()) * laguerre(n, (d * d.conjugate()).real) / math.pi
    )


def kernel_series(spec: KernelSpec, z, w):
    """Series form sum_{m<=M} H_{m,n}(z) H_{n,m}(w) / (pi m! n!).

    Terms are summed in ascending m.  For |z|, |w| <= 2 and M = 60 the
    factorial decay puts the remainder below 1e-12.

    ``z`` and ``w`` are points or sequences of points.  For two points
    the result is a complex; otherwise it is the array of K_n(z_i, w_j)
    with shape ``np.shape(z) + np.shape(w)``, each entry equal to the
    call on its two points.  This is the one-level view of
    :func:`kernel_levels`, and equals its row bit for bit.
    """
    values = kernel_levels(z, w, (spec.n,), spec.truncation)[0]
    return complex(values) if not values.ndim else values


def kernel_levels(z, w, levels, truncation: int = KernelSpec.truncation) -> np.ndarray:
    """Series kernels K_n(z_i, w_j) of :func:`kernel_series` on each level.

    The result has shape ``(len(levels),) + np.shape(z) + np.shape(w)``,
    entry [i, ...] for level ``levels[i]`` at truncation M =
    ``truncation``.  One Hermite table over the points z and conj w
    serves every level, since H_{n,m}(w) = H_{m,n}(conj w).  Each term
    is a real outer product of the rows, rounded as Python's a * b / s
    (numpy's complex multiply rounds otherwise), summed in ascending m.
    Each entry depends only on its own level and points: a stacked call
    equals its one-level calls bit for bit.
    """
    levels = [int(n) for n in levels]
    if truncation < 0 or min(levels, default=0) < 0:
        raise ValueError(
            f"kernel_levels requires truncation, n >= 0, got {truncation}, levels={levels}"
        )
    # M! first: past its overflow it raises before the rows are built
    factorial(truncation)
    scale = np.array(
        [[math.pi * factorial(m) * factorial(n) for n in levels] for m in range(truncation + 1)]
    )[:, :, None, None]
    z_arr = np.asarray(z, dtype=complex)
    w_arr = np.asarray(w, dtype=complex)
    points = np.concatenate([z_arr.ravel(), w_arr.ravel().conjugate()])
    table = hermite_table(truncation, levels, points)
    at_z, at_w = table[..., : z_arr.size, None], table[..., None, z_arr.size :]
    values = np.zeros((len(levels), z_arr.size, w_arr.size), dtype=complex)
    for row_z, row_w, s in zip(at_z, at_w, scale):
        values.real += (row_z.real * row_w.real - row_z.imag * row_w.imag) / s
        values.imag += (row_z.real * row_w.imag + row_z.imag * row_w.real) / s
    return values.reshape((len(levels),) + z_arr.shape + w_arr.shape)


def project_numeric(
    f, n: int, J: int, grid: PolarGrid | None = None
) -> CoefficientSequence:
    """Coefficients alpha_j = <f, H_{j,n}> / (pi j! n!), j = 0..J.

    ``f`` is evaluated once on the grid points and projected by
    :func:`project_levels`.  ``f`` must accept complex ndarray input.
    The angular rule tells frequencies apart only modulo n_theta, so
    for J >= n_theta the coefficients alias: H_{j,n} and
    H_{j+n_theta,n} read the same angular bin.
    """
    if n < 0:
        raise ValueError(f"project_numeric requires n >= 0, got n={n}")
    if J < 0:
        raise ValueError(f"project_numeric requires J >= 0, got J={J}")
    if grid is None:
        grid = build_polar_grid()
    # J! first: past its overflow it raises before f is evaluated
    factorial(J)
    fv = np.broadcast_to(np.asarray(f(grid.points), dtype=complex), grid.points.shape)
    return CoefficientSequence(n=n, coeffs=tuple(project_levels(fv, (n,), J, grid)[0]))


def project_levels(values, levels, J: int, grid: PolarGrid) -> np.ndarray:
    """Coefficients <f, H_{j,n}> / (pi j! n!) of stacked sources on each level.

    ``values`` holds sources on ``grid.points``, shape
    (..., n_radial, n_theta); the result has shape
    (..., len(levels), J + 1), entry [..., i, j] for level
    ``levels[i]`` and index j.  On the circle |z|^2 = t the basis
    factorises as H_{j,n} = P_{j,n}(t) e^{i (j - n) theta} with real P
    (:func:`hermite_radial_profile`), so the grid quadrature of
    f conj(H_{j,n}) e^{-|z|^2} is bin (j - n) mod n_theta of the
    source's angular DFT, summed against w_r P_{j,n}(t_r).  One FFT
    along theta serves every level of a source.  Each entry depends
    only on its own source, level and j: a stacked call equals its
    one-source calls bit for bit, and coefficient j does not depend on
    J.
    """
    levels = [int(n) for n in levels]
    if J < 0 or min(levels, default=0) < 0:
        raise ValueError(f"project_levels requires J, n >= 0, got J={J}, levels={levels}")
    values = np.asarray(values, dtype=complex)
    if values.shape[-2:] != grid.points.shape:
        raise ValueError(
            f"source shape {values.shape} does not end in grid shape {grid.points.shape}"
        )
    # 1 / (n_theta j! n!): the angular rule's pi / n_theta over pi j! n!
    scale = np.array(
        [[grid.n_theta * factorial(j) * factorial(n) for j in range(J + 1)] for n in levels]
    )
    indices = [HermiteIndex(j, n) for n in levels for j in range(J + 1)]
    profile, freq = hermite_radial_profile(indices, grid.radial_t)
    rows = profile.reshape(len(levels), J + 1, -1) * grid.radial_w / scale[..., None]
    bins = freq.reshape(len(levels), J + 1) % grid.n_theta
    spectrum = np.fft.fft(values, axis=-1)
    # (..., n_radial, levels, J+1) to contiguous radial rows, each summed alone
    picked = np.ascontiguousarray(np.moveaxis(spectrum[..., bins], -3, -1))
    return np.sum(picked * rows, axis=-1)


def projection_coefficient_closed(n: int, j: int, k: int):
    """Closed coefficient of P_n applied to psi_{j,k}.

    Returns (coefficient, target) with

        P_n(psi_{j,k}) = coefficient * H_{n+j-k-1, n};

    target is None and the coefficient 0.0 when n+j-k-1 < 0, in which
    case the projection vanishes identically (this guard also keeps
    Gamma away from its poles).  The sign exponent is n+k+1; the
    value at (0, 1, 0) is -1/2 by the direct Gaussian integral
    <-e^{-|xi|^2}, 1> / pi = -1/2.
    """
    if n < 0 or j < 0 or k < 0:
        raise ValueError(
            f"projection_coefficient_closed requires n, j, k >= 0, got ({n}, {j}, {k})"
        )
    target_m = n + j - k - 1
    if target_m < 0:
        return 0.0, None
    sign = -1.0 if (n + k + 1) % 2 else 1.0
    # Gamma(n+j)/Gamma(n+j-k) = (n+j-1)!/(n+j-1-k)!, an exact integer rounded once
    coefficient = sign * float(math.perm(n + j - 1, k)) / (2.0 ** (n + j) * factorial(n))
    return coefficient, HermiteIndex(target_m, n)


