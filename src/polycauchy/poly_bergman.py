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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .gaussian_quadrature import PolarGrid, _reduce_polar, build_polar_grid
from .ito_hermite import HermiteIndex, hermite_table
from .special_fn import factorial, laguerre

__all__ = [
    "CoefficientSequence",
    "KernelSpec",
    "kernel_closed",
    "kernel_series",
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
    call on its two points.  One one-level Hermite table serves each
    list; each term is a real outer product of the rows, rounded as
    Python's a * b / s, since numpy's complex multiply rounds otherwise.
    """
    n = spec.n
    fn = factorial(n)
    # M! first: past its overflow it raises before the rows are built
    factorial(spec.truncation)
    scale = [math.pi * factorial(m) * fn for m in range(spec.truncation + 1)]
    z_arr = np.asarray(z, dtype=complex)
    w_arr = np.asarray(w, dtype=complex)
    at_z = hermite_table(spec.truncation, (n,), z_arr.ravel())[:, 0]
    # H_{n,m}(w) = H_{m,n}(conj w): the series takes the rows at conj w
    at_w = hermite_table(spec.truncation, (n,), w_arr.ravel().conjugate())[:, 0]
    values = np.zeros((z_arr.size, w_arr.size), dtype=complex)
    outer = np.multiply.outer
    for row_z, row_w, s in zip(at_z, at_w, scale):
        values.real += (outer(row_z.real, row_w.real) - outer(row_z.imag, row_w.imag)) / s
        values.imag += (outer(row_z.real, row_w.imag) + outer(row_z.imag, row_w.real)) / s
    if not z_arr.ndim and not w_arr.ndim:
        return complex(values[0, 0])
    return values.reshape(z_arr.shape + w_arr.shape)


def project_numeric(
    f, n: int, J: int, grid: PolarGrid | None = None
) -> CoefficientSequence:
    """Coefficients alpha_j = <f, H_{j,n}> / (pi j! n!), j = 0..J.

    ``f`` is evaluated once on the grid points and contracted against
    the stacked conjugate basis row H_{0..J,n} by one reduction; each
    coefficient equals the quadrature
    ``inner_product_gaussian(f, H_{j,n}, grid)`` over pi j! n! bit for
    bit.  ``f`` must accept complex ndarray input; the grid must carry
    beta = 1, the weight of the ambient space.
    """
    if n < 0:
        raise ValueError(f"project_numeric requires n >= 0, got n={n}")
    if J < 1:
        raise ValueError(f"project_numeric requires J >= 1, got J={J}")
    if grid is None:
        grid = build_polar_grid()
    if grid.beta != 1.0:
        raise ValueError(
            f"project_numeric requires a grid with beta=1, got beta={grid.beta}"
        )
    fn = factorial(n)
    # J! first: past its overflow it raises before the (J+1)-row stack
    factorial(J)
    fv = np.broadcast_to(np.asarray(f(grid.points), dtype=complex), grid.points.shape)
    sums = _reduce_polar(fv * _conjugate_basis(grid, n, J), grid.radial_w)
    scale = np.pi / grid.n_theta
    coeffs = (
        complex(s) * scale / (math.pi * factorial(j) * fn) for j, s in enumerate(sums)
    )
    return CoefficientSequence(n=n, coeffs=tuple(coeffs))


_BASIS_CACHE_SIZE = 8
_basis_cache: OrderedDict = OrderedDict()


def _conjugate_basis(grid: PolarGrid, n: int, J: int) -> np.ndarray:
    """conj(H_{j,n}) on the grid points for j = 0..J, read-only.

    Kept for the last :data:`_BASIS_CACHE_SIZE` (grid, level) pairs.
    Grids compare and hash by identity, and the key holds the grid, so
    a grid with other nodes never shares an entry.
    """
    key = (grid, n)
    stack = _basis_cache.get(key)
    if stack is None or stack.shape[0] <= J:
        stack = hermite_table(J, (n,), grid.points)[:, 0].conjugate()
        stack.flags.writeable = False
    _basis_cache[key] = stack
    _basis_cache.move_to_end(key)
    while len(_basis_cache) > _BASIS_CACHE_SIZE:
        _basis_cache.popitem(last=False)
    return stack[: J + 1]


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


