"""Weighted Cauchy transform: numeric integral and closed basis action.

The transform

.. math::

    \\mathcal{C}f(z) = \\frac{1}{\\pi} \\int_{\\mathbb{C}}
        \\frac{f(\\xi)\\, e^{-|\\xi|^2}}{z - \\xi}\\, dA(\\xi)

acts on the Hermite basis in closed form,

.. math::

    \\mathcal{C}H_{m,n} = -e^{-|z|^2}\\, H_{m-1,n}(z, \\bar z)
        =: \\psi_{m,n}(z),

with the m = 0 case picked up by the extended function H_{-1,n}.  The
numeric route recentres the integral at the singularity and delegates
to :func:`~.gaussian_quadrature.cauchy_singular_quadrature`; closed
and numeric routes agreeing on the basis is the module's standing
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian_quadrature import (
    DEFAULT_RADIUS_PAD,
    DEFAULT_SINGULAR_ANGULAR,
    DEFAULT_SINGULAR_RADIAL,
    build_singular_grid,
    cauchy_singular_quadrature,
)
from .ito_hermite import HermiteIndex, hermite_eval, hermite_eval_extended

__all__ = [
    "CauchyGridOptions",
    "PsiFunction",
    "cauchy_hermite_closed",
    "cauchy_transform_numeric",
]


@dataclass(frozen=True)
class CauchyGridOptions:
    """Resolution knobs for the recentred singular quadrature."""

    n_radial: int = DEFAULT_SINGULAR_RADIAL
    n_theta: int = DEFAULT_SINGULAR_ANGULAR
    radius_pad: float = DEFAULT_RADIUS_PAD

    def __post_init__(self) -> None:
        if self.n_radial < 1:
            raise ValueError(f"CauchyGridOptions requires n_radial >= 1, got {self.n_radial}")
        if self.n_theta < 4:
            raise ValueError(f"CauchyGridOptions requires n_theta >= 4, got {self.n_theta}")
        if self.radius_pad <= 0:
            raise ValueError(
                f"CauchyGridOptions requires radius_pad > 0, got {self.radius_pad}"
            )


# Points per block of a large m >= 1 image: 8192 measured fastest on
# 2^18 points (unblocked and 65536-point blocks were slower).
_BLOCK = 8192


def cauchy_hermite_closed(idx: HermiteIndex, z):
    """Closed form of the transform on a basis polynomial.

    Returns -e^{-|z|^2} H_{m-1,n}(z, zbar), through the polynomial
    evaluator for m >= 1 and the extended function for m = 0.  At
    z = 0 with m = 0 this is the removable-singularity limit 0.

    For m >= 1 an input of more than 8192 points is evaluated in fixed
    blocks of 8192 points, so each block's temporaries stay in cache;
    every value equals the unblocked evaluation bit for bit.  The block
    size is a constant, not an option.  m = 0 is never blocked: the
    extended function's series stops on a test over its whole array.

    Parameters
    ----------
    idx : HermiteIndex
        Index pair with m, n >= 0.
    z : complex or ndarray
        Evaluation point(s).

    Returns
    -------
    complex or ndarray
    """
    m, n = idx.m, idx.n
    if m < 0:
        raise ValueError(f"cauchy_hermite_closed requires m >= 0, got m={m}")
    z_arr = np.asarray(z, dtype=complex)
    if m == 0 or z_arr.size <= _BLOCK:
        out = _closed_image(m, n, z_arr)
        return out if z_arr.ndim else complex(out)
    flat = z_arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        out[block] = _closed_image(m, n, flat[block])
    return out.reshape(z_arr.shape)


def _closed_image(m: int, n: int, z_arr: np.ndarray):
    """-e^{-|z|^2} H_{m-1,n}(z, zbar) on one array of points, unblocked."""
    gauss = np.exp(-(z_arr * z_arr.conjugate()).real)
    point = z_arr if z_arr.ndim else complex(z_arr)
    if m == 0:
        inner = hermite_eval_extended(n, point)
    else:
        inner = hermite_eval(HermiteIndex(m - 1, n), point)
    return -gauss * inner


@dataclass(frozen=True)
class PsiFunction:
    """The image psi_{m,n} of a basis polynomial under the transform.

    Callable: z maps to -e^{-|z|^2} H_{m-1,n}(z, zbar).  Always
    evaluates through the closed form; downstream Gram and projection
    computations rely on it being cheap and accurate.  Decays like
    e^{-|z|^2} times a polynomial for m >= 1 and like 1/|z| for m = 0.
    """

    index: HermiteIndex

    def __post_init__(self) -> None:
        if self.index.m < 0:
            raise ValueError(
                f"PsiFunction requires index with m >= 0, got m={self.index.m}"
            )

    def __call__(self, z):
        return cauchy_hermite_closed(self.index, z)


def cauchy_transform_numeric(
    f, z: complex, opts: CauchyGridOptions | None = None
) -> complex:
    """Evaluate the transform of an arbitrary plane function at z.

    Builds the recentred singular grid prescribed by ``opts`` and
    delegates to the quadrature; ``f`` must accept complex ndarray
    input.
    """
    if opts is None:
        opts = CauchyGridOptions()
    z = complex(z)
    grid = build_singular_grid(z, opts.n_radial, opts.n_theta, opts.radius_pad)
    return cauchy_singular_quadrature(f, z, grid)
