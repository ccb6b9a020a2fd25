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

from .gaussian_quadrature import SingularGrid, cauchy_singular_quadrature
from .ito_hermite import HermiteIndex, hermite_eval, hermite_eval_extended

__all__ = [
    "PsiFunction",
    "cauchy_hermite_closed",
    "cauchy_transform_numeric",
]


# Points per block of a large image: 8192 measured fastest on 2^18
# points (unblocked and 65536-point blocks were slower).
_BLOCK = 8192


def cauchy_hermite_closed(idx: HermiteIndex, z):
    """Closed form of the transform on a basis polynomial.

    Returns -e^{-|z|^2} H_{m-1,n}(z, zbar), through the polynomial
    evaluator for m >= 1 and the weighted extended function for m = 0,
    which never forms e^{|z|^2}, so the m = 0 image stays finite at any
    |z|.  At z = 0 with m = 0 this is the removable-singularity limit 0.

    Every input runs through one loop over fixed blocks of 8192 of its
    flattened points, so each block's temporaries stay in cache; a
    scalar, or an input of up to 8192 points, is a single block.  Both
    routes compute each value from its own point alone, so a value does
    not depend on the block it falls in, and a scalar equals its entry
    in any array bit for bit.  The block size is a constant, not an
    option.

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
    flat = z_arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        out[block] = _closed_image(m, n, flat[block])
    return out.reshape(z_arr.shape) if z_arr.ndim else complex(out[0])


def _closed_image(m: int, n: int, points: np.ndarray) -> np.ndarray:
    """-e^{-|z|^2} H_{m-1,n}(z, zbar) on one 1-D block of points."""
    if m == 0:
        return -hermite_eval_extended(n, points, weighted=True)
    gauss = np.exp(-(points * points.conjugate()).real)
    return -gauss * hermite_eval(HermiteIndex(m - 1, n), points)


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


def cauchy_transform_numeric(f, z: complex, grid: SingularGrid | None = None) -> complex:
    """Evaluate the transform of an arbitrary plane function at z.

    Delegates to :func:`~.gaussian_quadrature.cauchy_singular_quadrature`.
    ``grid`` is a singular grid built at z by
    :func:`~.gaussian_quadrature.build_singular_grid`, or None for the
    default resolution.  ``f`` must accept complex ndarray input.
    """
    return cauchy_singular_quadrature(f, complex(z), grid)
