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

Each point of a closed image costs real arithmetic and one complex
multiply: for m >= 1 the weighted :func:`~.ito_hermite.hermite_eval`
folds e^{-|z|^2} into its real radial factor before multiplying the
monomial.  Images run in blocks of 12288 points.  On 2^18 points
(|z| <= 3, the nine field-eval indices, one pinned CPU of a 2-vCPU
host, Python 3.11.7, numpy 2.4.6) blocks of 4096, 8192, 12288, 24576
and 32768 points took medians of 71, 63, 56, 55 and 58 ms for all
nine images, and the field-eval ``pass_cost`` medians over four seeds
were 5.80 (8192), 5.49 (12288) and 5.87 (24576).
"""

from __future__ import annotations

import numpy as np

from .gaussian_quadrature import SingularGrid, cauchy_singular_quadrature
from .ito_hermite import HermiteIndex, hermite_eval, hermite_eval_extended

__all__ = [
    "cauchy_hermite_closed",
    "cauchy_transform_numeric",
]


# Points per block of a large image (measured in the module docstring).
# A block's complex temporaries are 192 KiB, off glibc's initial 128 KiB
# mmap threshold, where 8192-point blocks sat exactly.
_BLOCK = 12288


def cauchy_hermite_closed(idx: HermiteIndex, z):
    """Closed form of the transform on a basis polynomial.

    Returns -e^{-|z|^2} H_{m-1,n}(z, zbar), through the polynomial
    evaluator for m >= 1 and the weighted extended function for m = 0,
    which never forms e^{|z|^2}, so the m = 0 image stays finite at any
    |z|.  At z = 0 with m = 0 this is the removable-singularity limit 0.

    Every input runs through one loop over fixed blocks of 12288 of its
    flattened points, so each block's temporaries stay in cache; a
    scalar, or an input of up to 12288 points, is a single block.  Both
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
        image = hermite_eval_extended(n, points, weighted=True)
    else:
        image = hermite_eval(HermiteIndex(m - 1, n), points, weighted=True)
    # negated in place on the float view, bit for bit as -image: numpy's
    # complex negative is a scalar loop, about 5x slower
    parts = image.view(float)
    np.negative(parts, out=parts)
    return image


def cauchy_transform_numeric(f, z: complex, grid: SingularGrid | None = None) -> complex:
    """Evaluate the transform of an arbitrary plane function at z.

    Delegates to :func:`~.gaussian_quadrature.cauchy_singular_quadrature`.
    ``grid`` is a singular grid built at z by
    :func:`~.gaussian_quadrature.build_singular_grid`, or None for the
    default resolution.  ``f`` must accept complex ndarray input.
    """
    return cauchy_singular_quadrature(f, complex(z), grid)
