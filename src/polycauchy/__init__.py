"""Gaussian-weighted planar Cauchy transform toolkit.

Orthogonal bivariate Hermite polynomials on the complex plane, their
images under the Gaussian-weighted Cauchy transform, projections onto
the true poly-Bergman levels, and the structure of the transform's
range: bases, selection rules, and truncated-operator spectra.
"""

from __future__ import annotations

from . import (
    cauchy_transform,
    gaussian_quadrature,
    ito_hermite,
    poly_bergman,
    range_analysis,
    special_fn,
    verification,
)
from .cauchy_transform import *  # noqa: F403
from .gaussian_quadrature import *  # noqa: F403
from .ito_hermite import *  # noqa: F403
from .poly_bergman import *  # noqa: F403
from .range_analysis import *  # noqa: F403
from .special_fn import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    name
    for module in (
        cauchy_transform,
        gaussian_quadrature,
        ito_hermite,
        poly_bergman,
        range_analysis,
        special_fn,
        verification,
    )
    for name in module.__all__
)
