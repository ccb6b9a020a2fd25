"""Quadrature grids for Gaussian-weighted integrals over the plane.

Plane integrals of the form

.. math::

    \\int_{\\mathbb{C}} g(z)\\, e^{-\\beta |z|^2}\\, dx\\,dy
    = \\tfrac{1}{2} \\int_0^\\infty \\int_0^{2\\pi}
      g(\\sqrt{t}\\, e^{i\\theta})\\, e^{-\\beta t} \\, d\\theta\\, dt

are discretised by Gauss-Laguerre nodes in the squared radius t paired
with a uniform trapezoid rule in the angle.  The trapezoid rule
integrates e^{i p theta} exactly to zero for 0 < |p| < N_theta, which is
what makes index selection rules hold to machine precision on these
grids.

Laguerre nodes are built all at once.  The eigenvalues of the n x n
Laguerre Jacobi matrix (Golub-Welsch) are the starting guesses, good
to about 1e-13 relative; two Newton steps on the three-term recurrence,
evaluated in double-double arithmetic for every node in one array
pass, make each stored node the correctly rounded root (the correction
p/p' is one plain double division), and a final double-double
evaluation gives the weight 1/(x L_n'(x)^2) to a final rounding.
That evaluation also gives each node's residual Newton
step; one above 2^-50 of the node raises a ValueError naming n and
the node index instead of returning an unconverged rule.  The
recurrence is rescaled per node by exact powers of two so large node
counts neither overflow nor lose the ratio L_n/L_n' needed by Newton;
weights whose magnitude defeats the double-double path fall back to
log space.  Beyond roughly N_r = 186 the smallest true weights drop
below the double precision range and underflow to zero; nodes stay
accurate.

Angular phase tables are built once per size, read-only, from one
libm cos/sin pair per entry, so they do not follow numpy's SIMD tier.
No check reads a symmetry of the table: the separable rule takes the
trapezoid sum of e^{i p theta_j} as its exact value, N or 0, so
off-pattern frequencies vanish to an exact floating-point zero on
every grid, not merely to rounding level.

A second grid family handles the Cauchy kernel: recentred polar
coordinates xi = z + rho e^{i theta} absorb the 1/(z - xi) singularity
into the Jacobian, leaving the smooth integrand

    -(1/pi) f(z + rho e^{i theta}) e^{-|z + rho e^{i theta}|^2} e^{-i theta}

integrated by Gauss-Legendre in rho over [0, R] and the trapezoid rule
in theta.  R = |z| + radius_pad puts the Gaussian tail below 1e-60 for
the default pad of 12.

Every reduction runs in a fixed order, so repeated runs produce
identical bits.  Only the per-pair separable rule (double-double, the
oracle of one Gram entry) is compensated; radial integrals and
point-value integrands take numpy sums, whose rounding sits far below
the quadrature error.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._ddouble import dd_add, dd_div, dd_div_scalar, dd_mul, dd_mul_scalar, dd_weighted_sum

__all__ = [
    "PolarGrid",
    "SingularGrid",
    "angular_phase_sum",
    "build_polar_grid",
    "build_singular_grid",
    "cauchy_singular_quadrature",
    "gauss_laguerre_nodes",
    "inner_product_gaussian",
    "integrate_radial_weighted",
    "plane_quadrature",
    "polar_separable_quadrature",
]

MAX_RADIAL_NODES = 200
DEFAULT_RADIAL_NODES = 64
DEFAULT_ANGULAR_NODES = 128
DEFAULT_SINGULAR_RADIAL = 96
DEFAULT_SINGULAR_ANGULAR = 256
DEFAULT_RADIUS_PAD = 12.0

_RESCALE_EXP = 500  # power-of-two renormalisation threshold, exact in binary
_LOG_RESCALE = _RESCALE_EXP * math.log(2.0)
_MAX_CORRECTION = 2.0**-50  # largest residual Newton step accepted, relative to the node


def _laguerre_guesses(n: int) -> np.ndarray:
    """Golub-Welsch starting nodes: eigenvalues of the Laguerre Jacobi matrix."""
    k = np.arange(1.0, n)
    return np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) - np.diag(k, 1) - np.diag(k, -1))


def _scaled_laguerre_dd(n: int, zh: np.ndarray, zl: np.ndarray):
    """Double-double L_n and L_n' at each dd point (zh[i], zl[i]).

    In plain double the recurrence leaves nodes up to 942 ulp off at n = 128.
    Returns (ph, pl, dph, dpl, log_scale) with the true values equal to
    the dd pairs times e^{log_scale}.  Whenever an element's iterates
    grow past 2^500 they are renormalised by that exact power of two
    and its log scale grows by 500 ln 2, so the Newton ratio p/dp is
    always formed from well-scaled numbers.
    """
    pmh, pml = np.ones_like(zh), np.zeros_like(zh)
    ph, pl = dd_add(1.0, 0.0, -zh, -zl)
    log_scale = np.zeros_like(zh)
    for k in range(1, n):
        ah, al = dd_add(float(2 * k + 1), 0.0, -zh, -zl)
        th, tl = dd_mul(ah, al, ph, pl)
        sh, sl = dd_add(th, tl, *dd_mul_scalar(pmh, pml, -float(k)))
        nh, nl = dd_div_scalar(sh, sl, float(k + 1))
        pmh, pml, ph, pl = ph, pl, nh, nl
        big = np.maximum(np.abs(ph), np.abs(pmh)) > 2.0**_RESCALE_EXP
        if big.any():
            shift = np.where(big, -_RESCALE_EXP, 0)
            ph, pl, pmh, pml = (np.ldexp(v, shift) for v in (ph, pl, pmh, pml))
            log_scale = log_scale + np.where(big, _LOG_RESCALE, 0.0)
    dh, dl = dd_add(ph, pl, -pmh, -pml)
    dh, dl = dd_mul_scalar(dh, dl, float(n))
    dph, dpl = dd_div(dh, dl, zh, zl)
    return ph, pl, dph, dpl, log_scale


def gauss_laguerre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight e^{-x} on [0, inf), ascending.

    All nodes are found at once: Golub-Welsch eigenvalues are the
    starting guesses, and two Newton steps p/p' (plain double division
    of the double-double recurrence) make each stored node the correctly
    rounded root; with one step 85 of the rules n = 1..200 change bits
    when the guesses move by 1e-11 relative, with two none up to 1e-8.
    A final double-double evaluation gives w = 1/(x L_n'(x)^2) (a plain
    quotient moves 11316 of the 20100 weights for n <= 200); entries too
    large for that path are formed in log space and entries below the
    double-precision floor underflow to 0.  The same evaluation gives
    each node's residual Newton step, and a ValueError names n and the
    node index if one exceeds 2^-50 relative to its node.
    """
    if n < 1:
        raise ValueError(f"gauss_laguerre_nodes requires n >= 1, got {n}")
    zh = _laguerre_guesses(n)
    zl = np.zeros(n)
    for _ in range(2):
        ph, _, dph, _, _ = _scaled_laguerre_dd(n, zh, zl)
        zh, zl = dd_add(zh, zl, -(ph / dph), 0.0)
    ph, _, dph, dpl, log_scale = _scaled_laguerre_dd(n, zh, zl)
    correction = np.abs(ph / dph)
    bad = np.flatnonzero(~(correction <= _MAX_CORRECTION * zh))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"gauss_laguerre_nodes(n={n}): Newton did not converge at node {i} "
            f"(residual step {correction[i]:.3g} at x = {zh[i]!r})"
        )
    w = np.empty(n)
    direct = (log_scale == 0.0) & (np.abs(dph) < 1e140)
    dh, dl = dd_mul(dph[direct], dpl[direct], dph[direct], dpl[direct])
    dh, dl = dd_mul(dh, dl, zh[direct], zl[direct])
    w[direct] = dd_div(1.0, 0.0, dh, dl)[0]
    # libm log/exp per entry: numpy's vector versions round 3 of the 102
    # log-space weights over n = 2..200 differently in the last place.
    for i in np.flatnonzero(~direct):
        log_w = -math.log(zh[i]) - 2.0 * (math.log(abs(dph[i])) + log_scale[i])
        w[i] = math.exp(log_w) if log_w > -745.0 else 0.0
    return zh, w


@lru_cache(maxsize=32)
def _phase_table(n: int) -> np.ndarray:
    """Unit phases e^{2 pi i j / n}, j = 0..n-1; cached and read-only.

    Each entry is one libm cos/sin pair, so the table does not depend
    on numpy's SIMD tier, whose vector kernels round differently per
    CPU.  No check reads a symmetry of the table: the separable rule
    takes its angular sums from their exact values.
    """
    table = np.array([cmath.rect(1.0, 2.0 * math.pi * j / n) for j in range(n)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Tensor grid for integrals against e^{-beta |z|^2} dx dy.

    radial_t, radial_w: Gauss-Laguerre nodes/weights in t = |z|^2,
    already rescaled for the weight e^{-beta t}.  points are
    sqrt(t) times the libm unit phases of :func:`_phase_table`.
    Immutable after construction; arrays are read-only.  Grids compare
    and hash by identity; :func:`build_polar_grid` returns one cached
    instance per resolution.
    """

    beta: float
    radial_t: np.ndarray
    radial_w: np.ndarray
    n_theta: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError(f"PolarGrid requires beta > 0, got {self.beta}")
        if self.n_theta < 4:
            raise ValueError(f"PolarGrid requires n_theta >= 4, got {self.n_theta}")
        if np.any(self.radial_t < 0) or np.any(self.radial_w < 0):
            raise ValueError("PolarGrid nodes and weights must be nonnegative")
        phase = _phase_table(self.n_theta)
        pts = np.sqrt(self.radial_t)[:, None] * phase[None, :]
        for arr in (self.radial_t, self.radial_w, pts):
            arr.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_radial(self) -> int:
        return self.radial_t.size


def build_polar_grid(
    n_radial: int = DEFAULT_RADIAL_NODES,
    n_theta: int = DEFAULT_ANGULAR_NODES,
    beta: float = 1.0,
) -> PolarGrid:
    """The (cached, immutable) PolarGrid for the weight e^{-beta |z|^2}.

    n_radial is capped at 200; node accuracy is not guaranteed beyond
    that, and trailing weights underflow well before it.  The cache is
    keyed on (int, int, float), so ``build_polar_grid()`` and
    ``build_polar_grid(64, 128, 1)`` return the same grid.
    """
    return _polar_grid_cached(operator.index(n_radial), operator.index(n_theta), float(beta))


@lru_cache(maxsize=32)
def _polar_grid_cached(n_radial: int, n_theta: int, beta: float) -> PolarGrid:
    if not 1 <= n_radial <= MAX_RADIAL_NODES:
        raise ValueError(
            f"build_polar_grid requires 1 <= n_radial <= {MAX_RADIAL_NODES}, got {n_radial}"
        )
    if beta <= 0:
        raise ValueError(f"build_polar_grid requires beta > 0, got {beta}")
    x, w = _standard_laguerre_cached(n_radial)
    return PolarGrid(beta=beta, radial_t=x / beta, radial_w=w / beta, n_theta=n_theta)


@lru_cache(maxsize=32)
def _standard_laguerre_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_laguerre_nodes(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=32)
def _standard_legendre_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class SingularGrid:
    """Recentred polar grid absorbing the Cauchy singularity at ``center``.

    Besides the points it holds ``weight`` = e^{-|xi|^2} e^{-i theta}
    at each point, the fixed factor of every integrand
    :func:`cauchy_singular_quadrature` reduces on it, so an integrand
    costs one complex multiply per point.  Grids compare and hash by
    identity.
    """

    center: complex
    radius: float
    radial_rho: np.ndarray
    radial_w: np.ndarray
    n_theta: int
    points: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"SingularGrid requires radius > 0, got {self.radius}")
        if self.n_theta < 4:
            raise ValueError(f"SingularGrid requires n_theta >= 4, got {self.n_theta}")
        phase = _phase_table(self.n_theta)
        pts = self.center + self.radial_rho[:, None] * phase[None, :]
        weight = np.exp(-(pts * pts.conjugate()).real) * phase.conjugate()
        for arr in (self.radial_rho, self.radial_w, pts, weight):
            arr.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weight", weight)


def build_singular_grid(
    center: complex,
    n_radial: int = DEFAULT_SINGULAR_RADIAL,
    n_theta: int = DEFAULT_SINGULAR_ANGULAR,
    radius_pad: float = DEFAULT_RADIUS_PAD,
) -> SingularGrid:
    """Gauss-Legendre-in-rho grid on [0, |center| + radius_pad]."""
    if n_radial < 1:
        raise ValueError(f"build_singular_grid requires n_radial >= 1, got {n_radial}")
    if radius_pad <= 0:
        raise ValueError(f"build_singular_grid requires radius_pad > 0, got {radius_pad}")
    center = complex(center)
    radius = abs(center) + radius_pad
    x, w = _standard_legendre_cached(n_radial)
    rho = 0.5 * radius * (x + 1.0)
    rho_w = 0.5 * radius * w
    return SingularGrid(
        center=center,
        radius=radius,
        radial_rho=rho,
        radial_w=rho_w,
        n_theta=operator.index(n_theta),
    )


def _reduce_polar(values: np.ndarray, radial_w: np.ndarray):
    """Sum per-node values over theta, then weighted over radial nodes.

    values has shape (n_radial, n_theta), or (..., n_radial, n_theta)
    for a stack of integrands, giving an array of the leading shape.
    """
    return np.sum(values.sum(axis=-1) * radial_w, axis=-1)


def plane_quadrature(values: np.ndarray, grid: PolarGrid) -> complex:
    """Integrate precomputed point values against e^{-beta |z|^2} dx dy.

    ``values[i, j]`` is the non-weight part of the integrand at
    ``grid.points[i, j]``.
    """
    values = np.asarray(values)
    if values.shape != grid.points.shape:
        raise ValueError(
            f"plane_quadrature values shape {values.shape} does not match grid {grid.points.shape}"
        )
    return complex(_reduce_polar(values, grid.radial_w)) * (np.pi / grid.n_theta)


def angular_phase_sum(frequency: int, grid: PolarGrid) -> complex:
    """Sum of e^{i p theta_j} over the grid's angular nodes.

    The trapezoid rule sums the N-th roots of unity raised to p, which
    is exactly N for p = 0 (mod N) and exactly 0 otherwise; those exact
    values are returned on every grid.  Summing the phase table would
    leave rounding noise (up to 7.6e-13 over p on N = 128), and the
    selection rules need the exact zero.
    """
    n_full = grid.n_theta
    return complex(n_full) if int(frequency) % n_full == 0 else 0j


def polar_separable_quadrature(
    radial_hi: np.ndarray,
    radial_lo: np.ndarray,
    frequency: int,
    grid: PolarGrid,
) -> complex:
    """Grid quadrature of a separable integrand R(|z|^2) e^{i p theta}.

    Applies the same tensor rule as :func:`plane_quadrature` to an
    integrand given in factored form: the angular factor reduces to
    :func:`angular_phase_sum` (an exact zero for off-pattern
    frequencies) and the radial factor, supplied as a double-double
    pair of shape (n_radial,) evaluated at ``grid.radial_t``, is
    contracted with the weights through error-free products.  This
    path avoids re-deriving t = |z|^2 from the rounded grid points,
    which is what limits the generic path to a few units in the last
    place times the integrand's radial log-derivative.

    This is the per-pair route, correct to a final rounding of the
    double-double sum.  The Gram matrices do not call it: they contract
    whole frequency classes of plain-double profiles in one matmul each
    (``ito_hermite._separable_gram``), and it serves as the oracle of
    one such entry, with the exact product of the two profiles
    (``_ddouble.two_prod``) as its radial pair.
    """
    radial_hi = np.asarray(radial_hi, dtype=float)
    radial_lo = np.asarray(radial_lo, dtype=float)
    if not radial_hi.shape == radial_lo.shape == grid.radial_t.shape:
        raise ValueError(
            f"radial profile shape {radial_hi.shape}/{radial_lo.shape} does not match "
            f"grid nodes {grid.radial_t.shape}"
        )
    phase = angular_phase_sum(frequency, grid)
    if phase == 0:
        return 0j
    return phase * (np.pi / grid.n_theta) * dd_weighted_sum(radial_hi, radial_lo, grid.radial_w)


def inner_product_gaussian(f, g, grid: PolarGrid | None = None) -> complex:
    """<f, g> = integral of f(z) conj(g(z)) e^{-|z|^2} dx dy.

    The grid must carry beta = 1, the weight of the ambient space.
    ``f`` and ``g`` are evaluated on the full point array and may return
    scalars (constants broadcast).
    """
    if grid is None:
        grid = build_polar_grid()
    if grid.beta != 1.0:
        raise ValueError(
            f"inner_product_gaussian requires a grid with beta=1, got beta={grid.beta}"
        )
    fv = np.broadcast_to(np.asarray(f(grid.points), dtype=complex), grid.points.shape)
    gv = np.broadcast_to(np.asarray(g(grid.points), dtype=complex), grid.points.shape)
    return plane_quadrature(fv * gv.conjugate(), grid)


def integrate_radial_weighted(h, beta: float, grid: PolarGrid | None = None) -> float:
    """Integrate h(t) e^{-beta t} over [0, inf).

    The grid supplies the resolution; its nodes are rescaled to the
    requested beta when the two differ.
    """
    if beta <= 0:
        raise ValueError(f"integrate_radial_weighted requires beta > 0, got {beta}")
    if grid is None:
        grid = build_polar_grid(beta=float(beta))
    scale = grid.beta / beta
    t = grid.radial_t * scale
    w = grid.radial_w * scale
    hv = np.broadcast_to(np.asarray(h(t), dtype=float), t.shape)
    return float(np.sum(hv * w))


def cauchy_singular_quadrature(f, z: complex, grid: SingularGrid | None = None) -> complex:
    """Weighted Cauchy transform of f at z by the recentred polar rule.

    Evaluates -(1/pi) integral of f(xi) e^{-|xi|^2} / (z - xi) over the
    plane with xi = z + rho e^{i theta}, where the Jacobian cancels the
    pole.  ``f`` must accept complex ndarray input.  When it returns
    shape (..., n_radial, n_theta), the leading axes stack integrands
    and the result is an array of the leading shape, each entry equal
    to the call on its own integrand.
    """
    z = complex(z)
    if grid is None:
        grid = build_singular_grid(z)
    elif grid.center != z:
        raise ValueError(
            f"singular grid was built for center {grid.center}, not {z}; rebuild the grid"
        )
    fv = np.asarray(f(grid.points), dtype=complex)
    sums = _reduce_polar(fv * grid.weight, grid.radial_w)
    if np.ndim(sums):
        return sums * (-2.0 / grid.n_theta)
    return complex(sums) * (-2.0 / grid.n_theta)
