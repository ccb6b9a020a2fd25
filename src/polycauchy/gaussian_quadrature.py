"""Quadrature grids for Gaussian-weighted integrals over the plane.

Plane integrals against the weight of the ambient space,

.. math::

    \\int_{\\mathbb{C}} g(z)\\, e^{-|z|^2}\\, dx\\,dy
    = \\tfrac{1}{2} \\int_0^\\infty \\int_0^{2\\pi}
      g(\\sqrt{t}\\, e^{i\\theta})\\, e^{-t} \\, d\\theta\\, dt

are discretised by Gauss-Laguerre nodes in the squared radius t paired
with a uniform trapezoid rule in the angle.  The trapezoid rule
integrates e^{i p theta} exactly to zero for 0 < |p| < N_theta, which is
what makes index selection rules hold to machine precision on these
grids.  The one other weight the library meets, e^{-beta t}, is purely
radial: its rule is the Gauss-Laguerre pair rescaled to beta, with no
angular part.

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

integrated by Gauss-Legendre in rho over [max(0, |z| - radius_pad),
|z| + radius_pad] and the trapezoid rule in theta.  Every dropped point
is at least the pad from the origin, so for the default pad of 8 the
Gaussian tail is below e^{-64} ~ 1.6e-28, times the source's polynomial
growth.  The default grid is 64 radii times 128 angles while |z| <= 5.
Over 120 seeded centres with |z| <= 3, the worst gap |numeric - closed|
of the field-eval indices, divided by the rule's own sum of |terms|
(:func:`cauchy_singular_scale`, the scale ``cauchy --numeric`` prints)
and, in brackets, by 1 + |closed|:

    ===========  ===================  ===================  ===================
    (m, n)       96 x 256, pad 12     64 x 128, pad 8      48 x 128, pad 7
    ===========  ===================  ===================  ===================
    (0, 0)       4.8e-15 (1.7e-15)    1.6e-15 (5.9e-16)    4.6e-15 (1.5e-15)
    (4, 4)       5.7e-15 (1.8e-14)    1.2e-15 (1.0e-14)    5.2e-16 (4.1e-15)
    (3, 9)       4.1e-15 (5.5e-14)    2.0e-15 (1.7e-13)    8.0e-16 (5.8e-14)
    (12, 12)     7.2e-15 (2.0e-11)    4.2e-15 (1.8e-11)    3.2e-13 (5.4e-09)
    (20, 10)     4.9e-15 (8.8e-11)    2.4e-15 (1.3e-10)    1.4e-14 (1.2e-10)
    ===========  ===================  ===================  ===================

The other four indices read at most 2.3e-14 on either scale on every
grid.  Pad 7 truncates the tail at (12, 12).  On the scale of 1 +
|closed| the high indices read larger where the terms cancel: near a
zero of the image, or (20, 10) near the origin, where the gap is
1e-5 of 1 + |closed| and 6e-17 of the scale at |z| = 0.05.

Farther out the Gaussian's mass lies near rho = |z| within an angle of
about 1/|z|, and the pad-8 tail, whose boundary flattens as |z| grows,
costs a degree-30 source 6e-9 of the scale at |z| = 8.  So past |z| = 5
the default (:func:`singular_grid_shape`) is pad 12, 128 radii on the
rho interval of length at most 24, and 256 angles doubled until they
are at least 16 |z|, up to 4096 at |z| = 256; a farther centre needs an
explicit n_theta.  Worst gap over six angles, divided by 1 + |closed|
(by the scale in brackets), on the default grid and on the old fixed
96 x 256, pad 12 grid on [0, |z| + 12]:

    =====  ========  ===================  ===================  ===================
    |z|    grid      (4, 4)               (0, 0) to (3, 9)     (12, 12), (20, 10)
    =====  ========  ===================  ===================  ===================
    5      64x128    2.6e-15 (1.0e-15)    6.3e-14 (1.7e-15)    4.7e-10 (1.2e-15)
           old       2.3e-15 (8.8e-16)    2.7e-14 (3.1e-15)    4.2e-10 (9.8e-16)
    8      128x256   1.1e-15 (7.0e-16)    8.6e-14 (6.7e-15)    4.7e-05 (1.7e-15)
           old       1.6e-15 (1.0e-15)    7.4e-14 (3.4e-15)    6.9e-05 (1.8e-15)
    12     128x256   2.9e-15 (2.8e-15)    4.3e-14 (6.5e-15)    6.2e-05 (2.0e-15)
           old       3.0e-15 (2.9e-15)    3.9e-14 (4.6e-15)    4.0e-01 (7.3e-12)
    30     128x512   1.1e-15 (2.7e-15)    5.0e-14 (9.9e-15)    3.1e-04 (1.4e-14)
           old       9.3e-05 (2.5e-04)    3.7e-02 (2.4e-03)    7.0e+09 (3.3e-01)
    256    128x4096  1.5e-15 (3.1e-14)    6.2e-14 (5.9e-14)    1.5e-03 (6.1e-13)
           old       4.8e-02 (8.8e-01)    3.5e+00 (1.5e+03)    6.1e+09 (9.9e-01)
    =====  ========  ===================  ===================  ===================

The middle column is (0, 0), (1, 0), (0, 3), (2, 5), (7, 2) and (3, 9).
Far out the high indices' terms cancel, to 5e-5 to 1.5e-3 of
1 + |closed|; on the scale they hold 2e-15 out to |z| = 12.  64 x 128, pad 8 kept
past |z| = 5 reads 2.0e-4 at (4, 4) and |z| = 15, and 6.0e-9 of the
scale at (12, 12) and |z| = 8.

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
    "cauchy_singular_scale",
    "gauss_laguerre_nodes",
    "inner_product_gaussian",
    "integrate_radial_weighted",
    "plane_quadrature",
    "polar_separable_quadrature",
    "singular_grid_shape",
]

MAX_RADIAL_NODES = 200
DEFAULT_RADIAL_NODES = 64
DEFAULT_ANGULAR_NODES = 128
DEFAULT_SINGULAR_RADIAL = 64
DEFAULT_SINGULAR_ANGULAR = 128
DEFAULT_RADIUS_PAD = 8.0
NEAR_SINGULAR_RADIUS = 5.0  # past it the default singular grid is sized to |center|
FAR_SINGULAR_RADIAL = 128
FAR_SINGULAR_ANGULAR = 256
FAR_RADIUS_PAD = 12.0
MAX_SINGULAR_ANGULAR = 4096  # the default angles resolve |center| <= 4096 / 16 = 256

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
    """Tensor grid for integrals against e^{-|z|^2} dx dy.

    radial_t, radial_w: Gauss-Laguerre nodes/weights in t = |z|^2 for
    the weight e^{-t}.  points are sqrt(t) times the libm unit phases
    of :func:`_phase_table`.  Immutable after construction; arrays are
    read-only.  Grids compare and hash by identity;
    :func:`build_polar_grid` returns one cached instance per resolution.
    """

    radial_t: np.ndarray
    radial_w: np.ndarray
    n_theta: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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
) -> PolarGrid:
    """The (cached, immutable) PolarGrid for the weight e^{-|z|^2}.

    n_radial is capped at 200; node accuracy is not guaranteed beyond
    that, and trailing weights underflow well before it.  The cache is
    keyed on (int, int), so ``build_polar_grid()`` and
    ``build_polar_grid(64, 128)`` return the same grid.
    """
    return _polar_grid_cached(operator.index(n_radial), operator.index(n_theta))


@lru_cache(maxsize=32)
def _polar_grid_cached(n_radial: int, n_theta: int) -> PolarGrid:
    t, w = _radial_rule(n_radial, 1.0)
    return PolarGrid(radial_t=t, radial_w=w, n_theta=n_theta)


@lru_cache(maxsize=32)
def _radial_rule(n_radial: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes x / beta and weights w / beta for e^{-beta t}.

    Cached and read-only.  Every beta reads the nodes of the beta = 1
    entry, so each n_radial is generated once; x / 1.0 is x bit for bit.
    """
    if not 1 <= n_radial <= MAX_RADIAL_NODES:
        raise ValueError(
            f"radial rule requires 1 <= n_radial <= {MAX_RADIAL_NODES}, got {n_radial}"
        )
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"radial rule requires a finite beta > 0, got {beta}")
    x, w = gauss_laguerre_nodes(n_radial) if beta == 1.0 else _radial_rule(n_radial, 1.0)
    t, w = x / beta, w / beta
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


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


def singular_grid_shape(center: complex) -> tuple[int, int | None, float]:
    """Default ``(n_radial, n_theta, radius_pad)`` of the singular grid at ``center``.

    64 x 128 with pad 8 while |center| <= 5.  Farther out the Gaussian's
    mass lies within an angle of about 1/|center| of the origin's
    direction, and a degree-30 source needs pad 12 and 128 radii on the
    24-long rho interval: 256 angles, doubled until at least 16 |center|.
    n_theta is None past |center| = 256, which would need more than
    4096 angles.
    """
    r = abs(complex(center))
    if r <= NEAR_SINGULAR_RADIUS:
        return DEFAULT_SINGULAR_RADIAL, DEFAULT_SINGULAR_ANGULAR, DEFAULT_RADIUS_PAD
    if 16.0 * r > MAX_SINGULAR_ANGULAR:
        return FAR_SINGULAR_RADIAL, None, FAR_RADIUS_PAD
    n_theta = FAR_SINGULAR_ANGULAR
    while n_theta < 16.0 * r:
        n_theta *= 2
    return FAR_SINGULAR_RADIAL, n_theta, FAR_RADIUS_PAD


def build_singular_grid(
    center: complex,
    n_radial: int | None = None,
    n_theta: int | None = None,
    radius_pad: float | None = None,
) -> SingularGrid:
    """Gauss-Legendre-in-rho grid on [max(0, |center| - radius_pad), |center| + radius_pad].

    Every point cut off either end is at least radius_pad from the
    origin.  An argument left None takes its value from
    :func:`singular_grid_shape`; past |center| = 256 n_theta must be
    given.
    """
    center = complex(center)
    if not cmath.isfinite(center):
        raise ValueError(f"build_singular_grid requires a finite center, got {center}")
    shape = singular_grid_shape(center)
    n_radial = shape[0] if n_radial is None else n_radial
    n_theta = shape[1] if n_theta is None else n_theta
    radius_pad = shape[2] if radius_pad is None else radius_pad
    if n_radial < 1:
        raise ValueError(f"build_singular_grid requires n_radial >= 1, got {n_radial}")
    if not (math.isfinite(radius_pad) and radius_pad > 0):
        raise ValueError(f"build_singular_grid requires a finite radius_pad > 0, got {radius_pad}")
    if n_theta is None:
        raise ValueError(
            f"the default singular grid resolves |center| <= {MAX_SINGULAR_ANGULAR // 16}, "
            f"got {abs(center):.6g}; give n_theta (--ntheta)"
        )
    inner = max(0.0, abs(center) - radius_pad)
    radius = abs(center) + radius_pad
    x, w = _standard_legendre_cached(n_radial)
    half = 0.5 * (radius - inner)
    return SingularGrid(
        center=center,
        radius=radius,
        radial_rho=inner + half * (x + 1.0),
        radial_w=half * w,
        n_theta=operator.index(n_theta),
    )


def _reduce_polar(values: np.ndarray, radial_w: np.ndarray):
    """Sum per-node values over theta, then weighted over radial nodes.

    values has shape (n_radial, n_theta), or (..., n_radial, n_theta)
    for a stack of integrands, giving an array of the leading shape.
    """
    return np.sum(values.sum(axis=-1) * radial_w, axis=-1)


def plane_quadrature(values: np.ndarray, grid: PolarGrid) -> complex:
    """Integrate precomputed point values against e^{-|z|^2} dx dy.

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

    ``f`` and ``g`` are evaluated on the full point array and may return
    scalars (constants broadcast).
    """
    if grid is None:
        grid = build_polar_grid()
    fv = np.broadcast_to(np.asarray(f(grid.points), dtype=complex), grid.points.shape)
    gv = np.broadcast_to(np.asarray(g(grid.points), dtype=complex), grid.points.shape)
    return plane_quadrature(fv * gv.conjugate(), grid)


def integrate_radial_weighted(h, beta: float, n_radial: int = DEFAULT_RADIAL_NODES) -> float:
    """Integrate h(t) e^{-beta t} over [0, inf) by the n_radial-node rule.

    The rule is exact for polynomials h of degree <= 2 n_radial - 1.
    """
    t, w = _radial_rule(operator.index(n_radial), float(beta))
    hv = np.broadcast_to(np.asarray(h(t), dtype=float), t.shape)
    return float(np.sum(hv * w))


def _singular_terms(f, z: complex, grid: SingularGrid | None):
    """The integrand f * e^{-|xi|^2} e^{-i theta} on the grid at z, and the grid."""
    z = complex(z)
    if grid is None:
        grid = build_singular_grid(z)
    elif grid.center != z:
        raise ValueError(
            f"singular grid was built for center {grid.center}, not {z}; rebuild the grid"
        )
    return np.asarray(f(grid.points), dtype=complex) * grid.weight, grid


def cauchy_singular_quadrature(f, z: complex, grid: SingularGrid | None = None) -> complex:
    """Weighted Cauchy transform of f at z by the recentred polar rule.

    Evaluates -(1/pi) integral of f(xi) e^{-|xi|^2} / (z - xi) over the
    plane with xi = z + rho e^{i theta}, where the Jacobian cancels the
    pole.  ``f`` must accept complex ndarray input.  When it returns
    shape (..., n_radial, n_theta), the leading axes stack integrands
    and the result is an array of the leading shape, each entry equal
    to the call on its own integrand.
    """
    terms, grid = _singular_terms(f, z, grid)
    sums = _reduce_polar(terms, grid.radial_w)
    if np.ndim(sums):
        return sums * (-2.0 / grid.n_theta)
    return complex(sums) * (-2.0 / grid.n_theta)


def cauchy_singular_scale(f, z: complex, grid: SingularGrid | None = None) -> float:
    """The rule's own sum of |terms| for :func:`cauchy_singular_quadrature`.

    (2 / n_theta) times the sum over the grid of |w_rho f e^{-|xi|^2}
    e^{-i theta}|; it bounds the quadrature's modulus, and its rounding
    and any cancellation among the terms scale with it.  Takes the same
    arguments, stacks included.
    """
    terms, grid = _singular_terms(f, z, grid)
    sums = _reduce_polar(np.abs(terms), grid.radial_w)
    if np.ndim(sums):
        return sums * (2.0 / grid.n_theta)
    return float(sums) * (2.0 / grid.n_theta)
