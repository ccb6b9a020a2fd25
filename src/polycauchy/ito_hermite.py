"""Complex Hermite polynomials H_{m,n}(z, zbar) and their m = -1 extension.

Two independent evaluation routes are provided.  The closed route uses
the terminating confluent representation

.. math::

    H_{m,n}(z, \\bar z) = c_{m,n} \\, \\frac{z^m \\bar z^n}{|z|^{2\\min(m,n)}}
        \\; {}_1F_1(-\\min(m,n); |m-n|+1; |z|^2),
    \\qquad
    c_{m,n} = (-1)^{\\min(m,n)} \\frac{\\max(m,n)!}{|m-n|!},

reduced to its two polynomial branches so z = 0 needs no special case.
The confluent factor is evaluated through the equivalent
generalized-Laguerre form

.. math::

    c_{m,n} \\; {}_1F_1(-p; d+1; t) = (-1)^p \\, p! \\, L_p^{(d)}(t),
    \\qquad p = \\min(m,n), \\; d = |m-n|,

whose three-term recurrence is forward stable where the ascending
series cancels digits.

The table evaluator :func:`hermite_table` returns H_{m,n} for
m = 0..M over a block of levels n, with every entry equal to
:func:`hermite_eval` bit for bit (the two share the code).  One
Laguerre climb over the array of needed parameters d passes through
every L_p^{(d)} the block needs, since the climb's iterates are the
lower degrees; each power z^d and zbar^d is raised once.
:func:`hermite_row` is the one-level case.  Since H_{n,m}(w) =
H_{m,n}(conj w), a row at conj w also gives the mirrored indices.

Every evaluator raises z^d and zbar^d through one helper: binary
powering with whole-array multiplies, on at least one-dimensional
arrays.  A scalar point is evaluated as a 1-element array, so it equals
its entry in any array of points bit for bit.

The recurrence route seeds H_{0,0} = 1 and climbs

.. math::

    H_{m+1,n} = z H_{m,n} - n H_{m,n-1}, \\qquad
    H_{m,n+1} = \\bar z H_{m,n} - m H_{m-1,n}.

Convention: the power of z rides on the first index, so H_{1,0} = z and
H_{0,1} = zbar.  The mirrored convention (conjugate of this one) also
appears in the literature; conjugate symmetry H_{n,m} = conj(H_{m,n})
translates between the two.

The index m = -1 extends the family beyond polynomials:

.. math::

    H_{-1,n}(z, \\bar z) = -\\frac{n!}{(n+1)!} \\bar z^{n+1}
        \\; {}_1F_1(1; n+2; |z|^2),

a smooth function that vanishes at z = 0 and makes the closed form of
the weighted Cauchy transform uniform in m.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ._ddouble import dd_mul, dd_mul_scalar, dd_sqrt
from .gaussian_quadrature import PolarGrid, build_polar_grid, polar_separable_quadrature
from .special_fn import (
    _generalized_laguerre_dd,
    _laguerre_climb,
    factorial,
    generalized_laguerre,
)

__all__ = [
    "EXTENSION_CROSSOVER",
    "HermiteIndex",
    "c_mn",
    "hermite_eval",
    "hermite_eval_extended",
    "hermite_gram_matrix",
    "hermite_radial_profile",
    "hermite_recurrence_eval",
    "hermite_row",
    "hermite_table",
]

# Base crossover |z|^2 between the ascending series and the closed
# exponential form of the m = -1 extension.  The closed form subtracts
# e^{-t} times the degree-n Taylor partial sum of e^t from 1, so it
# loses roughly the first n digits when t is small; the effective
# threshold grows as max(base, n/2) to keep the subtraction well away
# from total cancellation (at n = 12, t just above 0.25 it would round
# to zero).
# The series has only positive terms and converges geometrically below
# the threshold.
EXTENSION_CROSSOVER = 0.25

_SERIES_RELATIVE_CUTOFF = 1e-17


def _extension_threshold(n: int) -> float:
    return max(EXTENSION_CROSSOVER, 0.5 * n)


@dataclass(frozen=True)
class HermiteIndex:
    """Index pair (m, n) with m >= -1 and n >= 0.

    m = -1 addresses the extended function; polynomial evaluation
    requires m >= 0.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < -1:
            raise ValueError(f"HermiteIndex requires m >= -1, got m={self.m}")
        if self.n < 0:
            raise ValueError(f"HermiteIndex requires n >= 0, got n={self.n}")


def c_mn(m: int, n: int) -> float:
    """Normalisation constant c_{m,n} = (-1)^min(m,n) max(m,n)!/|m-n|!.

    Extended to m = -1, where it reduces to -n!/(n+1)! = -1/(n+1), the
    prefactor of the extended function.
    """
    if m < -1:
        raise ValueError(f"c_mn requires m >= -1, got m={m}")
    if n < 0:
        raise ValueError(f"c_mn requires n >= 0, got n={n}")
    p = min(m, n)
    sign = -1.0 if p % 2 else 1.0
    return sign * factorial(max(m, n)) / factorial(abs(m - n))


def hermite_eval(idx: HermiteIndex, z, *, weighted: bool = False):
    """Evaluate H_{m,n}(z, zbar) through the confluent representation.

    The value is a real radial factor (-1)^p p! L_p^(d)(t), t = |z|^2,
    times one monomial z^d or zbar^d, p = min(m, n), d = |m - n|: one
    complex multiply per point.

    With ``weighted`` the result is e^{-|z|^2} H_{m,n}(z, zbar), with
    e^{-t} folded into the real factor before the monomial multiply.
    This rounds differently from e^{-t} times the unweighted value, by
    a few units in the last place.  Where e^{-t} underflows to 0 while
    the Laguerre factor or the monomial overflows, the value is NaN, not
    the tiny number it approximates.

    Parameters
    ----------
    idx : HermiteIndex
        Index pair with m >= 0.
    z : complex or ndarray
        Evaluation point(s).
    weighted : bool
        Multiply by the Gaussian e^{-|z|^2}.

    Returns
    -------
    complex or ndarray
    """
    m, n = idx.m, idx.n
    if m < 0:
        raise ValueError(
            f"hermite_eval requires m >= 0; use hermite_eval_extended for m=-1 (got m={m})"
        )
    z_arr = np.asarray(z, dtype=complex)
    points = np.atleast_1d(z_arr)
    zbar = points.conjugate()
    # contiguous: the climb reads t once a step
    t = (points * zbar).real.copy()
    p, d = min(m, n), abs(m - n)
    # p! first: past its overflow it raises before a p-step climb
    scale = _signed_factorial(p)
    radial = generalized_laguerre(p, d, t)
    radial *= scale
    if weighted:
        gauss = np.negative(t)
        radial *= np.exp(gauss, out=gauss)
    out = _power(points if m > n else zbar, d)
    # a real factor multiplies in place as it does out of place
    np.multiply(out, radial, out=out)
    return out if z_arr.ndim else complex(out[0])


def hermite_table(m_max: int, levels, z) -> np.ndarray:
    """H_{m,n}(z, zbar) for m = 0..m_max and n in ``levels``, on new leading axes.

    Entry [m, j] equals ``hermite_eval(HermiteIndex(m, levels[j]), z)``
    bit for bit.  Every entry needs L_p^(d)(t) with p = min(m, n) and
    d = |m - n|.  One Laguerre climb over the array of needed
    parameters d passes through all of them, since its iterates are the
    lower degrees, and each d leaves the climb once its highest needed
    p is reached.  Each power z^d (entries m >= n) and zbar^d (entries
    m < n) is then raised once and multiplies every entry that shares
    it.  The conjugate of z^d would not do for zbar^d: a product's zero
    imaginary part keeps its sign under conjugation of the factors.

    Parameters
    ----------
    m_max : int
        Highest first index, m_max >= 0.
    levels : sequence of int
        Second indices, each >= 0.
    z : complex or ndarray
        Evaluation point(s).

    Returns
    -------
    ndarray
        Shape ``(m_max + 1, len(levels)) + np.shape(z)``.
    """
    levels = [operator.index(n) for n in levels]
    if m_max < 0 or any(n < 0 for n in levels):
        raise ValueError(
            f"hermite_table requires m_max, n >= 0, got m_max={m_max}, levels={levels}"
        )
    z_arr = np.asarray(z, dtype=complex)
    points = np.atleast_1d(z_arr)
    t = (points * points.conjugate()).real
    out = np.empty((m_max + 1, len(levels)) + points.shape, dtype=complex)
    if not levels:
        return out.reshape(out.shape[:2] + z_arr.shape)
    # the (p, d) pairs each entry needs, the degree each parameter d
    # must climb to, and the entries sharing each monomial
    needs = [set() for _ in range(min(m_max, max(levels)) + 1)]
    depth: dict = {}
    by_monomial: dict = {}
    for j, n in enumerate(levels):
        for m in range(m_max + 1):
            p, d = min(m, n), abs(m - n)
            needs[p].add(d)
            depth[d] = max(depth.get(d, 0), p)
            by_monomial.setdefault((m < n, d), []).append((m, j, p))
    # deepest parameters first, so each step of the climb drops the rows
    # that no later iterate needs from the end of the array
    order = sorted(depth, key=lambda d: -depth[d])
    row = {d: i for i, d in enumerate(order)}
    active = [sum(depth[d] >= k for d in order) for k in range(len(needs))]
    d_arr = np.array(order).reshape((-1,) + (1,) * t.ndim)
    confluent = {}
    for p, laguerre_p in enumerate(_laguerre_climb(len(needs) - 1, d_arr, t, active)):
        scale = _signed_factorial(p)
        for d in needs[p]:
            confluent[p, d] = scale * laguerre_p[row[d]]
    zbar = points.conjugate()
    for (mirrored, d), entries in by_monomial.items():
        monomial = _power(zbar if mirrored else points, d)
        for m, j, p in entries:
            np.multiply(monomial, confluent[p, d], out=out[m, j, ...])
    return out.reshape(out.shape[:2] + z_arr.shape)


def hermite_row(m_max: int, n: int, z) -> np.ndarray:
    """H_{m,n}(z, zbar) for m = 0..m_max, stacked on a new leading axis.

    The one-level case of :func:`hermite_table`: entry m equals
    ``hermite_eval(HermiteIndex(m, n), z)`` bit for bit.

    Parameters
    ----------
    m_max : int
        Highest first index, m_max >= 0.
    n : int
        Second index, n >= 0.
    z : complex or ndarray
        Evaluation point(s).

    Returns
    -------
    ndarray
        Shape ``(m_max + 1,) + np.shape(z)``.
    """
    if m_max < 0 or n < 0:
        raise ValueError(f"hermite_row requires m_max, n >= 0, got m_max={m_max}, n={n}")
    return hermite_table(m_max, (n,), z)[:, 0]


def _signed_factorial(p: int) -> float:
    """(-1)^p p!, the factor taking L_p^(d) to the confluent form.

    Scaling by -p! rounds exactly as negating the product with p! does.
    """
    return -factorial(p) if p % 2 else factorial(p)


def _power(z: np.ndarray, d: int) -> np.ndarray:
    """z^d for an integer d >= 0, by left-to-right binary powering.

    Whole-array multiplies take the place of numpy's per-element complex
    ``**`` loop, several times slower, and round no worse.  Callers pass
    arrays of at least one dimension: a numpy scalar's multiply rounds
    otherwise, and so does an in-place multiply of a 1-element array,
    so neither is used and a point equals its entry in any array.
    """
    if d == 0:
        return np.ones_like(z)
    out = z.copy()
    for bit in bin(d)[3:]:
        out = out * out
        if bit == "1":
            out = out * z
    return out


def hermite_recurrence_eval(idx: HermiteIndex, z):
    """Evaluate H_{m,n} by climbing the two-index recurrence from H_{0,0} = 1.

    Independent of :func:`hermite_eval`; the two routes agreeing is a
    standing consistency check.
    """
    m, n = idx.m, idx.n
    if m < 0:
        raise ValueError(f"hermite_recurrence_eval requires m >= 0, got m={m}")
    z_arr = np.asarray(z, dtype=complex)
    zbar = z_arr.conjugate()
    # Row i holds H_{i,j} for j = 0..n; advance i with the m-raising rule.
    row = [np.ones_like(z_arr)]
    for j in range(n):
        row.append(zbar * row[j])
    for _ in range(m):
        new_row = [z_arr * row[0]]
        for j in range(1, n + 1):
            new_row.append(z_arr * row[j] - j * row[j - 1])
        row = new_row
    out = row[n]
    return out if z_arr.ndim else complex(out)


@functools.lru_cache(maxsize=128)
def _series_coefficients(n: int) -> tuple:
    """1/(n+2)_k for k = 0..K(n), the coefficients of the extension's series.

    K(n) is the smallest K with T^K/(n+2)_K <= 1e-17, where
    T = max(:data:`EXTENSION_CROSSOVER`, n/2) bounds t wherever the
    series is used.  The sum is at least its first term 1, so term K is
    below 1e-17 of the sum at every such point.  Each coefficient is
    the correctly rounded reciprocal of its exact integer product.
    """
    bound = _extension_threshold(n)
    rising, coefficients = 1, [1.0]
    while bound ** (len(coefficients) - 1) / rising > _SERIES_RELATIVE_CUTOFF:
        rising *= n + 1 + len(coefficients)
        coefficients.append(1 / rising)
    return tuple(coefficients)


def _closed_body(n: int, t: np.ndarray, weighted: bool) -> np.ndarray:
    """-n! (1 - e^{-t} sum_{k<=n} t^k/k!), times e^t unless weighted.

    The Poisson terms are summed with Kahan compensation, in place in
    fixed buffers.
    """
    # n! first: past its overflow it raises before an n-step loop
    scale = -factorial(n)
    term = np.negative(t)
    np.exp(term, out=term)
    partial, comp = term.copy(), np.zeros_like(t)
    y, s = np.empty_like(t), np.empty_like(t)
    for k in range(1, n + 1):
        term *= t
        term /= k
        np.subtract(term, comp, out=y)
        np.add(partial, y, out=s)
        np.subtract(s, partial, out=comp)
        comp -= y
        partial, s = s, partial
    body = np.subtract(1.0, partial, out=partial)
    body *= scale
    if not weighted:
        body *= np.exp(t)
    return body


def _series_body(n: int, t: np.ndarray, weighted: bool) -> np.ndarray:
    """-1/(n+1) sum_k t^k/(n+2)_k through term K(n), times e^{-t} when weighted."""
    coefficients = _series_coefficients(n)
    total = np.full_like(t, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= t
        total += c
    value = c_mn(-1, n) * total
    return value * np.exp(-t) if weighted else value


def _extended_parts(n: int, t: np.ndarray, weighted: bool):
    """Split H_{-1,n}, or e^{-t} H_{-1,n} when ``weighted``, into two factors.

    Returns (series, body), both shaped like t.  Where ``series`` holds
    (t at or below max(:data:`EXTENSION_CROSSOVER`, n/2)) the value is
    zbar^{n+1} body, with body -1/(n+1) times the all-positive series
    sum_k t^k/(n+2)_k of 1F1(1; n+2; t) through term K(n)
    (:func:`_series_coefficients`), in Horner form, times e^{-t} when
    weighted.  Elsewhere it is (zbar/t)^{n+1} body, with the closed form

        body = -n! (1 - e^{-t} sum_{k<=n} t^k/k!),  times e^t unless weighted.

    The Poisson terms e^{-t} t^k/k! never exceed 1 and zbar/t is 1/z,
    so for any finite t no intermediate of the weighted value
    overflows.  Every step is elementwise and the term counts are fixed,
    so each value depends on its own point only.
    """
    # each branch runs on its own points only, gathered and written back
    # by index, so a point never pays for the other branch's loop
    series = t <= _extension_threshold(n)
    body = np.empty_like(t)
    for part, branch in ((np.nonzero(~series), _closed_body), (np.nonzero(series), _series_body)):
        if part[0].size:
            body[part] = branch(n, t[part], weighted)
    return series, body


def hermite_eval_extended(n: int, z, *, weighted: bool = False):
    """Evaluate the extended function H_{-1,n}(z, zbar).

    For t = |z|^2 above max(:data:`EXTENSION_CROSSOVER`, n/2) the
    closed form

        -n! (zbar/t)^{n+1} (1 - e^{-t} sum_{k<=n} t^k/k!) e^t

    is used; at or below it, the ascending series of 1F1(1; n+2; t)
    through a fixed term count.  H_{-1,n}(0) = 0.  Each value depends
    on its own point only: a scalar equals its entry in any array.

    With ``weighted`` the result is e^{-|z|^2} H_{-1,n}(z, zbar),
    formed without e^{|z|^2}: it decays like 1/|z| and stays finite
    where H_{-1,n} itself overflows, for every finite z.  Past
    |z| ~ 1.34e154, where |z|^2 overflows, it is the limit
    -n!/z^{n+1}.
    """
    if n < 0:
        raise ValueError(f"hermite_eval_extended requires n >= 0, got {n}")
    z_arr = np.asarray(z, dtype=complex)
    points = np.atleast_1d(z_arr)
    base = points.conjugate()
    # |z| past ~1.34e154 makes t inf and its Poisson terms 0 * inf;
    # those entries are replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        t = (points * base).real.copy()
        series, body = _extended_parts(n, t, weighted)
    # zbar where the series serves, zbar/t elsewhere, one rounding per part
    divisor = np.where(series, 1.0, t)
    np.divide(base.real, divisor, out=base.real)
    np.divide(base.imag, divisor, out=base.imag)
    far = np.isinf(t)
    if far.any():
        # the limits there: 1/z for zbar/t (complex division scales) and
        # -n! e^t for the body
        base[far] = 1.0 / points[far]
        body[far] = -factorial(n) if weighted else -np.inf
    out = _power(base, n + 1) * body
    return out if z_arr.ndim else complex(out[0])


def hermite_radial_profile(indices, t, *, weighted: bool = False):
    """Radial factors and angular frequencies of H_{m,n} on circles.

    On the circle z = sqrt(t) e^{i theta} the polynomial factorises as

        H_{m,n}(z, zbar) = P(t) e^{i (m - n) theta},
        P(t) = (-1)^p p! t^{d/2} L_p^{(d)}(t),

    with p = min(m, n), d = |m - n| and real P.  ``indices`` is a
    sequence of :class:`HermiteIndex` and ``t`` a 1-D array.  Returns
    (hi, lo, freq): row i of hi + lo, shape (len(indices), t.size), is
    a double-double evaluation of P for ``indices[i]``, and freq[i] is
    its m - n.  Exactness of the pair matters because Gram entries
    weight these values by factors up to m! n!.  One Laguerre climb and
    one squaring loop for t^{d/2} serve every polynomial row, and each
    row equals its own one-index call bit for bit.

    The extension m = -1 factorises the same way with frequency
    -(n + 1); its rows are in plain double (lo = 0).

    With ``weighted`` the profiles are those of e^{-t} H_{m,n}: the
    polynomial profile times e^{-t} in double-double, and for m = -1
    the weighted form of :func:`hermite_eval_extended`, which stays
    finite at any t.
    """
    t = np.asarray(t, dtype=float)
    m, n = np.array([(i.m, i.n) for i in indices], dtype=int).reshape(-1, 2).T
    poly = m >= 0
    p, d = np.minimum(m, n)[poly], np.abs(m - n)[poly]
    # p! first: past its overflow it raises before the climb
    scale = np.array([_signed_factorial(int(q)) for q in p]).reshape(-1, 1)
    lh, ll = _generalized_laguerre_dd(p, d, t)
    # t^{d/2}: sqrt(t) for odd d, then d // 2 dd multiplies by t
    zero = np.zeros_like(t)
    rh, rl = dd_sqrt(t, zero)
    odd = (d % 2 == 1)[:, None]
    ph, pl = np.where(odd, rh, 1.0), np.where(odd, rl, 0.0)
    for k in range(d.max(initial=0) // 2):
        live = d // 2 > k
        ph[live], pl[live] = dd_mul(ph[live], pl[live], t, zero)
    h, l = dd_mul_scalar(*dd_mul(lh, ll, ph, pl), scale)
    if weighted:
        h, l = dd_mul(h, l, np.exp(-t), zero)
    hi, lo = np.empty((m.size, t.size)), np.zeros((m.size, t.size))
    hi[poly], lo[poly] = h, l
    for r in np.flatnonzero(~poly):
        series, body = _extended_parts(int(n[r]), t, weighted)
        # the circle values of zbar^{n+1} and (zbar/t)^{n+1}
        half = 0.5 * (n[r] + 1)
        hi[r] = t ** np.where(series, half, -half) * body
    return hi, lo, m - n


def hermite_gram_matrix(indices, grid: PolarGrid | None = None) -> np.ndarray:
    """Gram matrix of basis polynomials on a beta = 1 grid.

    ``indices`` is a sequence of :class:`HermiteIndex`; entry (i, j)
    is <H_{indices[i]}, H_{indices[j]}> against e^{-|z|^2} dx dy by the
    separable grid rule: the real radial profiles (computed once per
    index) multiply in double-double on the grid's exact radial nodes,
    and the angular sum vanishes exactly unless the frequencies match.
    """
    if grid is None:
        grid = build_polar_grid()
    if grid.beta != 1.0:
        raise ValueError(
            f"hermite_gram_matrix requires a grid with beta=1, got beta={grid.beta}"
        )
    return _separable_gram(*hermite_radial_profile(indices, grid.radial_t), grid)


def _separable_gram(hi, lo, freq, grid: PolarGrid, pairs=None) -> np.ndarray:
    """Separable-rule Gram matrix of stacked profiles ``hermite_radial_profile`` returns.

    The angular sum of a pair vanishes exactly unless its frequency
    difference is a multiple of ``grid.n_theta``.  Only those pairs,
    aliased ones included, form a double-double radial product, all in
    one stacked :func:`polar_separable_quadrature`; every other entry
    is the rule's exact 0j.  A boolean (size, size) ``pairs`` limits
    the products further: entries outside it are 0j too.
    """
    diff = freq[:, None] - freq[None, :]
    kept = diff % grid.n_theta == 0
    if pairs is not None:
        kept &= pairs
    rows, cols = np.nonzero(kept)
    rh, rl = dd_mul(hi[rows], lo[rows], hi[cols], lo[cols])
    values = np.zeros(diff.shape, dtype=complex)
    values[rows, cols] = polar_separable_quadrature(rh, rl, diff[rows, cols], grid)
    return values
