"""Complex Hermite polynomials H_{m,n}(z, zbar) and their m = -1 extension.

The polynomials are evaluated through the terminating confluent
representation

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
:func:`hermite_eval` bit for bit.  The two share three pieces: the
Laguerre climb ``special_fn._laguerre_climb``, the powering helper
:func:`_power` and the signed factorial :func:`_signed_factorial`.
One climb over the array of needed parameters d passes through every
L_p^{(d)} the block needs, since the climb's iterates are the lower
degrees; each power z^d and zbar^d is raised once.  Since H_{n,m}(w) =
H_{m,n}(conj w), a one-level table at conj w also gives the mirrored
indices.

Every evaluator raises z^d and zbar^d through one helper: binary
powering with whole-array multiplies, on at least one-dimensional
arrays.  A scalar point is evaluated as a 1-element array, so it equals
its entry in any array of points bit for bit.

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
import math
import operator
from dataclasses import dataclass

import numpy as np

from .special_fn import _laguerre_climb, factorial, generalized_laguerre

__all__ = [
    "EXTENSION_CROSSOVER",
    "HermiteIndex",
    "c_mn",
    "hermite_eval",
    "hermite_eval_extended",
    "hermite_radial_profile",
    "hermite_table",
]

# Base crossover |z|^2 between the ascending series and the closed
# exponential form of the m = -1 extension.  The closed form subtracts
# e^{-t} times the degree-n Taylor partial sum of e^t from 1, so it
# loses digits when t is small; the effective threshold grows as
# max(base, n/2) (at n = 12, t just above 0.25 the difference would
# round to zero).  Just above n/2 the body's worst relative error
# against mpmath is still 9.7e-13 at n = 24 and 5.2e-9 at n = 63 (a
# Kahan sum: 7.0e-13 and 3.0e-9, at most 1.75x less for n <= 63).
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
    prefactor of the extended function.  The exact ratio of min(m, n)
    integer factors, rounded once; ``OverflowError`` where it overflows.
    """
    if m < -1:
        raise ValueError(f"c_mn requires m >= -1, got m={m}")
    if n < 0:
        raise ValueError(f"c_mn requires n >= 0, got n={n}")
    if m == -1:
        return -1 / (n + 1)
    p = min(m, n)
    if p > 170:
        raise OverflowError(f"c_mn({m}, {n}) overflows a double")
    sign = -1.0 if p % 2 else 1.0
    return sign * float(math.perm(max(m, n), p))


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

    It keeps its own path beside :func:`hermite_table`: on 12288 points
    (one image block; x86-64, numpy 2.4.6, one core) a climb through the
    table's machinery restricted to the one entry took 139 against
    36 us at (1, 0) and 437 against 276 us at (19, 10).

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
        # the product copies the row out of the climb's reused buffer
        for d in needs[p]:
            confluent[p, d] = scale * laguerre_p[row[d]]
    zbar = points.conjugate()
    for (mirrored, d), entries in by_monomial.items():
        monomial = _power(zbar if mirrored else points, d)
        for m, j, p in entries:
            np.multiply(monomial, confluent[p, d], out=out[m, j, ...])
    return out.reshape(out.shape[:2] + z_arr.shape)


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
    closed = np.nonzero(~series)
    if closed[0].size:
        tc = t[closed]
        # n! first, and only here: past its overflow it raises before an
        # n-step loop, and the series branch never forms it
        scale = -factorial(n)
        term = np.negative(tc)
        np.exp(term, out=term)
        # the Poisson terms in plain double, in place; the subtraction
        # from 1 sets the error (EXTENSION_CROSSOVER)
        partial = term.copy()
        for k in range(1, n + 1):
            term *= tc
            term /= k
            partial += term
        np.subtract(1.0, partial, out=partial)
        partial *= scale
        if not weighted:
            partial *= np.exp(tc)
        body[closed] = partial
    near = np.nonzero(series)
    if near[0].size:
        ts = t[near]
        coefficients = _series_coefficients(n)
        total = np.full_like(ts, coefficients[-1])
        for c in coefficients[-2::-1]:
            total *= ts
            total += c
        total *= c_mn(-1, n)
        body[near] = total * np.exp(-ts) if weighted else total
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
    (profile, freq): row i of profile, shape (len(indices), t.size), is
    P for ``indices[i]`` in plain double, and freq[i] is its m - n.
    One Laguerre climb serves every polynomial row, deepest rows first,
    each leaving the climb at its own degree as in :func:`hermite_table`;
    each t^{d/2} is raised once per distinct d.  Every step is
    elementwise, so each row equals its own one-index call bit for bit.

    The extension m = -1 factorises the same way with frequency
    -(n + 1).

    With ``weighted`` the profiles are those of e^{-t} H_{m,n}: the
    polynomial profile times e^{-t}, and for m = -1 the weighted form
    of :func:`hermite_eval_extended`, which stays finite at any t.

    The real climb is kept beside the evaluators because it reads t
    itself: read off :func:`hermite_table` at z = sqrt(t), the 48 rows
    of ``project_levels`` on levels 0..5, J = 7, differ by up to 9.7e-15
    relative, the rounded square root raised to the power d.  It costs
    the same on today's callers (best of 15, x86-64, numpy 2.4.6, one
    pinned core): those 48 rows took 0.20 ms here and 0.21 ms from the
    table, the 45 rows of levels 0..4, J = 8 took 0.20 ms and 0.19 ms,
    and the five weighted m = -1 rows of ``verify`` on 128 nodes took
    0.21 ms here and from :func:`hermite_eval_extended`.
    """
    t = np.asarray(t, dtype=float)
    m, n = np.array([(i.m, i.n) for i in indices], dtype=int).reshape(-1, 2).T
    poly = np.flatnonzero(m >= 0)
    p, d = np.minimum(m, n)[poly], np.abs(m - n)[poly]
    # p! first: past its overflow it raises before the climb
    scale = np.array([_signed_factorial(int(q)) for q in p]).reshape(-1, 1)
    # deepest rows first: the rows of degree k are the run active[k + 1]:active[k]
    order = np.argsort(-p, kind="stable")
    depth = int(p.max(initial=0))
    active = [np.count_nonzero(p >= k) for k in range(depth + 2)]
    laguerre = np.empty((p.size, t.size))
    for k, laguerre_k in enumerate(_laguerre_climb(depth, d[order, None], t, active)):
        run = slice(active[k + 1], active[k])
        laguerre[order[run]] = laguerre_k[run]
    radial = laguerre * scale
    for e in np.unique(d).tolist():
        radial[d == e] *= t ** (0.5 * e)
    if weighted:
        radial *= np.exp(-t)
    profile = np.empty((m.size, t.size))
    profile[poly] = radial
    for r in np.flatnonzero(m < 0):
        series, body = _extended_parts(int(n[r]), t, weighted)
        # the circle values of zbar^{n+1} and (zbar/t)^{n+1}
        half = 0.5 * (n[r] + 1)
        profile[r] = t ** np.where(series, half, -half) * body
    return profile, m - n

