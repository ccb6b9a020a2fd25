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

The row evaluator :func:`hermite_row` returns H_{m,n} for m = 0..M at
one level n, stacked on a leading axis, with every entry equal to
:func:`hermite_eval` bit for bit (the two share the code).  The
entries m >= n all have p = n, so one Laguerre climb over the
parameter array d = m - n serves them; each m < n takes its own climb.
Monomials are raised per exponent, since a stacked power is not
bit-identical.  Since H_{n,m}(w) = H_{m,n}(conj w) bit for bit, the
same row also gives the mirrored indices.  The recurrence route seeds
H_{0,0} = 1 and climbs

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

from dataclasses import dataclass

import numpy as np

from ._ddouble import dd_mul, dd_mul_scalar, dd_sqrt
from .gaussian_quadrature import PolarGrid, build_polar_grid, polar_separable_quadrature
from .special_fn import (
    _generalized_laguerre_dd,
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
]

# Base crossover |z|^2 between the ascending series and the closed
# exponential form of the m = -1 extension.  The closed form subtracts
# the degree-n Taylor partial sum from e^t, so it loses roughly the
# first n digits when t is small; the effective threshold grows as
# max(base, n/2) to keep the subtraction well away from total
# cancellation (at n = 12, t just above 0.25 it would round to zero).
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


def hermite_eval(idx: HermiteIndex, z):
    """Evaluate H_{m,n}(z, zbar) through the confluent representation.

    Parameters
    ----------
    idx : HermiteIndex
        Index pair with m >= 0.
    z : complex or ndarray
        Evaluation point(s).

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
    t = (z_arr * z_arr.conjugate()).real
    out = _monomial(z_arr, m, n) * _confluent(min(m, n), abs(m - n), t)
    return out if z_arr.ndim else complex(out)


def hermite_row(m_max: int, n: int, z) -> np.ndarray:
    """H_{m,n}(z, zbar) for m = 0..m_max, stacked on a new leading axis.

    Entry m equals ``hermite_eval(HermiteIndex(m, n), z)`` bit for bit.
    The entries m >= n share p = n and run one Laguerre climb over the
    parameter array d = m - n; each m < n takes its own climb.

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
    z_arr = np.asarray(z, dtype=complex)
    t = (z_arr * z_arr.conjugate()).real
    out = np.empty((m_max + 1,) + z_arr.shape, dtype=complex)
    for m in range(min(m_max + 1, n)):
        np.multiply(_monomial(z_arr, m, n), _confluent(m, n - m, t), out=out[m, ...])
    if m_max >= n:
        d = np.arange(m_max - n + 1).reshape((-1,) + (1,) * t.ndim)
        shared = _confluent(n, d, t)
        for k in range(m_max - n + 1):
            np.multiply(_monomial(z_arr, n + k, n), shared[k], out=out[n + k, ...])
    return out


def _confluent(p: int, d, t):
    """(-1)^p p! L_p^(d)(t); d an int or an integer array broadcasting against t."""
    confluent = factorial(p) * generalized_laguerre(p, d, t)
    return -confluent if p % 2 else confluent


def _monomial(z_arr: np.ndarray, m: int, n: int):
    """z^(m-n) for m >= n, else zbar^(n-m), one scalar exponent per call.

    A stacked ``z ** d_array`` is not bit-identical: numpy turns a scalar
    exponent of 2 into ``square``.
    """
    return z_arr ** (m - n) if m >= n else z_arr.conjugate() ** (n - m)


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


def _extended_radial_body(n: int, t: np.ndarray) -> np.ndarray:
    """Radial body B(t) with H_{-1,n}(z, zbar) = zbar^{n+1} B(|z|^2).

    For t above max(:data:`EXTENSION_CROSSOVER`, n/2) the closed form

        B(t) = -n! t^{-(n+1)} (e^t - sum_{k<=n} t^k/k!)

    is used; at or below it, the all-positive ascending series of
    -1F1(1; n+2; t)/(n+1) truncated at relative term size 1e-17.
    """
    out = np.empty_like(t)

    series = t <= _extension_threshold(n)
    if np.any(series):
        ts = t[series]
        term = np.ones_like(ts)
        total = np.zeros_like(ts)
        comp = np.zeros_like(ts)
        k = 0
        while True:
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            if np.max(term) <= _SERIES_RELATIVE_CUTOFF * np.min(total):
                break
            term = term * ts / (n + 2 + k)
            k += 1
        out[series] = c_mn(-1, n) * total

    closed = ~series
    if np.any(closed):
        tc = t[closed]
        # n! first: past its overflow it raises before an n-step loop
        scale = -factorial(n)
        partial = np.zeros_like(tc)
        comp = np.zeros_like(tc)
        term = np.ones_like(tc)
        for k in range(n + 1):
            y = term - comp
            s = partial + y
            comp = (s - partial) - y
            partial = s
            term = term * tc / (k + 1)
        body = (np.exp(tc) - partial) / tc ** (n + 1)
        out[closed] = scale * body

    return out


def hermite_eval_extended(n: int, z):
    """Evaluate the extended function H_{-1,n}(z, zbar).

    For t = |z|^2 above max(:data:`EXTENSION_CROSSOVER`, n/2) the
    closed form

        -n! zbar^{n+1} t^{-(n+1)} (e^t - sum_{k<=n} t^k/k!)

    is used; at or below it, the ascending series of 1F1(1; n+2; t)
    truncated at relative term size 1e-17.  H_{-1,n}(0) = 0.
    """
    if n < 0:
        raise ValueError(f"hermite_eval_extended requires n >= 0, got {n}")
    z_arr = np.asarray(z, dtype=complex)
    scalar = not z_arr.ndim
    z_flat = np.atleast_1d(z_arr)
    t = (z_flat * z_flat.conjugate()).real
    out = z_flat.conjugate() ** (n + 1) * _extended_radial_body(n, t)
    return complex(out[0]) if scalar else out.reshape(z_arr.shape)


def _dd_half_power(t: np.ndarray, d: int):
    """t^{d/2} as a double-double pair, t an exact double array, d >= 0."""
    zero = np.zeros_like(t)
    if d % 2:
        h, l = dd_sqrt(t, zero)
    else:
        h, l = np.ones_like(t), zero
    for _ in range(d // 2):
        h, l = dd_mul(h, l, t, zero)
    return h, l


def hermite_radial_profile(idx: HermiteIndex, t):
    """Radial factor and angular frequency of H_{m,n} on circles.

    On the circle z = sqrt(t) e^{i theta} the polynomial factorises as

        H_{m,n}(z, zbar) = P(t) e^{i (m - n) theta},
        P(t) = (-1)^p p! t^{d/2} L_p^{(d)}(t),

    with p = min(m, n), d = |m - n| and real P.  Returns
    (hi, lo, m - n) where hi + lo is a double-double evaluation of P
    at the given points; exactness of the pair matters because Gram
    entries weight these values by factors up to m! n!.

    The extension m = -1 factorises the same way with frequency
    -(n + 1); its profile is returned in plain double (lo = 0).
    """
    t_arr = np.asarray(t, dtype=float)
    m, n = idx.m, idx.n
    if m == -1:
        hi = t_arr ** (0.5 * (n + 1)) * _extended_radial_body(n, t_arr)
        return hi, np.zeros_like(hi), m - n
    lh, ll = _generalized_laguerre_dd(min(m, n), abs(m - n), t_arr)
    ph, pl = _dd_half_power(t_arr, abs(m - n))
    h, l = dd_mul(lh, ll, ph, pl)
    scale = factorial(min(m, n))
    if min(m, n) % 2:
        scale = -scale
    h, l = dd_mul_scalar(h, l, scale)
    return h, l, m - n


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
    profiles = [hermite_radial_profile(idx, grid.radial_t) for idx in indices]
    size = len(profiles)
    rows, cols = np.indices((size, size)).reshape(2, -1)
    return _separable_gram(profiles, rows, cols, grid).reshape(size, size)


def _separable_gram(profiles, rows, cols, grid: PolarGrid) -> np.ndarray:
    """Separable-rule inner products of the profile pairs (rows[e], cols[e]).

    ``profiles`` holds (hi, lo, frequency) triples on ``grid.radial_t``;
    all pairs go through one stacked :func:`polar_separable_quadrature`.
    """
    shape = (len(profiles), grid.n_radial)
    hi = np.array([p[0] for p in profiles]).reshape(shape)
    lo = np.array([p[1] for p in profiles]).reshape(shape)
    freq = np.array([p[2] for p in profiles], dtype=int)
    rh, rl = dd_mul(hi[rows], lo[rows], hi[cols], lo[cols])
    return polar_separable_quadrature(rh, rl, freq[rows] - freq[cols], grid)
