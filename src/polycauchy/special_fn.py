"""Scalar special functions used throughout the package.

Everything here is elementary and terminating: Laguerre polynomials
:math:`L_n`, the terminating confluent series

.. math::

    {}_1F_1(-p; b; t) = \\sum_{k=0}^{p} \\frac{(-p)_k}{(b)_k} \\frac{t^k}{k!},

the Gauss sum :math:`{}_2F_1(-p, -q; c; 1)` evaluated through the
Chu-Vandermonde identity, and exact ratios of Gamma values at integer
arguments.  All series are summed in ascending index order with
compensated accumulation (Kahan or double-double) so results are
bit-reproducible from run to run.

Terminating sums always use exactly ``p + 1`` terms; there is no early
exit, which keeps evaluation deterministic and makes term-count
reasoning trivial.
"""

from __future__ import annotations

import math

import numpy as np

from ._ddouble import dd_add, dd_div_scalar, dd_mul, dd_mul_scalar

__all__ = [
    "factorial",
    "gamma_ratio",
    "gauss2f1_unit",
    "generalized_laguerre",
    "hyp2f1_terminating_unit",
    "kahan_sum",
    "kummer_terminating",
    "laguerre",
]


def kahan_sum(terms):
    """Sum an iterable of floats or complex numbers with Kahan compensation.

    The accumulation order is the iteration order of ``terms``; callers
    are expected to pass terms in a fixed (ascending-index) order.
    """
    total = 0.0
    comp = 0.0
    for term in terms:
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def factorial(n: int) -> float:
    """n! as a float, exact (single rounding) for n <= 20.

    Small arguments go through exact integer products; larger ones fall
    back to ``exp(lgamma(n + 1))``.  Indices used by this package stay
    far below the crossover.
    """
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    if n <= 20:
        return float(math.factorial(n))
    try:
        return math.exp(math.lgamma(n + 1.0))
    except OverflowError:
        raise OverflowError(f"factorial({n}) overflows a double") from None


def gamma_ratio(a: int, b: int) -> float:
    """Gamma(a)/Gamma(b) for integer a, b >= 1 via exact integer products.

    The shorter product is cancelled symbolically: the ratio is either
    ``b * (b+1) * ... * (a-1)`` or its reciprocal, evaluated in exact
    integer arithmetic before a single conversion to float.
    """
    if a < 1 or b < 1:
        raise ValueError(f"gamma_ratio requires integer a, b >= 1, got a={a}, b={b}")
    if a == b:
        return 1.0
    if a > b:
        return float(math.prod(range(b, a)))
    return 1.0 / float(math.prod(range(a, b)))


def laguerre(n: int, t):
    """Laguerre polynomial L_n(t) by the three-term recurrence.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    t : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        L_n(t), matching the shape of ``t``.
    """
    return generalized_laguerre(n, 0, t)


def generalized_laguerre(p: int, d, t):
    """Generalized Laguerre polynomial L_p^(d)(t) by the recurrence.

    The three-term recurrence

        (k+1) L_{k+1} = (2k + d + 1 - t) L_k - (k + d) L_{k-1}

    is forward stable here and avoids the digit cancellation that the
    ascending hypergeometric series suffers for t beyond a few units.

    Parameters
    ----------
    p : int
        Degree, p >= 0.
    d : int or integer ndarray
        Parameter, d >= 0.  An array runs one climb for every parameter
        at once; each entry equals the scalar-``d`` call bit for bit.
    t : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        L_p^(d)(t), with the broadcast shape of ``d`` and ``t``.
    """
    if p < 0:
        raise ValueError(f"generalized_laguerre requires p >= 0, got {p}")
    if np.any(np.asarray(d) < 0):
        raise ValueError(f"generalized_laguerre requires d >= 0, got {d}")
    t_arr = np.asarray(t, dtype=float)
    prev = np.ones(np.broadcast_shapes(np.shape(d), t_arr.shape))
    if p == 0:
        return prev if prev.ndim else float(prev)
    cur = (1.0 + d) - t_arr
    for k in range(1, p):
        prev, cur = cur, ((2 * k + d + 1 - t_arr) * cur - (k + d) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def _generalized_laguerre_dd(p: int, d: int, t):
    """L_p^(d)(t) in double-double, t an exact double array.

    Returns (hi, lo) ndarrays.  Used where pointwise errors of a few
    ulp would accumulate past an absolute tolerance after weighting by
    large factorial normalisations.
    """
    t_arr = np.asarray(t, dtype=float)
    zero = np.zeros_like(t_arr)
    ph, pl = np.ones_like(t_arr), zero.copy()
    if p == 0:
        return ph, pl
    ch, cl = dd_add(float(1 + d), 0.0, -t_arr, zero)
    for k in range(1, p):
        ah, al = dd_add(float(2 * k + d + 1), 0.0, -t_arr, zero)
        th, tl = dd_mul(ah, al, ch, cl)
        sh, sl = dd_add(th, tl, *dd_mul_scalar(ph, pl, -float(k + d)))
        nh, nl = dd_div_scalar(sh, sl, float(k + 1))
        ph, pl, ch, cl = ch, cl, nh, nl
    return ch, cl


def kummer_terminating(p: int, b: int, t):
    """Terminating confluent series 1F1(-p; b; t).

    Exactly ``p + 1`` terms are carried in double-double precision,
    term ratio and running sum alike; the alternating cancellation for
    large t therefore costs no double-precision digits.  ``b`` must be
    a positive integer so no denominator can vanish.  Accepts scalar
    or ndarray ``t``.
    """
    if p < 0:
        raise ValueError(f"kummer_terminating requires p >= 0, got {p}")
    if b < 1:
        raise ValueError(f"kummer_terminating requires integer b >= 1, got {b}")
    scalar = not np.ndim(t)
    t_arr = np.asarray(t, dtype=float)
    term_h = np.ones_like(t_arr)
    term_l = np.zeros_like(t_arr)
    sum_h, sum_l = term_h, term_l
    for k in range(p):
        # (k - p) and (b + k)(k + 1) are exact small integers
        term_h, term_l = dd_mul(term_h, term_l, t_arr, np.zeros_like(t_arr))
        term_h, term_l = dd_mul_scalar(term_h, term_l, float(k - p))
        term_h, term_l = dd_div_scalar(term_h, term_l, float((b + k) * (k + 1)))
        sum_h, sum_l = dd_add(sum_h, sum_l, term_h, term_l)
    out = sum_h + sum_l
    return float(out) if scalar else out


def gauss2f1_unit(p: int, q: int, c: float) -> float:
    """2F1(-p, -q; c; 1) for p, q >= 0 via the Chu-Vandermonde identity.

    The closed form is the Pochhammer ratio (c + q)_p / (c)_p.  ``c``
    must be positive so the denominator never hits a pole.
    """
    if p < 0 or q < 0:
        raise ValueError(f"gauss2f1_unit requires p, q >= 0, got p={p}, q={q}")
    if c <= 0:
        raise ValueError(f"gauss2f1_unit requires c > 0, got c={c}")
    value = 1.0
    for i in range(p):
        value *= (c + q + i) / (c + i)
    return value


def hyp2f1_terminating_unit(p: int, b: float, c: float) -> float:
    """2F1(-p, b; c; 1) summed directly over its p + 1 terms.

    Generalises :func:`gauss2f1_unit` to an arbitrary real second
    parameter; the nonpositive-integer first parameter is what makes the
    series terminate.
    """
    if p < 0:
        raise ValueError(f"hyp2f1_terminating_unit requires p >= 0, got {p}")
    if c <= 0:
        raise ValueError(f"hyp2f1_terminating_unit requires c > 0, got c={c}")

    def terms():
        term = 1.0
        yield term
        for i in range(p):
            term = term * (i - p) * (b + i) / ((c + i) * (i + 1))
            yield term

    return float(kahan_sum(terms()))
