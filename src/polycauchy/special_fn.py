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
    _check_laguerre_args(p, d)
    # one climb in the buffers it starts with, rotating prev, cur and a
    # scratch; every step is _laguerre_climb's, bit for bit
    t = np.asarray(t, dtype=float)
    shape = np.broadcast(d, t).shape
    cur = np.ones(shape)
    if p > 0:
        prev, cur = cur, np.subtract(1.0 + d, t, out=np.empty(shape))
        nxt = np.empty(shape)
        for k in range(1, p):
            np.subtract(2 * k + d + 1, t, out=nxt)
            nxt *= cur
            prev *= k + d
            nxt -= prev
            nxt /= k + 1
            prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


def _check_laguerre_args(p: int, d) -> None:
    if p < 0:
        raise ValueError(f"generalized_laguerre requires p >= 0, got {p}")
    if np.any(np.asarray(d) < 0) if np.ndim(d) else d < 0:
        raise ValueError(f"generalized_laguerre requires d >= 0, got {d}")


def _laguerre_climb(p: int, d, t, active=None):
    """Yield L_0^(d)(t), ..., L_p^(d)(t), the iterates of one recurrence climb.

    Iterate k equals ``generalized_laguerre(k, d, t)`` bit for bit (that
    function returns the climb's last iterate), as an ndarray or numpy
    scalar of the broadcast shape of ``d`` and ``t``.  For an array
    ``d``, ``active[k]`` (nonincreasing in k) may give how many leading
    rows of ``d`` iterate k must hold: rows past it leave the climb, so
    no step is spent on a parameter whose needed degree is passed.
    """
    _check_laguerre_args(p, d)
    t_arr = np.asarray(t, dtype=float)
    prev = np.ones(np.broadcast_shapes(np.shape(d), t_arr.shape))
    yield prev
    if p == 0:
        return
    cur = (1.0 + d) - t_arr
    yield cur
    for k in range(1, p):
        if active is not None:
            d, cur, prev = d[: active[k + 1]], cur[: active[k + 1]], prev[: active[k + 1]]
        # a fresh array per iterate (callers keep earlier ones), updated
        # in place to spare temporaries, in the recurrence's operation
        # order so every bit is kept
        nxt = (2 * k + d + 1) - t_arr
        nxt *= cur
        nxt -= (k + d) * prev
        nxt /= k + 1
        prev, cur = cur, nxt
        yield cur


def _generalized_laguerre_dd(p, d, t):
    """L_{p_i}^(d_i)(t) in double-double for each row i, t an exact 1-D double array.

    ``p`` and ``d`` are integer sequences, one (degree, parameter) pair
    per row.  Returns (hi, lo), each of shape (len(p), t.size).  Used
    where pointwise errors of a few ulp would accumulate past an
    absolute tolerance after weighting by large factorial
    normalisations.

    One recurrence climb serves every row.  Rows run in order of
    descending degree, so a row whose degree is reached drops off the
    end of the active block and keeps its last iterate.  Every step is
    elementwise with exact small-integer coefficients, so each row
    equals its own one-row climb bit for bit.
    """
    p = np.asarray(p, dtype=int)
    t = np.asarray(t, dtype=float)
    order = np.argsort(-p, kind="stable")
    d = np.asarray(d, dtype=float)[order, None]
    live = np.count_nonzero(p >= 1)
    hi, lo = np.ones((p.size, t.size)), np.zeros((p.size, t.size))
    zero = np.zeros_like(t)
    ph, pl = hi[:live].copy(), lo[:live].copy()
    ch, cl = dd_add(1.0 + d[:live], 0.0, -t, zero)
    for k in range(1, int(p.max(initial=0))):
        # rows of degree k leave the climb with L_k
        keep = np.count_nonzero(p > k)
        hi[keep:live], lo[keep:live] = ch[keep:], cl[keep:]
        live = keep
        d, ph, pl, ch, cl = d[:live], ph[:live], pl[:live], ch[:live], cl[:live]
        ah, al = dd_add((2 * k + 1) + d, 0.0, -t, zero)
        th, tl = dd_mul(ah, al, ch, cl)
        sh, sl = dd_add(th, tl, *dd_mul_scalar(ph, pl, -(k + d)))
        nh, nl = dd_div_scalar(sh, sl, float(k + 1))
        ph, pl, ch, cl = ch, cl, nh, nl
    hi[:live], lo[:live] = ch, cl
    out_hi, out_lo = np.empty_like(hi), np.empty_like(lo)
    out_hi[order], out_lo[order] = hi, lo
    return out_hi, out_lo


def kummer_terminating(p: int, b, t):
    """Terminating confluent series 1F1(-p; b; t).

    Exactly ``p + 1`` terms are carried in double-double precision,
    term ratio and running sum alike; the alternating cancellation for
    large t therefore costs no double-precision digits.  ``b`` must be
    a positive integer so no denominator can vanish; an integer array
    ``b`` broadcasts against ``t`` and sums every series at once, each
    entry equal to the scalar-``b`` call bit for bit.  Accepts scalar
    or ndarray ``t``; the result is a float when both are scalars.
    """
    if p < 0:
        raise ValueError(f"kummer_terminating requires p >= 0, got {p}")
    b_arr = np.asarray(b)
    if (b_arr < 1).any():
        raise ValueError(f"kummer_terminating requires integer b >= 1, got {b}")
    # a scalar b stays a Python int, so its step divisors are Python floats
    b_num = b_arr if b_arr.ndim else int(b_arr)
    t_arr = np.asarray(t, dtype=float)
    zero = np.zeros_like(t_arr)
    term_h = np.ones(np.broadcast(b_arr, t_arr).shape)
    term_l = np.zeros_like(term_h)
    sum_h, sum_l = term_h, term_l
    for k in range(p):
        # (k - p) and (b + k)(k + 1) are exact small integers
        term_h, term_l = dd_mul(term_h, term_l, t_arr, zero)
        term_h, term_l = dd_mul_scalar(term_h, term_l, float(k - p))
        term_h, term_l = dd_div_scalar(term_h, term_l, (b_num + k) * float(k + 1))
        sum_h, sum_l = dd_add(sum_h, sum_l, term_h, term_l)
    out = sum_h + sum_l
    return out if out.ndim else float(out)


def gauss2f1_unit(p: int, q: int, c: float) -> float:
    """2F1(-p, -q; c; 1) for p >= 0, q >= -1 via the Chu-Vandermonde identity.

    The closed form is the Pochhammer ratio (c + q)_p / (c)_p; at
    q = -1 it is 2F1(-p, 1; c; 1) = (c - 1)_p / (c)_p, which the
    identity still gives since the series terminates through -p.
    ``c`` must be positive so the denominator never hits a pole.
    """
    if p < 0 or q < -1:
        raise ValueError(f"gauss2f1_unit requires p >= 0, q >= -1, got p={p}, q={q}")
    if c <= 0:
        raise ValueError(f"gauss2f1_unit requires c > 0, got c={c}")
    value = 1.0
    for i in range(p):
        value *= (c + q + i) / (c + i)
    return value
