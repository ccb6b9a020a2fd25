"""Scalar special functions used throughout the package.

Everything here is elementary and terminating: Laguerre polynomials
:math:`L_n`, the terminating confluent series

.. math::

    {}_1F_1(-p; b; t) = \\sum_{k=0}^{p} \\frac{(-p)_k}{(b)_k} \\frac{t^k}{k!},

the Gauss sum :math:`{}_2F_1(-p, -q; c; 1)` evaluated through the
Chu-Vandermonde identity, and correctly rounded factorials.  Every sum
and recurrence runs in a fixed, ascending order, so results are
bit-reproducible from run to run.  The confluent series carries its
terms and sum in double-double; :func:`kahan_sum` serves the psi
Gram's radial cross-check only; the Laguerre recurrence and the
Chu-Vandermonde product run in plain doubles.

Terminating sums always use exactly ``p + 1`` terms; there is no early
exit, which keeps evaluation deterministic and makes term-count
reasoning trivial.
"""

from __future__ import annotations

import math

import numpy as np

from ._ddouble import dd_add, dd_div_scalar, dd_mul_scalar

__all__ = [
    "factorial",
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
    """n! as a float, correctly rounded: one conversion of the exact integer.

    170! is the largest factorial a double holds; a larger n raises
    ``OverflowError`` before the integer is formed.
    """
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    if n > 170:
        raise OverflowError(f"factorial({n}) overflows a double")
    return float(math.factorial(n))


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
    for cur in _laguerre_climb(p, d, t):
        pass
    return cur if cur.ndim else float(cur)


def _laguerre_climb(p: int, d, t, active=None):
    """Yield L_0^(d)(t), ..., L_p^(d)(t), the iterates of one recurrence climb.

    Each iterate is an ndarray of the broadcast shape of ``d`` and
    ``t`` (0-d for scalars); :func:`generalized_laguerre` returns the
    last one.  The climb runs in three rotating buffers, so an iterate
    is overwritten two steps after it is yielded: callers copy what they
    keep.  For an array ``d``, ``active[k]`` (nonincreasing in k) may
    give how many leading rows of ``d`` iterate k must hold: rows past
    it leave the climb, so no step is spent on a parameter whose needed
    degree is passed.
    """
    if p < 0:
        raise ValueError(f"generalized_laguerre requires p >= 0, got {p}")
    if np.any(np.asarray(d) < 0) if np.ndim(d) else d < 0:
        raise ValueError(f"generalized_laguerre requires d >= 0, got {d}")
    t = np.asarray(t, dtype=float)
    shape = np.broadcast(d, t).shape
    cur = np.ones(shape)
    yield cur
    if p == 0:
        return
    prev, cur = cur, np.subtract(1.0 + d, t, out=np.empty(shape))
    yield cur
    nxt = np.empty(shape)
    for k in range(1, p):
        if active is not None and active[k + 1] < len(cur):
            rows = active[k + 1]
            d, prev, cur, nxt = d[:rows], prev[:rows], cur[:rows], nxt[:rows]
        # in place, in the recurrence's operation order, which fixes every bit
        np.subtract(2 * k + d + 1, t, out=nxt)
        nxt *= cur
        prev *= k + d
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
        yield cur


def kummer_terminating(p, b, t):
    """Terminating confluent series 1F1(-p; b; t).

    Exactly ``p + 1`` terms are carried in double-double precision,
    term ratio and running sum alike; the alternating cancellation for
    large t therefore costs no double-precision digits (in plain double
    the psi Gram's K = 24 radial gap goes from 4.37e-14 to 2.3e-11).
    ``b`` must be a positive integer so no denominator can vanish.
    Integer arrays ``p`` and ``b`` broadcast against each other and
    against ``t``, and every series is summed in one climb: entries run
    in order of descending degree, and an entry leaves the climb once
    its degree is reached.  Every step is elementwise, so each entry
    equals the scalar call bit for bit.  Accepts scalar or ndarray
    ``t``; the result is a float when all three are scalars.
    """
    p_arr = np.asarray(p)
    if p_arr.dtype.kind not in "iu":
        raise TypeError(f"kummer_terminating requires integer p, got {p!r}")
    if (p_arr < 0).any():
        raise ValueError(f"kummer_terminating requires p >= 0, got {p}")
    b_arr = np.asarray(b)
    if (b_arr < 1).any():
        raise ValueError(f"kummer_terminating requires integer b >= 1, got {b}")
    t_arr = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(p_arr.shape, b_arr.shape, t_arr.shape)
    degree = np.broadcast_to(p_arr, shape).ravel()
    # deepest entries first, so each step drops the finished ones from the end
    order = np.argsort(-degree, kind="stable")
    degree = degree[order]
    b_flat = np.broadcast_to(b_arr, shape).ravel()[order]
    t_flat = np.broadcast_to(t_arr, shape).ravel()[order]
    term_h, term_l = np.ones(degree.size), np.zeros(degree.size)
    sum_h, sum_l = term_h.copy(), term_l.copy()
    for k in range(int(degree.max(initial=0))):
        live = np.count_nonzero(degree > k)
        term_h, term_l = term_h[:live], term_l[:live]
        # (k - p) and (b + k)(k + 1) are exact small integers
        term_h, term_l = dd_mul_scalar(term_h, term_l, t_flat[:live])
        term_h, term_l = dd_mul_scalar(term_h, term_l, (k - degree[:live]).astype(float))
        term_h, term_l = dd_div_scalar(term_h, term_l, (b_flat[:live] + k) * float(k + 1))
        sum_h[:live], sum_l[:live] = dd_add(sum_h[:live], sum_l[:live], term_h, term_l)
    out = np.empty(degree.size)
    out[order] = sum_h + sum_l
    out = out.reshape(shape)
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
