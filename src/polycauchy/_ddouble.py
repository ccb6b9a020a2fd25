"""Error-free transformations and double-double helpers.

A double-double value is an unevaluated pair (hi, lo) with
|lo| <= ulp(hi)/2, giving roughly 32 significant decimal digits.  The
primitives below follow the classical Dekker/Knuth constructions and
work elementwise on floats and numpy arrays alike (no FMA assumed).

Used only where a measured number needs it, stated at each site: the
Laguerre recurrence behind the Gauss-Laguerre nodes and weights (the
Newton correction itself is one plain double division), and the
confluent series of the psi Gram's radial cross-check, whose Kahan sum
is the library's only compensated sum.  :func:`dd_weighted_sum` serves
the per-pair separable rule, the quadrature side of ``verify``'s
``membership-refined`` records.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter for 53-bit doubles


def two_sum(a, b):
    """s, e with s = fl(a + b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """two_sum under the assumption |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """p, e with p = fl(a * b) and a * b = p + e exactly."""
    p = a * b
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    bh = _SPLIT * b - (_SPLIT * b - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(xh, xl, yh, yl):
    sh, sl = two_sum(xh, yh)
    th, tl = two_sum(xl, yl)
    sl = sl + th
    sh, sl = quick_two_sum(sh, sl)
    sl = sl + tl
    return quick_two_sum(sh, sl)


def dd_mul(xh, xl, yh, yl):
    ph, pl = two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return quick_two_sum(ph, pl)


def dd_mul_scalar(xh, xl, c):
    """Multiply a dd by a plain double c."""
    ph, pl = two_prod(xh, c)
    pl = pl + xl * c
    return quick_two_sum(ph, pl)


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    ph, pl = dd_mul(yh, yl, q1, 0.0)
    rh, rl = dd_add(xh, xl, -ph, -pl)
    q2 = (rh + rl) / yh
    return quick_two_sum(q1, q2)


def dd_div_scalar(xh, xl, c):
    q1 = xh / c
    ph, pl = two_prod(q1, c)
    rh = xh - ph
    rl = xl - pl
    q2 = (rh + rl) / c
    return quick_two_sum(q1, q2)


def dd_weighted_sum(hi, lo, w) -> float:
    """Compensated sum of w[i] * (hi[i] + lo[i]) in ascending i.

    ``hi``, ``lo`` and ``w`` are 1-D of one length.  Each product is
    formed with an error-free transformation and the running total kept
    in double-double, so the result is correct to a final rounding even
    when the terms span many orders of magnitude.
    """
    hi, lo, w = (np.asarray(v, dtype=float).tolist() for v in (hi, lo, w))
    th = tl = 0.0
    for hi_i, lo_i, wi in zip(hi, lo, w, strict=True):
        ph, pl = two_prod(hi_i, wi)
        pl = pl + lo_i * wi
        th, tl = dd_add(th, tl, ph, pl)
    return th + tl
