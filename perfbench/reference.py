"""A fixed reference kernel, timed next to every measured unit of work.

The host this benchmark was built on changes speed by up to 2x over
seconds to minutes (see NOTES.md), far more than the bounds a timing
can be held to.  A slowdown of the host slows this kernel and the
library alike, so a unit's time divided by the kernel's time around
it stays steady where the raw time does not.  The kernel mixes what
the library spends its time on: interpreted Python, numpy calls on
small arrays, and numpy on large arrays.  It calls no polycauchy code,
so no change to the library moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's median time right after set-up on the host this was
# built on.  Set-up times are reported scaled by this over the kernel
# time measured in the same process, i.e. in seconds on that host.
NOMINAL_REFERENCE_S = 0.025

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(-3.0, 3.0, 1 << 16) * (1.0 + 0.5j)


def reference_s() -> float:
    """Wall time of one run of the kernel, about 35 ms on the host it was built on."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = _SMALL
    for _ in range(4_000):
        a = np.sqrt(a * a + 0.5) - 0.1
    for _ in range(4):
        np.exp(-(_LARGE * _LARGE.conjugate()).real) * _LARGE
    return perf_counter() - start


class Stopwatch:
    """Times units of a pass in seconds and in reference-kernel units.

    Each unit's cost is its time over the mean of the kernel times just
    before and just after it.  The kernel time is not part of any
    unit's seconds.
    """

    def __init__(self) -> None:
        self._before = reference_s()
        self.seconds = 0.0
        self.cost = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        after = reference_s()
        self.seconds += elapsed
        self.cost += elapsed / (0.5 * (self._before + after))
        self._before = after
        return result, elapsed
