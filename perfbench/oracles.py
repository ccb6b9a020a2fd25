"""Independent references the workloads are checked against.

``psi_reference`` evaluates the closed image psi_{m,n} = -e^{-|z|^2}
H_{m-1,n} in mpmath at 30 digits.  It uses the explicit double sum

    H_{a,b}(z, zbar) = sum_k (-1)^k k! C(a,k) C(b,k) z^{a-k} zbar^{b-k}

and, for m = 0, H_{-1,n} = -zbar^{n+1} 1F1(1; n+2; |z|^2) / (n+1).
Neither shares code or arithmetic with the library's Laguerre
recurrence, its series/closed split for the extension, or its
two-index recurrence (which drifts to 1e-10 at the high indices).

``closed_operator_singular_values`` builds the truncated operator from
the closed projection coefficients and hands it to LAPACK, where the
library assembles it by quadrature and runs its own Jacobi sweep.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_DIGITS = 30


def _hermite_coefficients(a: int, b: int) -> list[int]:
    return [
        (-1) ** k * math.factorial(k) * math.comb(a, k) * math.comb(b, k)
        for k in range(min(a, b) + 1)
    ]


def psi_reference(m: int, n: int, points) -> np.ndarray:
    """psi_{m,n} at each point, rounded to complex doubles."""
    out = np.empty(len(points), dtype=complex)
    coeffs = _hermite_coefficients(m - 1, n) if m >= 1 else None
    with mpmath.workdps(_DIGITS):
        for i, p in enumerate(points):
            z = mpmath.mpc(p.real, p.imag)
            zbar = mpmath.conj(z)
            t = (z * zbar).real
            if m == 0:
                h = -(zbar ** (n + 1)) * mpmath.hyp1f1(1, n + 2, t) / (n + 1)
            else:
                h = mpmath.mpc(0)
                for k, c in enumerate(coeffs):
                    h += c * z ** (m - 1 - k) * zbar ** (n - k)
            out[i] = complex(-mpmath.exp(-t) * h)
    return out


def operator_basis(max_total_degree: int) -> list[tuple[int, int]]:
    """Basis {(m, n): m + n <= D} ordered by (m + n, m), as the library orders it."""
    return sorted(
        ((m, n) for m in range(max_total_degree + 1) for n in range(max_total_degree + 1 - m)),
        key=lambda i: (i[0] + i[1], i[0]),
    )


def closed_operator_matrix(max_total_degree: int, projection_coefficient_closed) -> np.ndarray:
    """<C H_{j,k}, H_{m,n}> / (pi sqrt(m! n! j! k!)) from closed coefficients.

    The inner product is pi m! n! * coefficient(n, j, k) on the
    selection pattern m = n + j - k - 1 and zero elsewhere, so each
    entry is sqrt(m! n! / (j! k!)) * coefficient.
    """
    basis = operator_basis(max_total_degree)
    matrix = np.zeros((len(basis), len(basis)))
    f = math.factorial
    for r, (m, n) in enumerate(basis):
        for s, (j, k) in enumerate(basis):
            coefficient, target = projection_coefficient_closed(n, j, k)
            if target is not None and target.m == m:
                matrix[r, s] = math.sqrt(f(m) * f(n) / (f(j) * f(k))) * coefficient
    return matrix


def closed_operator_singular_values(max_total_degree: int, projection_coefficient_closed) -> np.ndarray:
    """Singular values of the closed operator matrix, descending."""
    matrix = closed_operator_matrix(max_total_degree, projection_coefficient_closed)
    return np.linalg.svd(matrix, compute_uv=False)
