"""End-to-end acceptance checks at their stated tolerances and budgets.

Each criterion prints exactly one line, criterion k (label): PASS/FAIL
with the measured quantity, then asserts.  Run with output enabled
(pytest -rA shows the lines for passing tests too).
"""

import math
import time

import numpy as np

from polycauchy import (
    CoefficientSequence,
    HermiteIndex,
    VARIANT_R,
    VARIANT_R_TILDE,
    RangeBasisSpec,
    build_polar_grid,
    build_singular_grid,
    cauchy_hermite_closed,
    cauchy_singular_quadrature,
    hermite_eval,
    hermite_radial_profile,
    kernel_closed,
    kernel_series,
    KernelSpec,
    pn_cauchy_on_coeffs,
    project_numeric,
    projection_coefficient_closed,
    psi_gram,
    range_basis_indices,
    run_suite,
    truncated_operator_svd,
    write_report,
)
from polycauchy.ito_hermite import _separable_gram

CAUCHY_POINTS = (0.5 + 0j, 1.0 + 1.0j, -2.0 + 0j, 0.3 - 1.7j, 3.0j)
KERNEL_POINTS = (0j, 0.7 + 0j, -1.2 + 0.5j, 1.9j, -0.3 - 1.1j)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({label}): {verdict} {detail}"
    print(line)
    assert ok, line


def test_criterion_1_orthonormality():
    start = time.perf_counter()
    indices = [HermiteIndex(m, n) for m in range(7) for n in range(7)]
    grid = build_polar_grid()
    g = _separable_gram(*hermite_radial_profile(indices, grid.radial_t), grid)
    want = np.zeros_like(g)
    for i, idx in enumerate(indices):
        want[i, i] = math.pi * math.factorial(idx.m) * math.factorial(idx.n)
    worst = float(np.max(np.abs(g - want)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "basis orthonormality",
        worst < 1e-9 and elapsed < 10.0,
        f"max |G - pi m! n! delta| = {worst:.3e} (tol 1e-09), {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_closed_vs_singular_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for z in CAUCHY_POINTS:
        grid = build_singular_grid(z)
        for m in range(6):
            for n in range(6):
                idx = HermiteIndex(m, n)
                closed = cauchy_hermite_closed(idx, z)
                numeric = cauchy_singular_quadrature(
                    lambda pts, i=idx: hermite_eval(i, pts), z, grid
                )
                worst = max(worst, abs(numeric - closed) / (1.0 + abs(closed)))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "transform closed form vs quadrature",
        worst < 1e-6 and elapsed < 60.0,
        f"max scaled gap {worst:.3e} (tol 1e-06), {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_3_projection_coefficient_formula():
    start = time.perf_counter()
    worst = 0.0
    for n in range(5):
        for j in range(5):
            for k in range(5):
                coefficient, target = projection_coefficient_closed(n, j, k)
                psi = lambda pts, i=HermiteIndex(j, k): cauchy_hermite_closed(i, pts)
                upto = 1 if target is None else max(1, target.m + 1)
                coeffs = np.asarray(project_numeric(psi, n, upto).coeffs)
                oracle = (
                    complex(coeffs[np.argmax(np.abs(coeffs))])
                    if target is None
                    else complex(coeffs[target.m])
                )
                worst = max(worst, abs(oracle - coefficient))
    # flipping the sign parity must break the anchor case badly
    coefficient, _ = projection_coefficient_closed(0, 1, 0)
    flipped = -coefficient
    oracle = complex(
        project_numeric(
            lambda pts: cauchy_hermite_closed(HermiteIndex(1, 0), pts), 0, 1
        ).coeffs[0]
    )
    sign_gap = abs(flipped - oracle)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "projection coefficient closed form",
        worst < 1e-8 and sign_gap > 1e-2 and elapsed < 60.0,
        f"max |closed - quadrature| = {worst:.3e} (tol 1e-08), "
        f"flipped-sign gap {sign_gap:.3f} (> 1e-02), {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_4_kernel_series_vs_closed():
    start = time.perf_counter()
    worst = 0.0
    for n in range(5):
        spec = KernelSpec(n=n, truncation=60)
        for z in KERNEL_POINTS:
            for w in KERNEL_POINTS:
                gap = abs(kernel_series(spec, z, w) - kernel_closed(n, z, w))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        4,
        "kernel series vs closed form",
        worst < 1e-8 and elapsed < 5.0,
        f"max gap {worst:.3e} (tol 1e-08), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_complement_dimensions_and_support():
    start = time.perf_counter()
    dims_ok = True
    for n in range(11):
        for ell in range(11 - n):
            if n + ell == 0:
                continue
            got = range_basis_indices(RangeBasisSpec(VARIANT_R_TILDE, ell, n))
            dims_ok = dims_ok and len(got) == n + ell
    empty_ok = range_basis_indices(RangeBasisSpec(VARIANT_R_TILDE, 0, 0)) == []

    rng = np.random.default_rng(20260816)
    support_ok = True
    for _ in range(50):
        ell = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        length = int(rng.integers(1, 6))
        coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(length, 2)))
        out = pn_cauchy_on_coeffs(CoefficientSequence(n=ell, coeffs=coeffs), n)
        allowed = set(
            range_basis_indices(
                RangeBasisSpec(VARIANT_R, ell, n), count=n + length + 2
            )
        )
        for m, alpha in enumerate(out.coeffs):
            if alpha != 0 and HermiteIndex(m, n) not in allowed:
                support_ok = False
    elapsed = time.perf_counter() - start
    _report(
        5,
        "complement dimensions and image support",
        dims_ok and empty_ok and support_ok and elapsed < 5.0,
        f"dims n+ell {'ok' if dims_ok else 'WRONG'}, trivial case "
        f"{'ok' if empty_ok else 'WRONG'}, 50 random images "
        f"{'contained' if support_ok else 'ESCAPED'}, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_6_gram_selection_rule():
    start = time.perf_counter()
    indices = [HermiteIndex(m, n) for m in range(6) for n in range(6)]
    report = psi_gram(indices)
    diagonal = dict(zip(report.indices, np.diagonal(report.values)))
    d10 = diagonal[HermiteIndex(1, 0)]
    d11 = diagonal[HermiteIndex(1, 1)]
    anchors = max(
        abs(d10 - math.pi / 3.0) / (math.pi / 3.0),
        abs(d11 - math.pi / 9.0) / (math.pi / 9.0),
    )
    ok = (
        report.passed
        and report.max_violation < 1e-9
        and report.radial_check_max_rel < 1e-8
        and anchors < 1e-8
    )
    elapsed = time.perf_counter() - start
    _report(
        6,
        "transform-image Gram selection rule",
        ok and elapsed < 120.0,
        f"max off-pattern {report.max_violation:.3e} (tol 1e-09), radial cross-check "
        f"{report.radial_check_max_rel:.3e}, diagonal anchors {anchors:.3e} (tol 1e-08), "
        f"{elapsed:.2f}s (budget 120s)",
    )


def test_criterion_7_truncated_spectrum():
    start = time.perf_counter()
    values = truncated_operator_svd(8)
    finite = all(math.isfinite(s) for s in values)
    ordered = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    tail = values[-1] < values[len(values) // 2]
    elapsed = time.perf_counter() - start
    _report(
        7,
        "truncated operator singular values",
        finite and ordered and tail and elapsed < 30.0,
        f"{len(values)} values, finite={finite}, descending={ordered}, "
        f"tail decreasing={tail}, largest {values[0]:.6f}, {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_8_verification_determinism(tmp_path):
    start = time.perf_counter()
    first_jsonl = tmp_path / "first.jsonl"
    second_jsonl = tmp_path / "second.jsonl"
    first_csv = write_report(run_suite("all"), str(first_jsonl))
    second_csv = write_report(run_suite("all"), str(second_jsonl))
    same_jsonl = first_jsonl.read_bytes() == second_jsonl.read_bytes()
    with open(first_csv, "rb") as fa, open(second_csv, "rb") as fb:
        same_csv = fa.read() == fb.read()
    elapsed = time.perf_counter() - start
    _report(
        8,
        "repeated verification byte-identical",
        same_jsonl and same_csv,
        f"jsonl {'identical' if same_jsonl else 'DIFFERS'}, csv "
        f"{'identical' if same_csv else 'DIFFERS'}, {elapsed:.2f}s",
    )
