"""Verification suites: record integrity, coverage, and report determinism."""

import json
import math

import pytest

import polycauchy.verification as verification
from polycauchy import (
    SUITE_NAMES,
    HermiteIndex,
    VerificationRecord,
    VerifyConfig,
    record_to_row,
    run_suite,
    hermite_eval,
    write_report,
)
from polycauchy.verification import _exact_rank, _hermite_integer_coefficients


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("hermite", "cauchy", "projection", "gram", "ranges")


def test_record_invariant_enforced():
    VerificationRecord(
        test_id="ok",
        lhs=1.0 + 0j,
        rhs=1.0 + 0j,
        abs_err=0.0,
        tolerance=1e-12,
        passed=True,
        provenance="closed-form",
    )
    with pytest.raises(ValueError):
        VerificationRecord(
            test_id="bad-verdict",
            lhs=1.0 + 0j,
            rhs=0j,
            abs_err=1.0,
            tolerance=1e-12,
            passed=True,
            provenance="closed-form",
        )
    with pytest.raises(ValueError):
        VerificationRecord(
            test_id="bad-provenance",
            lhs=0j,
            rhs=0j,
            abs_err=0.0,
            tolerance=1e-12,
            passed=True,
            provenance="guesswork",
        )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("fourier")


def test_hermite_suite_coverage():
    records = run_suite("hermite")
    assert len(records) >= 200
    assert all(r.passed for r in records)
    ids = [r.test_id for r in records]
    assert len(ids) == len(set(ids))


def test_projection_suite_carries_sign_anchor():
    records = run_suite("projection")
    assert all(r.passed for r in records)
    by_id = {r.test_id: r for r in records}
    anchor = by_id["prop-sign-n0j1k0"]
    assert anchor.rhs == -0.5 + 0j
    assert abs(anchor.lhs - (-0.5)) < 1e-8
    # the flipped-sign variant of the coefficient must sit far from the oracle
    typo = by_id["prop-sign-display-typo-n0j1k0"]
    assert typo.passed
    assert abs(typo.lhs - 1.0) < 1e-6


def test_tolerance_override_forces_failures():
    records = run_suite("gram", VerifyConfig(tolerance=1e-15))
    assert any(not r.passed for r in records)
    assert all(r.tolerance == 1e-15 for r in records)


def test_every_suite_passes_at_default_config():
    for suite in ("cauchy", "gram", "ranges"):
        records = run_suite(suite)
        assert records
        assert all(r.passed for r in records), suite


def test_nan_gap_fails_its_record(monkeypatch):
    real = verification.kummer_terminating

    def poisoned(p, b, t):
        return math.nan if (p, b, t) == (3, 2, 1.0) else real(p, b, t)

    monkeypatch.setattr(verification, "kummer_terminating", poisoned)
    records = {r.test_id: r for r in run_suite("hermite")}
    record = records["kummer-rational-p3-b2"]
    assert not record.passed
    assert math.isnan(record.abs_err)


def test_report_rows_round_trip():
    records = run_suite("ranges")
    row = record_to_row(records[0])
    assert list(row.keys()) == [
        "test_id",
        "lhs",
        "rhs",
        "abs_err",
        "tolerance",
        "pass",
        "provenance",
    ]
    assert row["pass"] is True


def test_report_bytes_deterministic(tmp_path):
    records = run_suite("ranges")
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    csv_a = write_report(records, str(path_a))
    csv_b = write_report(run_suite("ranges"), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(csv_a, "rb") as fa, open(csv_b, "rb") as fb:
        assert fa.read() == fb.read()
    assert csv_a.endswith(".csv")
    for line in path_a.read_text().splitlines():
        parsed = json.loads(line)
        assert parsed["pass"] is True


def test_hermite_integer_coefficients_match_evaluation():
    # the exact table behind the polyanalytic-order oracle is H_{m,n} itself
    table = _hermite_integer_coefficients(6)
    z = 0.7 - 1.3j
    for (m, n), poly in table.items():
        value = sum(c * z**a * z.conjugate() ** b for (a, b), c in poly.items())
        want = hermite_eval(HermiteIndex(m, n), z)
        assert abs(value - want) <= 1e-12 * (1.0 + abs(want))
        assert max(b for _, b in poly) == n


def test_exact_rank_sees_dependent_sets():
    table = _hermite_integer_coefficients(5)
    level = [table[k, 3] for k in range(5)]
    assert _exact_rank(level) == 5
    assert _exact_rank(level + [table[2, 3]]) == 5  # a duplicated index adds nothing
    assert _exact_rank(level[:3] + [{(0, 0): 0}]) == 3  # nor does the zero polynomial
    # nor does an integer combination of the others
    combo = dict(table[1, 3])
    for key, c in table[4, 3].items():
        combo[key] = combo.get(key, 0) - 2 * c
    assert _exact_rank(level + [combo]) == 5
    assert _exact_rank([table[1, 3], table[4, 3], combo, table[0, 0]]) == 3
    assert _exact_rank([]) == 0


def test_rtilde_dimension_records_use_the_rank_oracle(monkeypatch):
    records = {r.test_id: r for r in run_suite("ranges")}
    assert records["rtilde-dimension-n3-l2"].lhs == 5
    assert records["rtilde-dimension-n0-l0"].lhs == 0
    # a basis list with a repeated index no longer passes on its length
    real = verification.range_basis_indices

    def repeated(spec, count=8):
        out = real(spec, count)
        return out[:1] * len(out)

    monkeypatch.setattr(verification, "range_basis_indices", repeated)
    records = {r.test_id: r for r in run_suite("ranges")}
    assert not records["rtilde-dimension-n3-l2"].passed
    assert records["rtilde-dimension-n1-l0"].passed
