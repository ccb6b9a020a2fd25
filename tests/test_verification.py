"""Verification suites: record integrity, coverage, and report determinism."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
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
    hermite_table,
    write_report,
)
from polycauchy.gaussian_quadrature import (
    DEFAULT_SINGULAR_ANGULAR,
    DEFAULT_SINGULAR_RADIAL,
    build_polar_grid,
    build_singular_grid,
)
from polycauchy.range_analysis import e_ell_indices, psi_gram
from polycauchy.verification import (
    CHECK_FAMILIES,
    RELATIVE,
    _exact_rank,
    _hermite_integer_coefficients,
    _kummer_exact,
    _Recorder,
    _worst_entry,
)

# sha256 of the "test_id,provenance,tolerance (.6g)" lines of run_suite("all")
PINNED_ID_TABLE = "c6f07db753c9a4bba3b43567a2f478a76f8bdac00b9bf150bd36f845b8d62cc9"


@pytest.fixture(scope="module")
def all_records():
    return run_suite("all")


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
        # the suite sums every b of one p in one call: NaN at b = 2, t = 1
        out = real(p, b, t)
        if p == 3:
            out = np.where((np.asarray(b) == 2) & (np.asarray(t) == 1.0), math.nan, out)
        return out

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


def test_every_record_resolves_to_one_family_row(all_records):
    used = set()
    for record in all_records:
        # ids are the family name or the name plus "-suffix"; where one
        # family name extends another (prop-sign-display-typo, gram-diagonal-pi)
        # the longer name is the record's family
        names = [
            name
            for name in CHECK_FAMILIES
            if record.test_id == name or record.test_id.startswith(name + "-")
        ]
        assert names, record.test_id
        name = max(names, key=len)
        row = CHECK_FAMILIES[name]
        tolerance = row.tolerance
        if row.model == RELATIVE:
            tolerance = row.tolerance * (1.0 + abs(record.rhs))
        assert record.tolerance == tolerance, record.test_id
        assert record.provenance == row.provenance, record.test_id
        used.add(name)
    assert used == set(CHECK_FAMILIES)


def test_ids_provenance_and_tolerances_are_pinned(all_records):
    text = "".join(
        f"{r.test_id},{r.provenance},{format(r.tolerance, '.6g')}\n" for r in all_records
    )
    assert len(all_records) == 1540
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ID_TABLE


def test_worst_entry_rule():
    nan = math.nan
    assert _worst_entry(np.array([1.0, 3.0, nan, 3.0, nan])) == 2
    assert _worst_entry(np.array([1.0, 3.0, 2.0, 3.0])) == 1
    assert _worst_entry(np.array([0.0, 0.0, 0.0])) == 0
    # a record keeps the first of tied entries
    rec = _Recorder(VerifyConfig())
    rec.add("kernel-hermitian", "tie", [1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    assert (rec.records[0].lhs, rec.records[0].rhs) == (1.0, 0.5)


def test_linearity_integrand_has_fixed_operand_order():
    # numpy may round scalar * array and array * scalar differently, so
    # the integrand multiplies with the array on the left, bit for bit
    a, b = verification._LINEARITY_WEIGHTS
    for z in verification._CAUCHY_POINTS:
        grid = build_singular_grid(z, DEFAULT_SINGULAR_RADIAL, DEFAULT_SINGULAR_ANGULAR)
        pts = grid.points
        fv, gv = verification._linearity_sources(hermite_table(5, range(6), pts))
        want = np.multiply(fv, a) + np.multiply(gv, b)
        assert verification._linearity_integrand(fv, gv).tobytes() == want.tobytes()


def test_linearity_sources_equal_per_index_evaluation():
    # f and g read from the per-centre table equal their hermite_eval
    # forms bit for bit, so the linearity records keep their bytes
    for z in verification._CAUCHY_POINTS:
        pts = build_singular_grid(z, DEFAULT_SINGULAR_RADIAL, DEFAULT_SINGULAR_ANGULAR).points
        f = hermite_eval(HermiteIndex(2, 1), pts) + 0.5j * hermite_eval(HermiteIndex(0, 3), pts)
        g = hermite_eval(HermiteIndex(1, 1), pts) - 1.25 * hermite_eval(HermiteIndex(3, 0), pts)
        fv, gv = verification._linearity_sources(hermite_table(5, range(6), pts))
        assert fv.tobytes() == f.tobytes()
        assert gv.tobytes() == g.tobytes()


def _kummer_fraction(p, b, t):
    """1F1(-p; b; t) summed in exact rational arithmetic."""
    total, term = Fraction(0), Fraction(1)
    for k in range(p + 1):
        total += term
        term *= Fraction(-(p - k)) * t / ((b + k) * (k + 1))
    return total


def test_integer_kummer_oracle_equals_rounded_fraction():
    # every value the kummer-rational records compare against
    t_values = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(9))
    count = 0
    for p in range(13):
        for b in range(1, 13):
            for t in t_values:
                assert _kummer_exact(p, b, t) == float(_kummer_fraction(p, b, t)), (p, b, t)
                count += 1
    assert count == 780


def test_offset_records_equal_union_gram_violation():
    records = {r.test_id: r for r in run_suite("gram")}
    grid = build_polar_grid()
    offsets = (-2, -1, 0, 1, 2)
    for i, ell in enumerate(offsets):
        for ell2 in offsets[i + 1 :]:
            union = e_ell_indices(ell, 4) + e_ell_indices(ell2, 4)
            want = psi_gram(union, grid=grid).max_violation
            assert records[f"offset-block-orthogonal-l{ell}-l{ell2}"].lhs == want
