"""Verification suites: record integrity, coverage, and report determinism."""

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

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
from polycauchy.range_analysis import (
    VARIANT_R_TILDE,
    RangeBasisSpec,
    e_ell_indices,
    psi_gram,
    range_basis_indices,
)
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


def test_verify_config_rejects_bad_settings():
    # library callers of run_suite(suite, config) meet these checks directly
    for kwargs in ({"nr": 0}, {"nr": -1}, {"ntheta": 0}):
        with pytest.raises(ValueError, match=">= 1"):
            VerifyConfig(**kwargs)
    for tolerance in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite tolerance >= 0"):
            VerifyConfig(tolerance=tolerance)
    assert VerifyConfig(tolerance=0.0).tolerance == 0.0


def test_every_suite_passes_at_default_config():
    for suite in ("cauchy", "gram", "ranges"):
        records = run_suite(suite)
        assert records
        assert all(r.passed for r in records), suite


def test_nan_gap_fails_its_record(monkeypatch):
    real = verification.kummer_terminating

    def poisoned(p, b, t):
        # the suite sums every (p, b, t) in one call: NaN at p = 3, b = 2, t = 1
        out = real(p, b, t)
        mask = (np.asarray(p) == 3) & (np.asarray(b) == 2) & (np.asarray(t) == 1.0)
        return np.where(mask, math.nan, out)

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


def _number_repr(value):
    """repr of a number, numpy floats printed as the float they are."""
    return float.__repr__(value) if isinstance(value, float) else repr(value)


def _per_record_report(records):
    """The JSONL and CSV texts formatted record by record through record_to_row."""
    lines = "".join(json.dumps(record_to_row(r)) + "\n" for r in records)
    summary = io.StringIO()
    writer = csv.writer(summary, lineterminator="\n")
    writer.writerow(["test_id", "lhs", "rhs", "abs_err", "tolerance", "pass", "provenance"])
    for r in records:
        row = record_to_row(r)
        writer.writerow(
            [
                row["test_id"],
                json.dumps(row["lhs"]),
                json.dumps(row["rhs"]),
                _number_repr(r.abs_err),
                _number_repr(r.tolerance),
                "true" if r.passed else "false",
                r.provenance,
            ]
        )
    return lines, summary.getvalue()


def _hand_built_records():
    nan, inf = math.nan, math.inf
    cases = (
        ("nan-gap", complex(nan, 0.0), 1 + 0j, nan, 1e-12, False),
        ("inf-gap", complex(inf, -inf), 0j, inf, 1e-6, False),
        ("minus-inf-gap", 2 + 0j, complex(nan, 1.5), -inf, 0.0, True),
        ("negative-zeros", complex(-0.0, -0.0), complex(1.25, -0.0), 0.0, 0.0, True),
        ("negative-zero-parts", complex(-0.0, 3.0), complex(-2.0, -0.0), 5.0, 1.0, False),
        ('comma, and "quote"', 1e-300 + 1e300j, -5e-324 + 0j, 1e300, 1e-300, False),
        ("non-ascii-é–id", 0.1 + 0.2j, 0.30000000000000004 + 0j, 0, 0, True),
        # numpy floats print as floats in both files
        ("numpy-floats", 1 + 0j, 1.001 + 0j, np.float64(0.001), np.float64(0.002), True),
        ("numpy-nan", 0j, 0j, np.float64(math.nan), np.float64(inf), False),
    )
    return [
        VerificationRecord(tid, lhs, rhs, err, tol, passed, "closed-form")
        for tid, lhs, rhs, err, tol, passed in cases
    ]


def test_write_report_equals_the_per_record_formatting(all_records, tmp_path):
    records = list(all_records) + _hand_built_records()
    assert len(all_records) == 1540
    path = tmp_path / "report.jsonl"
    csv_path = write_report(records, str(path))
    lines, summary = _per_record_report(records)
    assert path.read_bytes() == lines.encode("utf-8")
    assert Path(csv_path).read_bytes() == summary.encode("utf-8")


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


def _fraction_rank(polys):
    """Rank by Gaussian elimination in Fractions, the integer rank's oracle."""
    rows = [{key: Fraction(c) for key, c in poly.items() if c} for poly in polys]
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        key, lead = next(iter(pivot.items()))
        for row in rows:
            factor = row.get(key, 0) / lead
            if factor:
                for k, c in pivot.items():
                    row[k] = row.get(k, 0) - factor * c
                    if not row[k]:
                        del row[k]
    return rank


def _random_row_sets(seed, count):
    """Integer row sets with zero rows, duplicates and dependent rows."""
    rng = np.random.default_rng(seed)
    keys = [(a, b) for a in range(4) for b in range(4)]
    for _ in range(count):
        width = int(rng.integers(1, len(keys) + 1))
        picked = [keys[i] for i in rng.choice(len(keys), size=width, replace=False)]
        rows = []
        for _ in range(int(rng.integers(0, 9))):
            values = rng.integers(-4, 5, size=width) * (rng.random(width) < 0.6)
            rows.append({k: int(v) for k, v in zip(picked, values)})
        if rows:
            rows.append(dict(rows[int(rng.integers(len(rows)))]))
            rows.append({k: 0 for k in picked})
            a, b = (rows[int(i)] for i in rng.integers(len(rows), size=2))
            x, y = (int(v) for v in rng.integers(-3, 4, size=2))
            rows.append({k: x * a.get(k, 0) + y * b.get(k, 0) for k in set(a) | set(b)})
        order = rng.permutation(len(rows))
        yield [rows[i] for i in order]


def test_integer_rank_equals_the_fraction_elimination():
    for rows in _random_row_sets(20261019, 300):
        assert _exact_rank(rows) == _fraction_rank(rows), rows
    # every rtilde-dimension basis of the ranges suite
    table = _hermite_integer_coefficients(10)
    specs = [(n, ell) for n in range(11) for ell in range(11) if 0 < n + ell <= 10]
    for n, ell in specs + [(0, 0)]:
        spec = RangeBasisSpec(VARIANT_R_TILDE, ell, n)
        polys = [table[i.m, i.n] for i in range_basis_indices(spec)]
        assert _exact_rank(polys) == _fraction_rank(polys) == n + ell, (n, ell)


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


def test_radial_moments_measure_the_quadrature(all_records):
    # the rule is exact for t^k up to its top degree, so each gap is the
    # quadrature's own rounding, not that of the k! / beta^(k+1) it is
    # checked against
    worst = max(
        r.abs_err / r.tolerance for r in all_records if r.test_id.startswith("radial-moment-")
    )
    assert worst <= 2e-3


def test_worst_entry_rule():
    nan = math.nan
    assert _worst_entry(np.array([1.0, 3.0, nan, 3.0, nan])) == 2
    assert _worst_entry(np.array([1.0, 3.0, 2.0, 3.0])) == 1
    assert _worst_entry(np.array([0.0, 0.0, 0.0])) == 0
    # a record keeps the first of tied entries
    rec = _Recorder(VerifyConfig())
    rec.add("kernel-hermitian", "tie", [1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    assert (rec.records[0].lhs, rec.records[0].rhs) == (1.0, 0.5)


def _judged_one_by_one(cfg, family, suffixes, lhs, rhs, terms=()):
    """The records of K one-record calls, row i of each stacked side in call i."""
    rec = _Recorder(cfg)
    for i, suffix in enumerate(suffixes):
        rec.add(family, suffix, lhs[i], rhs[i], tuple(term[i] for term in terms))
    return rec.records


def _judged_as_stack(cfg, family, suffixes, lhs, rhs, terms=()):
    rec = _Recorder(cfg)
    rec.add(family, suffixes, lhs, rhs, terms)
    return rec.records


def test_stacked_records_equal_one_record_calls():
    nan = math.nan
    rng = np.random.default_rng(20261020)
    noise = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    # gap rows: the first NaN, the first of tied maxima (3 then -3), all
    # zero, and a generic row
    lhs = np.array(
        [
            [1.0, 3.0, nan, 3.0, nan],
            [1.0, 3.0, 2.0, -3.0, 0.0],
            [0.0] * 5,
            noise[3],
        ],
        dtype=complex,
    )
    rhs = np.zeros_like(lhs)
    rhs[3] = noise[2]
    rhs[1, 3] = -6.0  # a tie of gaps 3 at entries 1 and 3
    suffixes = ["nan", "tie", "zero", "generic"]
    one_entry = rng.standard_normal((4, 1)) + 0.5j
    terms = tuple(rng.standard_normal((4, 5)) for _ in range(3))
    cases = (
        ("kernel-hermitian", lhs, rhs, ()),
        # a one-entry side broadcasts against its row, either way round
        ("kernel-hermitian", lhs, one_entry, ()),
        ("kernel-hermitian", one_entry, lhs, ()),
        # scaled: 1 + |rhs|, and 1 + the sum of three term magnitudes
        ("kummer-rational", lhs, rhs, ()),
        ("landau-eigenvalue", lhs, rhs, terms),
        # relative: the tolerance scales with the worst entry's rhs
        ("radial-moment", lhs, noise, ()),
    )
    for cfg in (VerifyConfig(), VerifyConfig(tolerance=0), VerifyConfig(tolerance=0.5)):
        for family, left, right, extra in cases:
            stacked = _judged_as_stack(cfg, family, suffixes, left, right, extra)
            alone = _judged_one_by_one(cfg, family, suffixes, left, right, extra)
            assert [repr(r) for r in stacked] == [repr(r) for r in alone], (family, cfg)
            assert [r.test_id for r in stacked] == [f"{family}-{s}" for s in suffixes]
            if cfg.tolerance is not None:
                assert all(type(r.tolerance) is float for r in stacked)
                assert all(r.tolerance == cfg.tolerance for r in stacked)

    nan_row, tie_row, zero_row, _ = _judged_as_stack(
        VerifyConfig(), "kernel-hermitian", suffixes, lhs, rhs
    )
    assert math.isnan(nan_row.abs_err) and not nan_row.passed
    assert math.isnan(nan_row.lhs.real)
    assert (tie_row.lhs, tie_row.rhs, tie_row.abs_err) == (3.0, 0.0, 3.0)
    assert (zero_row.abs_err, zero_row.passed) == (0.0, True)
    # every row's worst gap is entry 2, so the tolerance reads rhs[:, 2]
    shifted = noise + np.array([0.1, 0.2, 0.9, 0.3, 0.0])
    relative = _judged_as_stack(VerifyConfig(), "radial-moment", suffixes, shifted, noise)
    for record, row in zip(relative, noise):
        assert (record.lhs - record.rhs, record.rhs) == (pytest.approx(0.9), row[2])
        assert record.tolerance == 1e-11 * (1.0 + abs(row[2]))
    scaled = _judged_as_stack(VerifyConfig(), "landau-eigenvalue", suffixes, lhs, rhs, terms)
    gaps = np.abs(lhs[3] - rhs[3]) / (1.0 + sum(np.abs(t[3]) for t in terms))
    assert scaled[3].abs_err == pytest.approx(gaps.max(), rel=1e-15)


def test_a_number_stands_for_every_record():
    rec = _Recorder(VerifyConfig())
    rec.add("range-support", ["a", "b", "c"], [0, 2, 0], 0)
    rec.add("kernel-hermitian", "single", 0.25, [0.25, 0.5])
    assert [(r.test_id, r.abs_err, r.passed) for r in rec.records] == [
        ("range-support-a", 0.0, True),
        ("range-support-b", 2.0, False),
        ("range-support-c", 0.0, True),
        ("kernel-hermitian-single", 0.25, False),
    ]
    assert rec.records[-1].rhs == 0.5


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
