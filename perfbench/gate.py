"""Correctness gate: every check is one operation, counted as attempted
and, unless it holds, as failed.

A check never trusts a flag alone.  It fails when its flag is false,
when its error or tolerance is not finite, when the error exceeds the
tolerance, or when any of the output values it covers is not finite.
"""

from __future__ import annotations

import math

import numpy as np

# Reported in place of an infinite headroom, which JSON cannot carry;
# it only arises if every error of a workload is exactly zero.
HEADROOM_CAP = 1e300


class Gate:
    """Counts checks and failures and tracks the smallest headroom."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.headroom = math.inf

    def check(self, name, abs_err, tolerance, flag=True, values=None) -> bool:
        """Record one check; returns whether it held.

        Headroom is tolerance / abs_err, taken over checks whose
        tolerance and error are both positive and finite.
        """
        abs_err = float(abs_err)
        tolerance = float(tolerance)
        ok = (
            bool(flag)
            and math.isfinite(abs_err)
            and math.isfinite(tolerance)
            and abs_err <= tolerance
            and (values is None or bool(np.all(np.isfinite(np.asarray(values)))))
        )
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: abs_err={abs_err!r} tolerance={tolerance!r}")
        if tolerance > 0 and 0 < abs_err < math.inf:
            self.headroom = min(self.headroom, tolerance / abs_err)
        return ok

    def headroom_min(self) -> float:
        return min(self.headroom, HEADROOM_CAP)


def record_values(record) -> tuple:
    """The numbers a verification record carries, for the finiteness test."""
    lhs, rhs = complex(record.lhs), complex(record.rhs)
    return (lhs.real, lhs.imag, rhs.real, rhs.imag, record.abs_err, record.tolerance)


def check_record(gate: Gate, record) -> None:
    """Gate one verification record; any object with its fields will do."""
    gate.check(
        record.test_id,
        record.abs_err,
        record.tolerance,
        flag=record.passed,
        values=record_values(record),
    )


def check_records(gate: Gate, records, expected_ids) -> None:
    """Gate each verification record plus the list of their test ids."""
    gate.check(
        "test-id-list",
        0.0,
        0.0,
        flag=[r.test_id for r in records] == list(expected_ids),
    )
    for record in records:
        check_record(gate, record)


def check_report_bytes(gate: Gate, first: bytes, current: bytes) -> None:
    """Two passes over the same records must write the same bytes."""
    gate.check("report-bytes-identical", 0.0, 0.0, flag=first == current)


def check_singular_values(gate: Gate, got, reference, tolerance: float = 1e-12) -> None:
    """Library singular values against an independent reference, elementwise."""
    got = np.asarray(got, dtype=float)
    reference = np.asarray(reference, dtype=float)
    same_shape = got.shape == reference.shape
    err = float(np.max(np.abs(got - reference))) if same_shape and got.size else math.inf
    gate.check("svd-vs-closed", err, tolerance, flag=same_shape, values=got)


def check_gram(gate: Gate, passed, max_violation, tolerance, values, radial_max_rel,
               anchors, anchor_tolerance: float = 1e-8) -> None:
    """Selection-rule verdict, radial cross-check and closed anchors.

    ``anchors`` holds (name, got, exact) triples compared at relative
    ``anchor_tolerance``.
    """
    gate.check("gram-selection-rule", max_violation, tolerance, flag=passed, values=values)
    gate.check("gram-radial-crosscheck", radial_max_rel, 1e-8)
    for name, got, exact in anchors:
        gate.check(name, abs(got - exact) / abs(exact), anchor_tolerance, values=(got,))


def check_images(gate: Gate, name, image, probe_got, probe_ref, tolerance: float = 1e-11) -> None:
    """Closed images: all finite, and the probe points match the reference.

    The error is scaled by the image's magnitude on the probe set,
    max |got - ref| / (1 + max |ref|), so a value near a zero of the
    function is judged against the function's scale, not its own.
    """
    probe_got = np.asarray(probe_got, dtype=complex)
    probe_ref = np.asarray(probe_ref, dtype=complex)
    err = float(np.max(np.abs(probe_got - probe_ref))) / (1.0 + float(np.max(np.abs(probe_ref))))
    gate.check(name, err, tolerance, values=image)


def check_numeric(gate: Gate, name, numeric, closed, tolerance: float = 1e-6) -> None:
    """Numeric transform against the closed image at one centre, scaled."""
    numeric, closed = complex(numeric), complex(closed)
    gate.check(
        name,
        abs(numeric - closed),
        tolerance * (1.0 + abs(closed)),
        values=(numeric, closed),
    )
