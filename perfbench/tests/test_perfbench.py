"""Tests of the benchmark itself: its gate, its traces and its interface.

    python3 -m pytest perfbench/tests -q

The traced-run tests start the benchmark in subprocesses with a
one-second budget (one untraced and one traced pass per run) and take
about a minute and a half on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate as g  # noqa: E402
import tracer  # noqa: E402

Record = namedtuple("Record", "test_id lhs rhs abs_err tolerance passed")


# ------------------------------------------------------------------ gate


def _held(check, *args, **kwargs) -> bool:
    gate = g.Gate()
    check(gate, *args, **kwargs)
    assert gate.attempted >= 1
    return gate.failed == 0


def test_gate_counts_and_headroom():
    gate = g.Gate()
    assert gate.check("a", 1e-12, 1e-10)
    assert gate.check("exact", 0.0, 0.0)
    assert not gate.check("b", 2e-10, 1e-10)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert gate.headroom_min() == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gate_rejects_non_finite_error_and_values(bad):
    gate = g.Gate()
    assert not gate.check("err", bad, 1.0)
    assert not gate.check("values", 0.0, 1.0, values=np.array([1.0, bad]))
    assert not gate.check("complex", 0.0, 1.0, values=np.array([1j, complex(0, bad)]))
    assert gate.failed == 3


def test_records_fail_on_nan_even_when_flagged_passed():
    ok = Record("a", 1.0, 1.0, 0.0, 1e-9, True)
    nan_lhs = Record("a", complex(math.nan, 0), 1.0, 0.0, 1e-9, True)
    over = Record("a", 1.0, 1.1, 0.1, 1e-9, True)
    flagged = Record("a", 1.0, 1.0, 0.0, 1e-9, False)
    assert _held(g.check_records, [ok], ["a"])
    for bad in (nan_lhs, over, flagged):
        assert not _held(g.check_records, [bad], ["a"])
    assert not _held(g.check_records, [ok], ["b"])
    assert not _held(g.check_records, [ok, ok], ["a"])


def test_report_bytes_must_repeat():
    assert _held(g.check_report_bytes, b"x\n", b"x\n")
    assert not _held(g.check_report_bytes, b"x\n", b"y\n")


def test_singular_values_doctored():
    ref = np.array([0.6, 0.5, 0.1])
    assert _held(g.check_singular_values, ref + 1e-15, ref)
    assert not _held(g.check_singular_values, ref + np.array([0, 1e-10, 0]), ref)
    assert not _held(g.check_singular_values, np.array([0.6, math.nan, 0.1]), ref)
    assert not _held(g.check_singular_values, ref[:2], ref)


def test_gram_doctored():
    values = np.eye(2, dtype=complex)
    anchors = [("third", math.pi / 3, math.pi / 3)]
    good = dict(passed=True, max_violation=0.0, tolerance=1e-9, values=values,
                radial_max_rel=1e-15, anchors=anchors)
    assert _held(g.check_gram, **good)
    doctored = [
        {"passed": False},
        {"values": np.array([[1, math.nan], [0, 1]], dtype=complex)},
        {"radial_max_rel": math.nan},
        {"radial_max_rel": 1e-7},
        {"anchors": [("third", math.pi / 3 * (1 + 1e-7), math.pi / 3)]},
        {"anchors": [("third", math.inf, math.pi / 3)]},
    ]
    for change in doctored:
        assert not _held(g.check_gram, **{**good, **change}), change


def test_images_doctored():
    ref = np.array([1.0 + 1j, -2.0, 0.5j])
    image = np.concatenate([np.ones(5, dtype=complex), ref])
    assert _held(g.check_images, "img", image, image[-3:], ref)
    far = image.copy()
    far[-1] += 1e-9
    assert not _held(g.check_images, "img", far, far[-3:], ref)
    outside = image.copy()
    outside[0] = complex(math.nan, 0)
    assert not _held(g.check_images, "img", outside, outside[-3:], ref)
    inside = image.copy()
    inside[-2] = math.inf
    assert not _held(g.check_images, "img", inside, inside[-3:], ref)


def test_numeric_doctored():
    assert _held(g.check_numeric, "n", 1.0 + 1e-9, 1.0)
    assert not _held(g.check_numeric, "n", 1.0 + 1e-5, 1.0)
    assert not _held(g.check_numeric, "n", complex(math.nan, 0), 1.0)
    assert not _held(g.check_numeric, "n", 1.0, math.inf)


# -------------------------------------------------------------- interface


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_match_the_code():
    bench = _bench()
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.layer_metric_units())
    for m in bench["per_layer"]:
        assert m["unit"] == tracer.layer_metric_units()[m["name"]]
    assert {w["name"] for w in bench["workloads"]} == {"verify-all", "spectrum", "field-eval"}
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "pass_cost", "headroom_min"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------- traced runs


@lru_cache(maxsize=None)
def traced(workload: str, seed: int, repeat: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    """Every per-layer figure that is not a time."""
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


WORKLOAD_NAMES = ("verify-all", "spectrum", "field-eval")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_passes_and_reports_every_layer_metric(workload):
    result = traced(workload, 1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(tracer.layer_metric_units())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_across_traced_runs(workload):
    assert _counts(traced(workload, 1)) == _counts(traced(workload, 1, repeat=1))


@pytest.mark.parametrize("workload", ("verify-all", "spectrum"))
def test_second_seed_leaves_counts_unchanged(workload):
    second = traced(workload, 2)
    assert second["correct"]
    assert _counts(second) == _counts(traced(workload, 1))


def test_second_seed_keeps_field_eval_checks_passing():
    second = traced("field-eval", 2)
    assert second["correct"] and second["failed"] == 0
    assert second["attempted"] == traced("field-eval", 1)["attempted"]


def test_workloads_split_the_layers():
    field = _counts(traced("field-eval", 1))
    spectrum = _counts(traced("spectrum", 1))
    verify = _counts(traced("verify-all", 1))
    for name in ("ddouble.dd_weighted_sum.calls",
                 "range_analysis.truncated_operator_svd.calls",
                 "range_analysis.psi_gram.calls",
                 "gaussian_quadrature.gauss_laguerre_nodes.calls"):
        assert field[name] == 0, name
    for name in ("gaussian_quadrature.cauchy_singular_quadrature.calls",
                 "ito_hermite.hermite_eval.calls"):
        assert spectrum[name] == 0, name
    assert verify["gaussian_quadrature.gauss_laguerre_nodes.nodes"] == 24 + 64 + 128
    # verify-all: many calls at few points each; field-eval: few calls at many
    def per_call(counts):
        return counts["ito_hermite.hermite_eval.points"] / counts["ito_hermite.hermite_eval.calls"]

    assert verify["ito_hermite.hermite_eval.calls"] > 10 * field["ito_hermite.hermite_eval.calls"]
    assert per_call(field) > 10 * per_call(verify)
