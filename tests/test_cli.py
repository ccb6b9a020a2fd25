"""Command-line interface: formatting, exit codes, and determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycauchy import SUITE_NAMES, HermiteIndex, VerifyConfig, cli, psi_gram
from polycauchy.cli import _build_parser, format_complex, format_real, main


def test_format_real():
    assert format_real(1.0) == "1.00000000000000"
    assert format_real(-1.0) == "-1.00000000000000"
    assert format_real(-0.0) == "0.00000000000000"
    assert format_real(0.125) == "0.12500000000000"
    assert format_real(12345.6789) == "12345.6789000000"


def test_format_complex():
    assert format_complex(1.0 + 0j) == "1.00000000000000"
    assert format_complex(1.0 + 2.0j) == "1.00000000000000+2.00000000000000i"
    assert format_complex(-0.5 - 0.25j) == "-0.50000000000000-0.25000000000000i"
    assert format_complex(complex(3.0, -0.0)) == "3.00000000000000"


def test_hermite_example(capsys):
    assert main(["hermite", "--m", "1", "--n", "1", "--z", "1,1"]) == 0
    assert capsys.readouterr().out == "1.00000000000000\n"


def test_cauchy_example(capsys):
    assert main(["cauchy", "--m", "1", "--n", "0", "--z", "0,0"]) == 0
    assert capsys.readouterr().out == "-1.00000000000000\n"


def test_ranges_example(capsys):
    argv = ["ranges", "--variant", "rtilde", "--ell", "2", "--level", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "(0,1) (1,1) (2,1)\n"


def test_extended_evaluation(capsys):
    assert main(["hermite", "--m", "-1", "--n", "0", "--z", "1,0"]) == 0
    assert capsys.readouterr().out == "-1.71828182845905\n"


def test_recurrence_flag_is_a_usage_error(capsys):
    # the lattice-recurrence route is gone; its flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["hermite", "--m", "2", "--n", "1", "--z", "2,0", "--recurrence"])
    assert exc.value.code == 2
    assert "--recurrence" in capsys.readouterr().err


def test_readme_examples(capsys):
    # every ``polycauchy ...`` line of the README parses, and each one
    # whose comment states its printed value prints exactly that
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = [line.partition("#") for line in lines if line.startswith("polycauchy ")]
    assert sum(bool(value.strip()) for _, _, value in examples) >= 4
    parser = _build_parser()
    for command, _, value in examples:
        argv = shlex.split(command)[1:]
        parser.parse_args(argv)
        if value.strip():
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == value.strip() + "\n", argv


def test_cauchy_numeric_report(capsys):
    assert main(["cauchy", "--m", "2", "--n", "1", "--z", "0.5,0.5", "--numeric"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("closed=")
    assert lines[1].startswith("numeric=")
    assert lines[2].startswith("difference=")
    assert lines[3].startswith("scale=") and len(lines) == 4
    difference, scale = (float(line.split("=")[1]) for line in lines[2:])
    assert difference < 1e-6
    # the sum of |terms| bounds the sum itself
    assert scale >= abs(complex(lines[1].split("=")[1].replace("i", "j")))
    # (12, 12): a difference of 1.5e-7 is 5.8e-16 of the route's scale
    assert main(["cauchy", "--m", "12", "--n", "12", "--z", "0.5,0.3", "--numeric"]) == 0
    lines = capsys.readouterr().out.splitlines()
    closed = abs(complex(lines[0].split("=")[1].replace("i", "j")))
    difference, scale = (float(line.split("=")[1]) for line in lines[2:])
    assert difference <= 1e-10 * (1.0 + closed)
    assert closed < scale and difference <= 1e-14 * scale
    # a far centre: the default angles grow with |z|
    assert main(["cauchy", "--m", "4", "--n", "4", "--z", "15,0", "--numeric"]) == 0
    lines = capsys.readouterr().out.splitlines()
    closed = abs(complex(lines[0].split("=")[1].replace("i", "j")))
    assert float(lines[2].split("=")[1]) <= 1e-13 * (1.0 + closed)


def test_cauchy_numeric_beyond_the_default_grid(capsys):
    # past |z| = 256 the default grid would need more than 4096 angles
    assert main(["cauchy", "--m", "0", "--n", "3", "--z", "300,0", "--numeric"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "resolves |center| <= 256" in captured.err
    argv = ["cauchy", "--m", "0", "--n", "3", "--z", "300,0", "--numeric", "--ntheta", "8192"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    closed = abs(complex(lines[0].split("=")[1].replace("i", "j")))
    assert float(lines[2].split("=")[1]) <= 1e-12 * (1.0 + closed)


def test_domain_error_exit_code(capsys):
    assert main(["hermite", "--m", "-2", "--n", "0", "--z", "0,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_non_finite_result_exit_code(capsys):
    # zbar**(n-m) overflows: a named error, never a printed nan
    for command in ("hermite", "cauchy"):
        argv = [command, "--m", "5", "--n", "100000000000000000000000", "--z", "2,1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not a finite double" in captured.err


def test_far_m0_image_is_printed(capsys):
    # e^{|z|^2} overflows at |z| = 30, the image 2/30^3 does not
    assert main(["cauchy", "--m", "0", "--n", "2", "--z", "30,0"]) == 0
    out = capsys.readouterr().out
    assert out == "0.0000740740740740741\n"
    assert float(out) == pytest.approx(2.0 / 27000.0, rel=1e-14)
    # past |z| ~ 1.34e154, where |z|^2 itself overflows: the image 1/z
    assert main(["cauchy", "--m", "0", "--n", "0", "--z", "1e160,0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1e-160, rel=1e-14, abs=0)


def test_m0_image_past_the_factorial_range_is_printed(capsys):
    # the series branch at n = 170 needs -1/171, not 171!, which overflows
    assert main(["cauchy", "--m", "0", "--n", "170", "--z", "3,0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.9472794011759e75, rel=1e-13)


def test_m0_image_at_a_huge_level_fails_at_once():
    # the series prefactor -1/(n+1) forms no factorial of n, and the
    # series coefficients overflow a double: exit 3 without an n-step loop
    assert main(["cauchy", "--m", "0", "--n", "100000000", "--z", "3,0"]) == 3


def test_far_m1_image_underflows_to_zero(capsys):
    # e^{-|z|^2} underflows to 0 inside the real radial factor, and the
    # monomial zbar is finite: the image, far below the smallest double,
    # prints as 0
    assert main(["cauchy", "--m", "12", "--n", "12", "--z", "1e14,0"]) == 0
    assert float(capsys.readouterr().out) == 0.0
    # where the monomial z^2 overflows too, 0 * inf forms no value: a
    # named error, never a printed nan
    assert main(["cauchy", "--m", "3", "--n", "0", "--z", "1e160,0"]) == 3
    assert "not a finite double" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cauchy", "--m", "3", "--n", "0", "--z", "1e160,0"],
        ["cauchy", "--m", "12", "--n", "12", "--z", "1e15,0"],
        ["svd", "--degree", "13"],
    ],
)
def test_exit_3_prints_only_its_error_line(argv):
    # numpy's overflow and invalid-value warnings on the way to a
    # non-finite result are not printed ahead of the named error
    proc = subprocess.run(
        [sys.executable, "-m", "polycauchy", *argv],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:")


def test_gram_on_a_wide_grid_is_finite(capsys):
    # the outermost node at --nr 200 lies past e^t's range
    payloads = {}
    for nr in ("64", "200"):
        assert main(["gram", "--max-index", "1", "--nr", nr]) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and "Infinity" not in text
        payloads[nr] = json.loads(text)
    assert payloads["200"]["pass"] is True

    def entries(payload):
        return [complex(*v) if isinstance(v, list) else v for row in payload["values"] for v in row]

    for a, b in zip(entries(payloads["64"]), entries(payloads["200"]), strict=True):
        assert abs(b - a) <= 1e-12 * abs(a)


def test_out_of_memory_exits_3(capsys, monkeypatch):
    from polycauchy import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "psi_gram", exhausted)
    assert main(["gram", "--max-index", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")


def test_gram_with_a_non_finite_entry_exits_3(capsys, monkeypatch):
    from polycauchy import range_analysis

    profile = range_analysis.hermite_radial_profile

    def broken(indices, t, *, weighted=False):
        values, freq = profile(indices, t, weighted=weighted)
        if weighted:
            # the beta = 1 row of psi_(0,1) = -e^{-t} H_{-1,1}
            values[list(indices).index(HermiteIndex(-1, 1))] = np.nan
        return values, freq

    monkeypatch.setattr(range_analysis, "hermite_radial_profile", broken)
    assert main(["gram", "--max-index", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psi_(0,1)" in captured.err and "not a finite double" in captured.err


def test_gram_overflow_exits_3(capsys, monkeypatch):
    # past the double range a closed-form entry is inf, refused with the
    # pair named; a Gram reaching (110, 110) itself would not fit in memory
    def overflowing(indices, grid):
        return psi_gram([(1, 0), (110, 110)], grid)

    monkeypatch.setattr(cli, "psi_gram", overflowing)
    assert main(["gram", "--max-index", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psi_(110,110)" in captured.err and "not a finite double" in captured.err


def test_gram_cross_check_sees_an_under_resolved_radial_rule(capsys):
    # K = 3 integrands reach degree 2K - 1 = 5 in t: 3 nodes integrate
    # them exactly and 2 do not.  The closed-form Gram does not read the
    # nodes, so the cross-check's gap shows the difference; the exit code
    # stays 0, since only the selection rule decides it
    gaps = {}
    for nr in ("2", "3"):
        assert main(["gram", "--max-index", "3", "--nr", nr]) == 0
        gaps[nr] = json.loads(capsys.readouterr().out)["radial_check_max_rel"]
    assert gaps["2"] > 1e-3
    assert gaps["3"] < 1e-15


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hermite", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    for flag in ("--nr", "--ntheta"):
        for count in ("0", "-4"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "ranges", flag, count])
            assert exc.value.code == 2
            assert "positive node count" in capsys.readouterr().err
    for bound in ("-1", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--max-index", bound])
        assert exc.value.code == 2
        assert "nonnegative index" in capsys.readouterr().err
    for m, k in (("a", "0"), ("1.5", "0"), ("1", "x")):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--level", "0", "--source", "psi", m, k, "--jmax", "2"])
        assert exc.value.code == 2
        assert "must be integers" in capsys.readouterr().err


_COMMAND_ARGS = {
    "hermite": ["--m", "1", "--n", "1", "--z", "1,1"],
    "cauchy": ["--m", "1", "--n", "0", "--z", "0,0"],
    "project": ["--level", "0", "--source", "psi", "1", "0", "--jmax", "2"],
    "gram": ["--max-index", "1"],
    "ranges": ["--variant", "r", "--ell", "1", "--level", "2"],
    "svd": ["--degree", "4"],
    "verify": ["ranges"],
}
_GRID_COMMANDS = ("cauchy", "project", "gram", "verify")


def test_grid_flags_only_on_grid_commands(capsys):
    # --nr and --ntheta exist only where a grid is built; --out is on
    # every command, and no command takes --config
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    assert set(commands.choices) == set(_COMMAND_ARGS)
    grid_flags = {"--nr", "--ntheta"}
    for name, sub in commands.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert "--out" in flags
        assert flags & grid_flags == (grid_flags if name in _GRID_COMMANDS else set()), name
    for name, args in _COMMAND_ARGS.items():
        argv = [name] + args
        flags = [["--config", "f"]]
        if name in _GRID_COMMANDS:
            parsed = parser.parse_args(argv + ["--nr", "8", "--ntheta", "8"])
            assert (parsed.nr, parsed.ntheta) == (8, 8)
        else:
            flags += [["--nr", "8"], ["--ntheta", "8"]]
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err


def test_verify_pass_and_fail_codes(capsys):
    assert main(["verify", "ranges"]) == 0
    out = capsys.readouterr().out
    assert "ranges:" in out and " 0 failed, " in out
    assert main(["verify", "ranges", "--tolerance", "1e-30"]) == 1
    out = capsys.readouterr().out
    assert "FAIL " in out
    # a tolerance no record could meet is a bad flag, not a failed check
    for bad in ("nan", "inf", "-1e-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "hermite", f"--tolerance={bad}"])
        assert exc.value.code == 2
        assert "finite tolerance" in capsys.readouterr().err


def test_project_json_output(capsys):
    argv = [
        "project",
        "--level", "0",
        "--source", "psi", "1", "0",
        "--jmax", "2",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 0
    assert payload["source"] == ["psi", 1, 0]
    coeffs = payload["coefficients"]
    assert len(coeffs) == 3
    lead = coeffs[0] if isinstance(coeffs[0], float) else coeffs[0][0]
    assert abs(lead - (-0.5)) < 1e-9


def test_project_jmax_zero_is_coefficient_zero(capsys):
    # J = 0 is the lone coefficient 0, bit for bit that of the J = 1 run
    argv = ["project", "--level", "0", "--source", "hermite", "0", "0", "--jmax"]
    coeffs = []
    for jmax in ("0", "1"):
        assert main(argv + [jmax]) == 0
        coeffs.append(json.loads(capsys.readouterr().out)["coefficients"])
    assert len(coeffs[0]) == 1 and coeffs[0] == coeffs[1][:1]
    assert main(argv + ["-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "requires J >= 0, got J=-1" in captured.err


def test_project_overflowing_jmax_fails_at_once(capsys):
    argv = ["project", "--source", "psi", "1", "0", "--level", "0", "--jmax", "100000000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "factorial(100000000) overflows" in captured.err


def test_project_rejects_an_aliasing_jmax(capsys):
    # on 4 angular nodes H_{5,0} and H_{1,0} share a bin: coefficient 5 would read 0.05
    argv = ["project", "--level", "0", "--source", "hermite", "1", "0", "--jmax", "6",
            "--ntheta", "4", "--nr", "8"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --jmax 6 needs --ntheta > 6: on 4 angular nodes "
        "H_{j,n} and H_{j+4,n} share an angular bin\n"
    )
    # one node more and the bins are distinct: coefficient 5 is rounding noise
    assert main(argv[:-4] + ["--ntheta", "7", "--nr", "8"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coefficients"]
    assert len(coeffs) == 7 and abs(complex(*np.atleast_1d(coeffs[5]))) < 1e-15


def test_project_rejects_a_source_frequency_that_aliases(capsys):
    # H_{0,5} has frequency -5 and psi_{0,5} frequency -6; on 4 angular nodes
    # they read the bins of H_{3,0} and H_{2,0}, where the true coefficient is 0
    flags = ["--jmax", "3", "--ntheta", "4", "--nr", "8"]
    for source, j, frequency in ((["hermite", "0", "5"], 3, -5), (["psi", "0", "5"], 2, -6)):
        assert main(["project", "--level", "0", "--source", *source, *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: coefficient {j} would alias: on 4 angular nodes the source "
            f"{' '.join(source)}, of frequency {frequency}, shares the angular bin of "
            f"H_{{{j},0}}; raise --ntheta\n"
        )
    # H_{1,0} meets only its own bin on the same small grid
    assert main(["project", "--level", "0", "--source", "hermite", "1", "0", *flags]) == 0
    coeffs = json.loads(capsys.readouterr().out)["coefficients"]
    assert len(coeffs) == 4 and abs(complex(*np.atleast_1d(coeffs[1])) - 1.0) < 1e-13
    assert all(abs(complex(*np.atleast_1d(coeffs[j]))) < 1e-15 for j in (0, 2, 3))


def test_project_rejects_unknown_source(capsys):
    argv = ["project", "--level", "0", "--source", "basis", "1", "0", "--jmax", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "KIND must be 'hermite' or 'psi', got 'basis'" in capsys.readouterr().err


def test_gram_outputs(capsys, tmp_path):
    assert main(["gram", "--max-index", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["indices"][0] == [0, 0]
    assert len(payload["values"]) == 4

    out = tmp_path / "gram.csv"
    assert main(["gram", "--max-index", "1", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["psi", "(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert rows[1][0] == "(0,0)"
    assert abs(float(rows[1][1]) - 0.903779885384002) < 1e-12


def test_gram_json_writes_one_matrix_row_per_line(tmp_path):
    out = tmp_path / "gram.json"
    assert main(["gram", "--max-index", "2", "--out", str(out)]) == 0
    text = out.read_text()
    indices = [HermiteIndex(m, n) for m in range(3) for n in range(3)]
    report = psi_gram(indices)
    payload = {
        "indices": [[i.m, i.n] for i in indices],
        "max_violation": report.max_violation,
        "tolerance": report.tolerance,
        "pass": report.passed,
        "radial_check_max_rel": report.radial_check_max_rel,
        "values": (report.values + 0.0).tolist(),
    }
    # the same object as the indented dump, one line per index and per row
    assert json.loads(text) == json.loads(json.dumps(payload, indent=2))
    assert len(text.splitlines()) == 2 * len(indices) + 10
    assert text.splitlines()[-3] == "    " + json.dumps(payload["values"][-1])


def test_gram_rows_write_each_real_entry_as_json():
    from polycauchy.cli import _json_by_rows

    values = np.array([[1.5, -0.0, 1e-300, -2.0], [np.nan, 0.0, -1e-300, 3.0]])
    indices = np.array([[0, 0], [1, 2]])
    payload = {"indices": indices, "values": values, "empty": [], "flag": False, "x": None}
    text = "".join(_json_by_rows(payload))
    lines = text.splitlines()
    # one line per row; -0.0 is written as 0.0 and the indices stay integers
    assert lines[1:5] == ['  "indices": [', "    [0, 0],", "    [1, 2]", "  ],"]
    assert lines[6:8] == ["    [1.5, 0.0, 1e-300, -2.0],", "    [NaN, 0.0, -1e-300, 3.0]"]
    got = json.loads(text)
    want = dict(payload, indices=indices.tolist(), values=(values + 0.0).tolist())
    assert json.dumps(got) == json.dumps(json.loads(json.dumps(want, indent=2)))
    assert math.copysign(1.0, got["values"][0][1]) == 1.0 and got["values"][0][2] == 1e-300


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _baseline_dispatch_env() -> dict:
    """The environment with numpy and OpenBLAS held to their baseline kernels.

    numpy's float64 exp and power round differently per SIMD tier, and
    OpenBLAS picks its matmul kernel per CPU.  Every dispatched numpy
    feature the host supports (or the environment already turns off) is
    disabled and OpenBLAS runs its Prescott kernel, so the bytes depend
    on the numpy and OpenBLAS builds but not on the CPU.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    env = _package_env()
    already = set(env.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split())
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
        f for f in __cpu_dispatch__ if __cpu_features__.get(f) or f in already
    )
    env["OPENBLAS_CORETYPE"] = "Prescott"
    return env


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the digests are pinned to the x86-64 baseline kernels of numpy and OpenBLAS",
)
def test_gram_output_bytes_are_pinned(tmp_path):
    # md5 of the JSON and CSV of two grids, the second aliasing (exit 1),
    # written by the CLI under the baseline dispatch
    env = _baseline_dispatch_env()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    builds = f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"
    pinned = {
        ("--max-index", "8"): (
            0, "79783e543b1efd2bd73184dd26344d73", "17e887f778e5d157b5e19834e4ba06f5"
        ),
        ("--max-index", "6", "--ntheta", "8"): (
            1, "e02bbcd61837f198dce564670846048c", "7a81e18c97b99c50e6ab0279fc4e66bf"
        ),
    }
    for flags, (code, json_md5, csv_md5) in pinned.items():
        for fmt, want in (("json", json_md5), ("csv", csv_md5)):
            out = tmp_path / f"gram.{fmt}"
            argv = ["gram", *flags, "--format", fmt, "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "polycauchy", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == code, proc.stderr
            got = hashlib.md5(out.read_bytes()).hexdigest()
            assert got == want, (flags, fmt, builds)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the digests are pinned to the x86-64 baseline kernels of numpy and OpenBLAS",
)
def test_verify_all_report_bytes_are_pinned(tmp_path):
    # md5 of the verify all JSONL and CSV written under the baseline dispatch
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    builds = f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"
    out = tmp_path / "report.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "polycauchy", "verify", "all", "--out", str(out)],
        env=_baseline_dispatch_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for path, want in (
        (out, "7aee136882e255d49526c66515331363"),
        (out.with_suffix(".csv"), "e4178753176fe8e6dfb95c04f5e3413b"),
    ):
        assert hashlib.md5(path.read_bytes()).hexdigest() == want, (path.name, builds)


def test_svd_output(capsys):
    assert main(["svd", "--degree", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0.50000000000000", "0.50000000000000", "0.00000000000000"]


def test_ranges_inclusions(capsys):
    argv = [
        "ranges", "--variant", "r", "--ell", "1", "--level", "2",
        "--count", "2", "--inclusions",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(0,2) (1,2)"
    assert lines[1] == "ell=0: subset_of_next=true contains_next=false"
    assert lines[2] == "ell=1: subset_of_next=true contains_next=true"


def test_ranges_inclusions_out_writes_every_line(capsys, tmp_path):
    out = tmp_path / "ranges.txt"
    argv = [
        "ranges", "--variant", "r", "--ell", "1", "--level", "2",
        "--count", "2", "--inclusions", "--out", str(out),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (
        b"(0,2) (1,2)\n"
        b"ell=0: subset_of_next=true contains_next=false\n"
        b"ell=1: subset_of_next=true contains_next=true\n"
    )


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "value.txt"
    assert main(["hermite", "--m", "0", "--n", "0", "--z", "2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == "1.00000000000000\n"


def test_stdout_equals_the_out_file(capsys, tmp_path):
    # every command but verify, whose --out names the report, prints the
    # bytes it writes to --out
    commands = [
        ["hermite", "--m", "2", "--n", "1", "--z", "0.5,1"],
        ["cauchy", "--m", "1", "--n", "2", "--z", "0.5,1", "--numeric"],
        ["project", "--level", "1", "--source", "psi", "1", "1", "--jmax", "2"],
        ["gram", "--max-index", "1"],
        ["gram", "--max-index", "1", "--format", "csv"],
        ["ranges", "--variant", "r", "--ell", "1", "--level", "2", "--inclusions"],
        ["svd", "--degree", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode(), argv


def test_verify_report_determinism(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["verify", "ranges", "--out", str(a)]) == 0
    assert main(["verify", "ranges", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_passes_only_the_settings_given(monkeypatch):
    # every default lives in VerifyConfig: the CLI passes only the flags given
    seen = []
    monkeypatch.setattr(cli, "VerifyConfig", lambda **kw: seen.append(kw) or VerifyConfig(**kw))
    parser = _build_parser()
    for argv in (
        ["verify", "ranges"],
        ["verify", "ranges", "--nr", "16", "--ntheta", "32", "--tolerance", "1"],
        ["svd", "--degree", "4"],
    ):
        cli._verify_config(parser.parse_args(argv))
    assert seen == [{}, {"nr": 16, "ntheta": 32, "tolerance": 1.0}, {}]


def test_bad_out_paths_exit_3(capsys, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["verify", "ranges", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert not out.exists()

    out = tmp_path / "missing" / "value.txt"
    assert main(["hermite", "--m", "0", "--n", "0", "--z", "1,0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err


_INDICES = st.one_of(st.integers(-3, 400), st.sampled_from([10**6, 10**18, 10**30]))


@settings(max_examples=300, deadline=None)
@given(m=_INDICES, n=_INDICES, re=st.floats(), im=st.floats())
def test_hermite_exit_codes(m, n, re, im):
    argv = ["hermite", "--m", str(m), "--n", str(n), "--z", f"{re!r},{im!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error:")


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 3:
        assert err.getvalue().startswith("error:")
    return code, out.getvalue()


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["hermite", "psi"]),
    m=st.integers(-2, 12),
    k=st.integers(-2, 12),
    level=st.integers(-2, 10),
    jmax=st.integers(0, 200),
)
def test_project_exit_codes(kind, m, k, level, jmax):
    argv = [
        "project", "--source", kind, str(m), str(k),
        "--level", str(level), "--jmax", str(jmax), "--nr", "16", "--ntheta", "16",
    ]
    code, out = _exit_code(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert "NaN" not in out and "Infinity" not in out


@settings(max_examples=10, deadline=None)
@given(bound=st.integers(-3, 2))
def test_gram_exit_codes(bound):
    code, out = _exit_code(["gram", "--max-index", str(bound), "--nr", "16", "--ntheta", "16"])
    assert code in (0, 2, 3)
    assert (code == 2) == (bound < 0)


@settings(max_examples=150, deadline=None)
@given(m=_INDICES, n=_INDICES, re=st.floats(), im=st.floats(), numeric=st.booleans())
def test_cauchy_exit_codes(m, n, re, im, numeric):
    argv = [
        "cauchy", "--m", str(m), "--n", str(n), "--z", f"{re!r},{im!r}",
        "--nr", "8", "--ntheta", "8",
    ] + (["--numeric"] if numeric else [])
    code, out = _exit_code(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in out and "inf" not in out


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(["r", "rtilde"]),
    ell=st.integers(-3, 12),
    level=st.integers(-3, 12),
    count=st.integers(-3, 20),
    inclusions=st.booleans(),
)
def test_ranges_exit_codes(variant, ell, level, count, inclusions):
    argv = [
        "ranges", "--variant", variant, "--ell", str(ell), "--level", str(level),
        "--count", str(count),
    ] + (["--inclusions"] if inclusions else [])
    code, out = _exit_code(argv)
    assert code in (0, 3)
    assert (code == 3) == (ell < 0 or level < 0 or count < 1)
    if code == 3:
        assert out == ""


@settings(max_examples=20, deadline=None)
@given(degree=st.integers(-3, 15))
def test_svd_exit_codes(degree):
    code, out = _exit_code(["svd", "--degree", str(degree)])
    assert code in (0, 3)
    assert (code == 0) == (0 <= degree <= 12)
    if code == 0:
        assert len(out.splitlines()) == (degree + 1) * (degree + 2) // 2
        assert "nan" not in out and "inf" not in out


def _parses_as_count(text):
    try:
        return int(text) >= 1
    except ValueError:
        return False


def _parses_as_tolerance(text):
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0


_COUNT_TEXT = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["x", "2.5", ""]))
_TOLERANCE_TEXT = st.one_of(
    st.none(), st.floats().map(repr), st.sampled_from(["1e300", "-0.0", "tol", "1e400"])
)


@settings(max_examples=30, deadline=None)
@given(
    suite=st.sampled_from(SUITE_NAMES + ("all", "bogus")),
    tolerance=_TOLERANCE_TEXT,
    nr=_COUNT_TEXT,
    ntheta=_COUNT_TEXT,
)
def test_verify_exit_codes(suite, tolerance, nr, ntheta):
    # small grids keep each run short; most records fail on them
    argv = ["verify", suite, f"--nr={nr}", f"--ntheta={ntheta}"]
    if tolerance is not None:
        argv.append(f"--tolerance={tolerance}")
    code, out = _exit_code(argv)
    usage = (
        suite == "bogus"
        or not (_parses_as_count(nr) and _parses_as_count(ntheta))
        or (tolerance is not None and not _parses_as_tolerance(tolerance))
    )
    if usage:
        assert code == 2
        return
    # every suite builds a grid, and grids need n_theta >= 4
    assert (code == 3) == (int(ntheta) < 4)
    assert code in (0, 1, 3)
    if code == 0:
        assert " 0 failed, " in out and "nan" not in out.lower()
    if code == 1:
        assert "FAIL " in out
    if code == 3:
        assert out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polycauchy", "hermite", "--m", "1", "--n", "1", "--z", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.00000000000000\n"
