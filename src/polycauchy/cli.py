"""Command-line front end.

Evaluates any operation on demand, exports Gram matrices and spectra,
and drives the verification suites.  All output is fixed-precision (15
significant digits) and deterministic for fixed flags, so runs can be
diffed byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
numeric-domain error (a violated precondition, named in the message),
overflow, or an output file that cannot be used.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import json
import math
import sys
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from .cauchy_transform import (
    cauchy_hermite_closed,
    cauchy_transform_numeric,
)
from .gaussian_quadrature import cauchy_singular_scale
from .ito_hermite import (
    HermiteIndex,
    hermite_eval,
    hermite_eval_extended,
)
from .poly_bergman import project_numeric
from .range_analysis import (
    VARIANT_R,
    VARIANT_R_TILDE,
    RangeBasisSpec,
    psi_gram,
    r_range_inclusions,
    range_basis_indices,
    truncated_operator_svd,
)
from .verification import (
    SUITE_NAMES,
    VerifyConfig,
    _json_complex,
    run_suite,
    write_report,
)

__all__ = ["format_complex", "format_real", "main"]


def format_real(value: float) -> str:
    """Fixed 15-significant-digit decimal; negative zero normalized."""
    return np.format_float_positional(
        float(value) + 0.0, precision=15, unique=False, fractional=False, trim="k"
    )


def format_complex(value: complex) -> str:
    """a+bi with both parts at 15 significant digits; real stays bare."""
    value = complex(value)
    re, im = value.real + 0.0, value.imag + 0.0
    if im == 0.0:
        return format_real(re)
    sign = "-" if im < 0 else "+"
    return f"{format_real(re)}{sign}{format_real(abs(im))}i"


def _parse_complex(text: str) -> complex:
    """Command-line complex literal RE,IM (the imaginary part optional)."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    value = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite point, got {text!r}")
    return value


def _grid_count(text: str) -> int:
    """Command-line node count: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive node count, got {text!r}")
    return value


def _max_index(text: str) -> int:
    """Command-line highest index: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative index, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Command-line tolerance: a finite, nonnegative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite tolerance >= 0, got {text!r}"
        )
    return value


def _finite(value: complex, what: str) -> complex:
    """The value itself, or a named error when it is inf or nan."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} = {format_complex(value)} is not a finite double")
    return value


def _json_by_rows(payload: dict) -> Iterator[str]:
    """A flat mapping as JSON text in pieces, each array one row per line.

    The joined pieces load to the same object as ``json.dumps(payload,
    indent=2)`` with each array as its nested list; a matrix takes one
    line per row instead of one per entry.  ``row + 0`` turns -0.0 into
    0.0 and leaves integer rows integers.
    """
    sep = "{"
    for key, value in payload.items():
        yield f"{sep}\n  {json.dumps(key)}: "
        if isinstance(value, np.ndarray):
            yield "["
            for r, row in enumerate(value):
                yield f"{',' if r else ''}\n    {json.dumps((row + 0).tolist())}"
            yield "\n  ]"
        else:
            yield json.dumps(value)
        sep = ","
    yield "\n}\n"


def _verify_config(args: argparse.Namespace) -> VerifyConfig:
    """The settings the flags set, so every default lives in VerifyConfig alone."""
    names = ("nr", "ntheta", "tolerance")
    return VerifyConfig(**{
        name: getattr(args, name) for name in names if getattr(args, name, None) is not None
    })


def _output(args: argparse.Namespace) -> contextlib.AbstractContextManager[TextIO]:
    """stdout, or the --out file when given."""
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, args: argparse.Namespace) -> None:
    """Write one text and its final newline to the output."""
    with _output(args) as fh:
        fh.write(text + "\n")


def _cmd_hermite(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    if args.m == -1:
        value = hermite_eval_extended(args.n, args.z)
    else:
        value = hermite_eval(HermiteIndex(args.m, args.n), args.z)
    _emit(format_complex(_finite(value, f"H_{{{args.m},{args.n}}}{args.z}")), args)
    return 0


def _cmd_cauchy(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    idx = HermiteIndex(args.m, args.n)
    what = f"C H_{{{args.m},{args.n}}}{args.z}"
    closed = _finite(cauchy_hermite_closed(idx, args.z), what)
    if not args.numeric:
        _emit(format_complex(closed), args)
        return 0
    grid = cfg.singular_grid(args.z)
    source = lambda pts: hermite_eval(idx, pts)
    numeric = _finite(cauchy_transform_numeric(source, args.z, grid), f"numeric {what}")
    scale = _finite(cauchy_singular_scale(source, args.z, grid), f"scale of numeric {what}")
    lines = [
        f"closed={format_complex(closed)}",
        f"numeric={format_complex(numeric)}",
        f"difference={format_real(abs(closed - numeric))}",
        f"scale={format_real(scale)}",
    ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_project(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    kind, m, k = args.source
    idx = HermiteIndex(m, k)
    evaluate = hermite_eval if kind == "hermite" else cauchy_hermite_closed
    grid = cfg.polar_grid()
    seq = project_numeric(lambda pts: evaluate(idx, pts), args.level, args.jmax, grid=grid)
    # checked after the call, so a negative or overflowing --jmax keeps its own error
    if args.jmax >= grid.n_theta:
        raise ValueError(
            f"--jmax {args.jmax} needs --ntheta > {args.jmax}: on {grid.n_theta} angular "
            f"nodes H_{{j,n}} and H_{{j+{grid.n_theta},n}} share an angular bin"
        )
    # the source has one angular frequency; coefficient j reads bin (j - n) mod n_theta
    frequency = m - k if kind == "hermite" else m - 1 - k
    for j in range(args.jmax + 1):
        offset = j - args.level - frequency
        if offset and offset % grid.n_theta == 0:
            raise ValueError(
                f"coefficient {j} would alias: on {grid.n_theta} angular nodes the source "
                f"{kind} {m} {k}, of frequency {frequency}, shares the angular bin of "
                f"H_{{{j},{args.level}}}; raise --ntheta"
            )
    table = {
        "level": seq.n,
        "source": [kind, m, k],
        "coefficients": [_json_complex(c) for c in seq.coeffs],
    }
    _emit(json.dumps(table, indent=2), args)
    return 0


def _cmd_gram(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    indices = [
        HermiteIndex(m, n)
        for m in range(args.max_index + 1)
        for n in range(args.max_index + 1)
    ]
    report = psi_gram(indices, grid=cfg.polar_grid())
    labels = [f"({i.m},{i.n})" for i in indices]
    with _output(args) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["psi"] + labels)
            for label, row in zip(labels, report.values):
                writer.writerow([label] + [format_real(x) for x in row.tolist()])
        else:
            payload = {
                "indices": np.array([[i.m, i.n] for i in indices]),
                "max_violation": report.max_violation,
                "tolerance": report.tolerance,
                "pass": report.passed,
                "radial_check_max_rel": report.radial_check_max_rel,
                "values": report.values,
            }
            fh.writelines(_json_by_rows(payload))
    return 0 if report.passed else 1


def _cmd_ranges(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    variant = VARIANT_R if args.variant == "r" else VARIANT_R_TILDE
    spec = RangeBasisSpec(variant, args.ell, args.level)
    indices = range_basis_indices(spec, count=args.count)
    lines = [" ".join(f"({i.m},{i.n})" for i in indices)]
    if args.inclusions:
        lines += [
            f"ell={ell}: subset_of_next={'true' if forward else 'false'} "
            f"contains_next={'true' if backward else 'false'}"
            for ell, forward, backward in r_range_inclusions(args.level, args.ell + 1)
        ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_svd(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    values = truncated_operator_svd(args.degree)
    _emit("\n".join(format_real(s) for s in values), args)
    return 0


def _cmd_verify(args: argparse.Namespace, cfg: VerifyConfig) -> int:
    records = run_suite(args.suite, cfg)
    if args.out:
        csv_path = write_report(records, args.out)
        print(f"report: {args.out}")
        print(f"summary: {csv_path}")
    failures = [r for r in records if not r.passed]
    passed = len(records) - len(failures)
    for record in failures:
        print(
            f"FAIL {record.test_id}: lhs={format_complex(record.lhs)} "
            f"rhs={format_complex(record.rhs)} abs_err={record.abs_err!r} "
            f"tolerance={record.tolerance!r}"
        )
    print(f"{args.suite}: {passed} passed, {len(failures)} failed, {len(records)} total")
    return 0 if not failures else 1


class _SourceAction(argparse.Action):
    """--source KIND M N: KIND 'hermite' or 'psi', M and N as integers."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind, m, n = values
        if kind not in ("hermite", "psi"):
            raise argparse.ArgumentError(
                self, f"KIND must be 'hermite' or 'psi', got {kind!r}"
            )
        try:
            setattr(namespace, self.dest, (kind, int(m), int(n)))
        except ValueError:
            raise argparse.ArgumentError(
                self, f"M and N must be integers, got {m!r} {n!r}"
            ) from None


def _add_grid_flags(sub: argparse.ArgumentParser, angular: bool = True) -> None:
    """--nr, and --ntheta unless the command reads no angular nodes."""
    sub.add_argument("--nr", type=_grid_count, help="radial node count override")
    if angular:
        sub.add_argument("--ntheta", type=_grid_count, help="angular node count override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycauchy",
        description="Gaussian-weighted planar Cauchy transform toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("hermite", help="evaluate one basis polynomial")
    p.set_defaults(run=_cmd_hermite)
    p.add_argument("--m", type=int, required=True, help="holomorphic index (>= -1)")
    p.add_argument("--n", type=int, required=True, help="antiholomorphic index")
    p.add_argument("--z", type=_parse_complex, required=True, help="point RE,IM")

    p = commands.add_parser("cauchy", help="transform of one basis polynomial")
    p.set_defaults(run=_cmd_cauchy)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=_parse_complex, required=True, help="point RE,IM")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also run the singular quadrature and print the difference",
    )
    _add_grid_flags(p)

    p = commands.add_parser("project", help="level projection coefficients")
    p.set_defaults(run=_cmd_project)
    p.add_argument("--level", type=int, required=True, help="target level n")
    p.add_argument(
        "--source",
        nargs=3,
        metavar=("KIND", "M", "N"),
        required=True,
        action=_SourceAction,
        help="'hermite M N' or 'psi M N'",
    )
    p.add_argument("--jmax", type=int, required=True, help="highest coefficient index")
    _add_grid_flags(p)

    p = commands.add_parser("gram", help="transform-image Gram matrix")
    p.set_defaults(run=_cmd_gram)
    p.add_argument("--max-index", type=_max_index, required=True, help="indices run 0..K")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    # the Gram reads no angular grid: --nr sizes its radial cross-check
    _add_grid_flags(p, angular=False)

    p = commands.add_parser("ranges", help="range-space basis indices")
    p.set_defaults(run=_cmd_ranges)
    p.add_argument("--variant", choices=("r", "rtilde"), required=True)
    p.add_argument("--ell", type=int, required=True, help="source level offset")
    p.add_argument("--level", type=int, required=True, help="target level n")
    p.add_argument("--count", type=int, default=8, help="indices to list (variant r)")
    p.add_argument(
        "--inclusions",
        action="store_true",
        help="also report computed index-set inclusions between consecutive spans",
    )

    p = commands.add_parser("svd", help="singular values of the truncated operator")
    p.set_defaults(run=_cmd_svd)
    p.add_argument("--degree", type=int, required=True, help="total-degree cutoff")

    p = commands.add_parser("verify", help="run a verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=SUITE_NAMES + ("all",),
        help="which suite (default all)",
    )
    p.add_argument(
        "--tolerance", type=_tolerance, help="override every record tolerance"
    )
    _add_grid_flags(p)

    for sub in commands.choices.values():
        sub.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result is reported by name (_finite, the gram and
        # verify checks), so numpy's floating-point warnings stay silent
        with np.errstate(all="ignore"):
            return args.run(args, _verify_config(args))
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; use fewer indices or a coarser grid", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
