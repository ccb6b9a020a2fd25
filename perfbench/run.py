"""Benchmark for polycauchy: three workloads, checked, timed and traced.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the three in
turn.  Each workload runs in a fresh Python process, and its set-up is
timed again in a fresh process before it and one after it; every child
gets one BLAS and OpenMP thread.  With ``--trace 0`` the last line of the output
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones
(see NOTES.md).  Results, spans and scratch reports go to
``perfbench/out/``.  The exit code is 0 when the benchmark ran, even
if checks failed (``"correct": false``), and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from reference import NOMINAL_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify-all", "spectrum", "field-eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Besides the worker's own, set-up is timed in one fresh process before
# the worker and one after, so its samples span the run.
SETUP_PROBES = 1
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py with ``args``; raise on a non-zero exit or a timeout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return last_json(proc.stdout)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **{name: "1" for name in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """The worker between set-up probes (untraced runs only); returns its result."""

    def probes():
        if trace:
            return []
        return [run_child(["setup", name], CHILD_TIMEOUT_S) for _ in range(SETUP_PROBES)]

    before = probes()
    result = run_child(
        ["run", name, str(seed), str(seconds), "1" if trace else "0", str(OUT)],
        CHILD_TIMEOUT_S,
    )
    own = {"setup_s": result["setup_s"], "setup_ref_s": result["setup_ref_s"]}
    result["setup_samples"] = before + [own] + probes()
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        import tracer

        units = tracer.layer_metric_units()
        return {k: {"value": result["layers"][k], "unit": u} for k, u in units.items()}
    return {
        "setup_s": {"value": statistics.median(
            s["setup_s"] * NOMINAL_REFERENCE_S / s["setup_ref_s"] for s in result["setup_samples"]
        ), "unit": "s"},
        "pass_cost": {"value": statistics.median(result["pass_cost"]), "unit": "ref"},
        "headroom_min": {"value": result["headroom_min"], "unit": "ratio"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polycauchy" / "__init__.py").is_file():
        print(f"no polycauchy sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    # Cached bytecode for every child, so set-up never times a compile.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    env = environment()
    print("env " + json.dumps(env))

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        metrics = metrics_of(result, trace)
        for failure in result["failures"]:
            print(f"FAIL {name} {failure}")
        named = {
            "setup_raw_s": (statistics.median(s["setup_s"] for s in result["setup_samples"]), "s"),
            "pass_s": (statistics.median(result["pass_s"]), "s"),
            **result["named"],
        }
        for metric, (value, unit) in named.items():
            print(f"{name} {metric} = {value!r} {unit}")
        print(f"{name}: {result['attempted'] - result['failed']} of {result['attempted']} checks "
              f"passed in {result['passes']} passes")
        record = {"env": env, "trace": trace, **result, "metrics": metrics}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        if len(names) == 1:
            total["metrics"] = metrics
        else:
            total["metrics"].update({f"{name}/{k}": v for k, v in metrics.items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
