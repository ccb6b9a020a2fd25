"""One workload in a fresh process; started by run.py, not by hand.

    worker.py setup WORKLOAD
        Import polycauchy and cold-build the Gauss-Laguerre grids the
        workload uses; print {"setup_s": ..., "setup_ref_s": ...}.
    worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        Set up the same way, then run passes of the workload for about
        SECONDS seconds, check every pass, and print one JSON line.

Set-up time runs from the first line of this file, before numpy and
polycauchy are imported, to the last grid built.
"""

from time import perf_counter

_T0 = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Stay on one CPU: each CPU of the host this was built on drifts in
# speed on its own, and the reference kernel must run where the work runs.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

ROOT = Path(__file__).resolve().parent.parent

# Gauss-Laguerre node counts each workload uses; set-up builds them cold.
SETUP_NODES = {"verify-all": (24, 64, 128), "spectrum": (64,), "field-eval": ()}


def set_up(name: str, trace: bool = False):
    """Import the checkout's polycauchy and build the workload's grids.

    Returns (module, tracer or None, seconds).  With ``trace`` the
    grid builds are traced as the set-up phase.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import polycauchy

    if Path(polycauchy.__file__).resolve().parent != ROOT / "src" / "polycauchy":
        raise RuntimeError(f"imported polycauchy from {polycauchy.__file__}, not this checkout")
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    with tracer.phase("setup") if tracer else contextlib.nullcontext():
        for n in SETUP_NODES[name]:
            polycauchy.gaussian_quadrature.build_polar_grid(n)
    return polycauchy, tracer, perf_counter() - _T0


def reference_after_setup() -> float:
    """Median of three reference-kernel times, taken right after set-up."""
    import statistics

    from reference import reference_s

    return statistics.median(reference_s() for _ in range(3))


def run(name: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    pc, tracer, setup_s = set_up(name, trace)
    setup_ref_s = reference_after_setup()

    import gate as g
    import workloads

    workload = workloads.WORKLOADS[name]

    state = workload.prepare(pc, seed, outdir)
    checks = g.Gate()
    times, traced_walls = [], []
    start = perf_counter()
    k = 0
    # A traced run alternates untraced and traced passes, so the
    # overhead is measured on neighbouring passes; it ends on a pair.
    while True:
        began = perf_counter()
        traced = trace and k % 2 == 1
        with tracer.phase("pass") if traced else contextlib.nullcontext():
            t, out = workload.run_pass(pc, state, k)
        if traced:
            traced_walls.append(t["pass_s"])
        else:
            times.append(t)
        workload.check(pc, checks, state, out)
        del out
        k += 1
        last = perf_counter() - began
        if k >= 2 and k % (2 if trace else 1) == 0 and perf_counter() - start + last > seconds:
            break

    result = {
        "workload": name,
        "seed": seed,
        "passes": k,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "pass_s": [t["pass_s"] for t in times],
        "pass_cost": [t["pass_cost"] for t in times],
        "traced_pass_s": traced_walls,
        "named": workload.named(times),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "headroom_min": checks.headroom_min(),
    }
    if trace:
        import tracer as tracing

        result["layers"] = tracing.layer_metrics(
            tracer,
            state.get("suite_headroom", {}),
            traced_walls,
            [t["pass_s"] for t in times],
        )
        tracer.write(str(outdir / f"spans-{name}-seed{seed}.tsv.gz"))
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        _, _, setup_s = set_up(argv[1])
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": reference_after_setup()}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 6:
        _, name, seed, seconds, trace, outdir = argv
        result = run(name, int(seed), float(seconds), trace == "1", Path(outdir))
        print(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
