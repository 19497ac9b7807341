"""hamstab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each phase runs in a fresh child process
(``child.py``) that imports ``hamstab`` from ``src/`` of this checkout, with
BLAS threads pinned to ``nproc`` and hamstab's thread pools capped there:

1. set-up: fresh processes, half before and half after step 2, import
   hamstab and resolve the workload's catalog entries; ``setup_s`` is
   their median;
2. untraced passes for ``--seconds``, checked against ``golden.json``,
   and the fast verdicts timed again, giving the end-to-end metrics;
3. with ``--trace 1``, traced passes that give the per-layer metrics, and
   ``trace.overhead_s`` against step 2.

Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh set-up processes, half before and half after the untraced passes.
SETUP_PROCESSES = 6
DEADLINE_S = 170.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    xs = sorted(values)
    return xs[max(math.ceil(q / 100.0 * len(xs)), 1) - 1]


def child(args, deadline: float, env) -> dict:
    """Run ``child.py`` to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hamstab" / "__init__.py").is_file():
        print(f"no hamstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    deadline = time.monotonic() + DEADLINE_S
    wl, seed = args.workload, args.seed

    def setup():
        return [child(["setup", wl, seed], deadline, env)["setup_s"] for _ in range(SETUP_PROCESSES // 2)]

    setups = setup()
    remaining = deadline - time.monotonic()
    budget = remaining / 3 if args.trace else remaining - 15.0
    run = child(["run", wl, seed, args.seconds, budget, 0], deadline, env)
    setups += setup()
    traced = None
    if args.trace:
        budget = deadline - time.monotonic() - 10.0
        traced = child(["run", wl, seed, args.seconds, budget, 1], deadline, env)

    # Other tenants slow a shared machine for sub-second to minute-long
    # stretches, so a run reports each pass and each verdict at its fastest:
    # the time the program needs, without the interference.
    walls = [p["wall_s"] for p in run["passes"]]
    lat_ms = [min(t) * 1000.0 for t in run["verdict_timings_s"].values()]
    timed = sum(len(t) for t in run["verdict_timings_s"].values())
    end_to_end = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "verdict_p50_ms": percentile(lat_ms, 50),
        "verdict_p90_ms": percentile(lat_ms, 90),
    }
    all_passes = run["passes"] + (traced["passes"] if traced else [])
    attempted = sum(p["ops"] for p in all_passes)
    failed_ops = [key for p in all_passes for key in p["failed"]]
    problems = [f"operation differs from the golden table: {key}" for key in dict.fromkeys(failed_ops)]

    per_layer = {}
    if traced:
        tpasses = traced["passes"]
        best = min(tpasses, key=lambda p: p["wall_s"])
        per_layer.update(best["layers"])
        # Fastest of as many traced as untraced passes, so neither side gets
        # more tries at a quiet moment.
        n = min(len(walls), len(tpasses))
        per_layer["trace.overhead_s"] = min(p["wall_s"] for p in tpasses[:n]) - min(walls[:n])
        if any(p["counts"] != tpasses[0]["counts"] for p in tpasses):
            problems.append(f"work counts differ between traced passes: {[p['counts'] for p in tpasses]}")
        if any(p["orphan_grids"] for p in tpasses):
            problems.append("a quadrature grid was built outside every integrate and certificate span")
        for binding in traced["unwrapped_bindings"]:
            problems.append(f"by-name binding not wrapped: {binding}")

    fingerprint = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        **run["versions"],
        "blas_threads": run["blas_threads"],
        "thread_pools_capped": run["thread_pools_capped"],
    }
    print(f"workload {wl}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"fingerprint {json.dumps(fingerprint)}")
    print(
        f"passes {len(walls)} untraced" + (f", {len(traced['passes'])} traced" if traced else "")
        + f"; {timed} verdicts timed, percentiles over {len(lat_ms)} distinct verdicts;"
        f" setup from {SETUP_PROCESSES} fresh processes"
    )
    if traced:
        print(f"traced bindings ({len(traced['traced_bindings'])}): {', '.join(traced['traced_bindings'])}")
    print(
        f"golden: {attempted - len(failed_ops)} of {attempted} operations match the table "
        f"recorded at seed 0 (this run: seed {seed})"
    )
    print(f"  {'failed_frac':34s} {len(failed_ops) / attempted:<14.6g} ratio")
    shown = dict(end_to_end, **per_layer)
    for m in bench["end_to_end"] + (bench["per_layer"] if traced else []):
        print(f"  {m['name']:34s} {shown[m['name']]:<14.6g} {m['unit']}")
    for problem in problems:
        print(f"FAIL {problem}")

    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
