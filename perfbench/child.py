"""One fresh process of the benchmark.

    child.py setup WORKLOAD SEED
        import hamstab and resolve the workload's catalog entries; print the time.
    child.py run WORKLOAD SEED SECONDS BUDGET TRACE
        set up, then run passes until SECONDS have passed, checking each
        against the golden table; untraced, time the fast verdicts again,
        and traced (TRACE 1), summarise each pass's spans.

The last line of standard output is one JSON object.  The script puts
``src/`` of the checkout first on ``sys.path``; ``run.py`` starts it with
BLAS threads pinned.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# Traced runs compare the work counts of two passes; an untraced run makes
# one pass at least, then more until --seconds have passed.
MIN_PASSES = {False: 1, True: 2}
# Verdicts faster than REPLAY_BELOW_S are timed again after the passes until
# each has TIMINGS timings, since a paper pass holds each verdict once.
REPLAY_BELOW_S = 1.0
TIMINGS = 16


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _by_occurrence(latencies) -> dict:
    """``{"key#k": (seconds, args, kwargs)}`` for the k-th call with each key
    in one pass."""
    seen: dict = {}
    out = {}
    for key, *call in latencies:
        seen[key] = seen.get(key, 0) + 1
        out[f"{key}#{seen[key]}"] = call
    return out


def _replay(verdicts, classify, deadline: float) -> dict:
    """Time the fast verdicts of the first pass again; returns each
    verdict's timings from the passes and the replays."""
    timings = {key: [v[key][0] for v in verdicts if key in v] for key in verdicts[0]}
    fast = {key: call for key, call in verdicts[0].items() if min(timings[key]) < REPLAY_BELOW_S}
    while any(len(timings[key]) < TIMINGS for key in fast) and time.perf_counter() < deadline:
        for key, (_, args, kwargs) in fast.items():
            t = time.perf_counter()
            classify(*args, **kwargs)
            timings[key].append(time.perf_counter() - t)
    return timings


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    traced = mode == "run" and argv[5] == "1"
    t0 = time.perf_counter()
    import workloads

    src = Path(workloads.verification.__file__).resolve().parents[1]
    if src != HERE.parent / "src":
        raise SystemExit(f"hamstab imported from {src}, not from this checkout")
    import tracer

    recorder = tracer.Tracer() if traced else None
    if recorder is not None:
        recorder.install()
    state = workloads.setup(workload, seed)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    seconds, budget = float(argv[3]), float(argv[4])
    capped = tracer.cap_threads(len(os.sched_getaffinity(0)))
    latencies: list = []
    if recorder is None:
        tracer.time_verdicts(latencies)
    golden = json.loads(GOLDEN.read_text())["workloads"][workload]
    passes = []
    verdicts = []
    start = time.perf_counter()
    while True:
        if recorder is not None:
            recorder.spans.clear()
        latencies.clear()
        t = time.perf_counter()
        outputs = workloads.run_pass(workload, state)
        wall = time.perf_counter() - t
        record = {
            "wall_s": wall,
            "ops": len(set(outputs) | set(golden)),
            "failed": workloads.compare(outputs, golden),
        }
        if recorder is not None:
            record["layers"], record["counts"], record["orphan_grids"] = tracer.summarize(recorder.spans)
        passes.append(record)
        verdicts.append(_by_occurrence(latencies))
        elapsed = time.perf_counter() - start
        # Stop after --seconds, or when another pass would overrun the budget.
        if len(passes) >= MIN_PASSES[traced] and (elapsed >= seconds or elapsed + wall > budget):
            break
    timings = {}
    if recorder is None:
        deadline = time.perf_counter() + min(seconds, budget - (time.perf_counter() - start))
        timings = _replay(verdicts, workloads.analyzer.classify, deadline)

    import numpy
    import scipy

    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "verdict_timings_s": timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "thread_pools_capped": capped,
        "traced_bindings": recorder.bindings if recorder else [],
        "unwrapped_bindings": recorder.unwrapped_bindings() if recorder else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas_threads": _blas_threads(),
    }))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    main(sys.argv[1:])
