"""The benchmark's tracer wraps hamstab functions by name; it must find them all."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter (writing no bytecode next to the benchmark), so
# the wrappers never reach this process.
_INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracer
recorder = tracer.Tracer()
recorder.install()
print(json.dumps(recorder.unwrapped_bindings()))
"""


def test_tracer_installs_on_every_hook():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_committed_bench_records_name_their_runs():
    # every BENCH_<n>.json at the root records how it was measured, and each
    # run names its side and a workload the benchmark declares
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert {"command", "machine", "parent", "runs"} <= record.keys(), path.name
        assert record["runs"], path.name
        for run in record["runs"]:
            assert run["side"] in ("parent", "change"), path.name
            assert run["workload"] in workloads, path.name
