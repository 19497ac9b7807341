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
