"""Acceptance suite: every criterion at its stated tolerance.

Runs the full reproduction suite once (shared fixture) and asserts each
criterion separately, printing one pass/fail line per criterion (run with
``pytest -s tests/test_acceptance.py`` to watch them stream).  The final
test exercises the CLI determinism requirement end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hamstab.cli import main
from hamstab.quadrature import GridSpec
from hamstab.verification import CRITERIA, run_all, run_criterion

CRITERION_IDS = [num for num, _, _ in CRITERIA]
CRITERION_TITLES = {num: title for num, title, _ in CRITERIA}
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"

# Compares paper-pass records read from stdin with the golden table by the
# benchmark's own rule, in a fresh interpreter that writes no bytecode next
# to the benchmark; prints the keys of the failed operations.
_COMPARE = """
import json, sys
sys.path[:0] = sys.argv[2:]
import workloads
with open(sys.argv[1], encoding="utf-8") as fh:
    golden = json.load(fh)["workloads"]["paper"]
print(json.dumps(workloads.compare(json.load(sys.stdin), golden)))
"""

# Runs one seed-0 pass of each verdict workload and compares it with the
# golden table by the benchmark's own rule, in a fresh interpreter that writes
# no bytecode next to the benchmark; prints the keys of the failed operations
# by workload.
_RUN_AND_COMPARE = """
import json, sys
sys.path[:0] = sys.argv[2:]
import workloads
with open(sys.argv[1], encoding="utf-8") as fh:
    golden = json.load(fh)["workloads"]
failed = {}
for name in ("catalog", "form_assembly"):
    outputs = workloads.run_pass(name, workloads.setup(name, 0))
    failed[name] = workloads.compare(outputs, golden[name])
print(json.dumps(failed))
"""


@pytest.fixture(scope="session")
def full_report():
    return run_all()


@pytest.mark.parametrize("criterion", CRITERION_IDS)
def test_criterion(full_report, criterion):
    block = next(c for c in full_report["criteria"] if c["id"] == criterion)
    status = "PASS" if block["passed"] else "FAIL"
    print(
        f"ACCEPTANCE criterion {criterion:2d} [{CRITERION_TITLES[criterion]}]: "
        f"{status} ({len(block['checks'])} checks)"
    )
    failing = [c for c in block["checks"] if not c["passed"]]
    for c in failing:
        print(
            f"    FAILED {c['check_id']}: expected {c['expected']}, got {c['actual']} "
            f"(tolerance {c['tolerance']})"
        )
    assert not failing, f"criterion {criterion} failed: {[c['check_id'] for c in failing]}"


def test_criterion_6_survives_a_trig_probe_constant_along_an_axis():
    # seed 316 draws a random trigonometric probe whose wavenumbers on one
    # axis are all 0 (period 0.0 there)
    checks = {c.check_id: c for c in run_criterion(6, seed=316)}
    assert set(checks) == {"reilly", "bochner"}
    assert all(c.passed for c in checks.values())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="24 Gauss-Legendre nodes over the bumps' box of 10 do not resolve them: "
    "reilly reads worst rel 3.875e+00 (it passes at 24 circle and 96 line nodes)",
)
def test_criterion_6_reilly_at_24_nodes_and_seed_3():
    # verify-paper --grid 24 --seed 3
    checks = {c.check_id: c for c in run_criterion(6, GridSpec(circle_nodes=24, line_nodes=24), seed=3)}
    assert checks["reilly"].passed, checks["reilly"].actual


def test_zero_valued_checks_print_against_their_floor(full_report):
    checks = {c["check_id"]: c for block in full_report["criteria"] for c in block["checks"]}
    for check_id in ("torus-wave:laplacian-term", "torus-wave:marginal"):
        assert checks[check_id]["actual"] == "0"
        assert checks[check_id]["expected"] == "0 (|x| < 1e-12 prints as 0)"
    assert checks["sphere-marginal-mode"]["actual"].startswith("value 0, ")
    # on the coarse grid the rounding noise has the other sign; the text does not move
    coarse = {c.check_id: c for c in run_criterion(8, GridSpec(circle_nodes=8, line_nodes=8))}
    assert coarse["sphere-marginal-mode"].actual == checks["sphere-marginal-mode"]["actual"]


def test_report_matches_the_benchmark_golden_table(full_report):
    # the table was recorded at seed 0, the fixture's seed, and perfbench
    # compares a paper pass with it by check ID: a new or renamed report
    # line, a moved digit beyond a check's tolerance, a changed text or a
    # flipped pass flag fails
    with open(GOLDEN, encoding="utf-8") as fh:
        assert json.load(fh)["recorded_at_seed"] == 0
    checks = [check for block in full_report["criteria"] for check in block["checks"]]
    records = {c["check_id"]: {"passed": c["passed"], "actual": c["actual"], "tolerance": c["tolerance"]} for c in checks}
    assert len(records) == len(checks)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _COMPARE, str(GOLDEN), str(ROOT / "perfbench"), str(ROOT / "src")],
        input=json.dumps(records),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.fixture(scope="module")
def verdict_workload_failures():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _RUN_AND_COMPARE, str(GOLDEN), str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["catalog", "form_assembly"])
def test_verdict_workload_matches_the_benchmark_golden_table(verdict_workload_failures, workload):
    # the tie walks that decide witness IDs read the integrand's rounding, so
    # a changed label, witness ID or value beyond its tolerance fails here
    assert verdict_workload_failures[workload] == []


def test_report_passes_overall(full_report):
    assert full_report["passed"] is True
    assert len(full_report["criteria"]) == 12


def test_verify_paper_cli_byte_determinism(tmp_path):
    """Criterion 12 end to end: two CLI runs with different thread counts
    produce byte-identical JSON reports."""
    runner = CliRunner()
    paths = []
    for threads in (1, 4):
        out = tmp_path / f"report-threads{threads}.json"
        result = runner.invoke(main, ["verify-paper", "--threads", str(threads), "--out", str(out)])
        assert result.exit_code == 0, result.output
        paths.append(out)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    report = json.loads(first)
    assert report["passed"] is True
    print("ACCEPTANCE criterion 12 [CLI byte determinism]: PASS (full report, threads 1 vs 4)")
