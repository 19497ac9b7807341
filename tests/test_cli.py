import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hamstab import verification
from hamstab.cli import main
from hamstab.quadrature import GridTooLargeError


@pytest.fixture()
def runner():
    return CliRunner()


def test_analyze_json(runner):
    result = runner.invoke(main, ["analyze", "--catalog-id", "torus:n=2,r=1,1,p=1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["label"] == "indefinite"
    assert payload["catalog_id"] == "torus:n=2,r=1,1,p=1"
    assert {w["probe_id"] for w in payload["witnesses"]} == {"mode:k=2,0", "mode:k=1,1"}


def test_analyze_csv(runner):
    result = runner.invoke(
        main, ["analyze", "--catalog-id", "hyperbola:n=2,r=1,3,eps=+,+", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "catalog_id,label,strategy,probe_id,value"
    assert "negative_definite" in lines[1]


def test_analyze_strategy_override(runner):
    result = runner.invoke(
        main,
        ["analyze", "--catalog-id", "tube:S3:closed:G", "--strategy", "fourier_sweep"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["strategy"] == "fourier_sweep"
    assert payload["label"] == "indefinite"


def test_analyze_tn_spectral_open_curve(runner):
    result = runner.invoke(
        main, ["analyze", "--catalog-id", "tn:kappa=1,K=0", "--strategy", "spectral_criterion"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["label"] == "inconclusive"


def test_analyze_scaling_probe_on_circle_axes(runner):
    result = runner.invoke(
        main, ["analyze", "--catalog-id", "torus:n=1,r=1,p=0", "--strategy", "scaling_probe"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["label"] == "inconclusive"
    assert any("circle" in note for note in payload["notes"])


def test_analyze_unknown_id_is_usage_error(runner):
    result = runner.invoke(main, ["analyze", "--catalog-id", "bogus:x=1"])
    assert result.exit_code == 2
    assert "unknown catalog kind" in result.output


def test_sweep_modes(runner):
    result = runner.invoke(
        main, ["sweep", "--catalog-id", "torus:n=1,r=1,p=0", "--axis", "mode:kmax=4"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,value"
    import numpy as np

    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([np.pi * (k**4 - k**2) for k in range(1, 5)])


def test_sweep_radius_all_negative(runner):
    result = runner.invoke(
        main,
        ["sweep", "--catalog-id", "torus:n=2,r=1,1,p=1", "--axis", "radius:lo=0.5,hi=2,steps=7"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()[1:]
    assert len(lines) == 7
    assert all(float(line.split(",")[1]) < 0 for line in lines)


def test_sweep_kappa_verdict_flip(runner):
    length = 4 * 3.141592653589793
    result = runner.invoke(
        main,
        [
            "sweep",
            "--catalog-id",
            f"tn:kappa=1,K=0,L={length:.17g}",
            "--axis",
            "kappa:lo=0,hi=2,steps=9",
        ],
    )
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
    verdicts = [row[-1] for row in rows]
    assert "stable" in verdicts and "inconclusive" in verdicts
    flip = verdicts.index("inconclusive")
    # the threshold for L = 4 pi sits at kappa = 1
    assert float(rows[flip][0]) > 1.0
    assert all(v == "stable" for v in verdicts[:flip])


@pytest.mark.parametrize(
    "cid, bad",
    [
        ("tn:kappa=0,5,K=-1", "kappa takes a single value"),
        ("tn:kappa=1,K=0,-1", "K takes a single value"),
        ("tn:kappa=1,K=0,L=6,7", "L takes a single value"),
    ],
)
def test_analyze_multi_valued_tn_parameter_is_a_usage_error(runner, cid, bad):
    result = runner.invoke(main, ["analyze", "--catalog-id", cid])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert bad in result.output


SWEEP = ["sweep", "--catalog-id", "torus:n=1,r=1,p=0", "--axis", "mode:kmax=4"]


@pytest.mark.parametrize(
    ("command", "option"),
    [
        (SWEEP, ["--grid", "8"]),
        (SWEEP, ["--box", "10"]),
        (SWEEP, ["--seed", "1"]),
        (["analyze", "--catalog-id", "tn:kappa=0,K=-1"], ["--seed", "1"]),
        (["tube-table"], ["--seed", "1"]),
    ],
    ids=["grid", "box", "seed", "analyze-seed", "tube-table-seed"],
)
def test_sweep_takes_no_grid_box_or_seed(runner, command, option):
    # sweep rows are closed-form; analyze and tube-table make no random draw
    result = runner.invoke(main, [*command, *option])
    assert result.exit_code == 2
    assert "No such option" in result.output and option[0] in result.output


def test_sweep_bad_axis(runner):
    result = runner.invoke(
        main, ["sweep", "--catalog-id", "torus:n=1,r=1,p=0", "--axis", "nope:x=1"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "cid, axis, bad",
    [
        ("torus:n=1,r=1,p=0", "mode:kmax=abc", "'abc'"),
        ("torus:n=1,r=1,p=0", "mode:kmax=0", "got 0"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=a,hi=2,steps=7", "'a'"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=0.5,hi=2,steps=-1", "got -1"),
        ("tn:kappa=1,K=0", "kappa:lo=0,hi=x,steps=3", "'x'"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=0.5,0.7,hi=2,steps=2", "lo takes a single value"),
        ("tn:kappa=1,K=0", "kappa:lo=0,hi=1,2,steps=3", "hi takes a single value"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=-1,hi=1,steps=3", "radius ratios must be positive"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=1,hi=0,steps=3", "radius ratios must be positive"),
        ("torus:n=1,r=1,p=0", "mode:kmax=100000000", "got 100000000"),
        ("torus:n=2,r=1,1,p=1", "radius:lo=1,hi=2,steps=100000000", "got 100000000"),
        ("tn:kappa=1,K=0", "kappa:lo=0,hi=1,steps=100000000", "got 100000000"),
    ],
)
def test_sweep_bad_values_are_usage_errors(runner, cid, axis, bad):
    result = runner.invoke(main, ["sweep", "--catalog-id", cid, "--axis", axis])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert bad in result.output


def test_tube_table_text(runner):
    result = runner.invoke(main, ["tube-table"])
    assert result.exit_code == 0
    assert "all rows match: True" in result.output
    assert result.output.count("stated unstable") == 12
    assert result.output.count("stated stable") == 4


def test_tube_table_json(runner):
    result = runner.invoke(main, ["tube-table", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_match"] is True
    assert len(payload["rows"]) == 8


def test_verify_paper_subset(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-paper", "--criteria", "5,12", "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert [c["id"] for c in report["criteria"]] == [5, 12]


def test_verify_paper_csv(runner):
    result = runner.invoke(main, ["verify-paper", "--criteria", "5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("criterion,check_id,")
    assert all(line.endswith(",True") for line in lines[1:])


def test_verify_paper_subset_determinism(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = runner.invoke(main, ["verify-paper", "--criteria", "2,4,5,12", "--threads", "1", "--out", str(a)])
    r2 = runner.invoke(main, ["verify-paper", "--criteria", "2,4,5,12", "--threads", "4", "--out", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_is_identical_across_blas_thread_counts():
    # the weighted jet Gram goes through BLAS, whose thread count is fixed
    # when numpy loads: one fresh process per count, for a dilation family
    # and for the tube table
    src = str(Path(__file__).resolve().parents[1] / "src")
    analyze = ["analyze", "--strategy", "scaling_probe", "--catalog-id", "hyperbola:n=3,r=1,1,1,eps=+,+,+"]
    for args, marker in ((analyze, b"indefinite"), (["tube-table", "--format", "json"], b'"all_match": true')):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "hamstab", *args], env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args
        assert marker in outputs[0]


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it would cost most of a
    # command's start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, hamstab, hamstab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"


def test_verify_paper_coarse_grid_fails_with_diagnostics(runner, tmp_path):
    out = tmp_path / "coarse.json"
    result = runner.invoke(main, ["verify-paper", "--criteria", "6", "--grid", "8", "--out", str(out)])
    assert result.exit_code == 1
    assert "FAILED checks" in result.output
    report = json.loads(out.read_text())
    failing = [
        c for crit in report["criteria"] for c in crit["checks"] if not c["passed"]
    ]
    assert failing
    # the failing record carries the tolerance and the measured value
    assert any("rel 1e-9" in c["tolerance"] for c in failing)


def test_verify_paper_bad_criteria(runner):
    result = runner.invoke(main, ["verify-paper", "--criteria", "99"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify-paper", "--criteria", "abc"])
    assert result.exit_code == 2


def test_verify_paper_rejects_an_empty_criteria_list(runner):
    with pytest.raises(ValueError, match="nonempty"):
        verification.run_all(criteria=[])
    for criteria in (",", ""):
        result = runner.invoke(main, ["verify-paper", "--criteria", criteria])
        assert result.exit_code == 2
        assert "nonempty" in result.output


def test_bad_grid_option(runner):
    result = runner.invoke(main, ["verify-paper", "--criteria", "5", "--grid", "2"])
    assert result.exit_code == 2


def test_analyze_oversized_grid_is_a_usage_error(runner):
    # 96^4 = 85 M mesh points on a 4-axis entry: exit 2 before the mesh exists
    cid = "hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+"
    result = runner.invoke(main, ["analyze", "--catalog-id", cid, "--grid", "96"])
    assert result.exit_code == 2
    assert "84934656 points" in result.output
    assert isinstance(result.exception, SystemExit)


def test_analyze_oversized_lattice_scan_is_a_usage_error(runner):
    # 9 circle axes have (9^9 - 1) / 2 = 194 M canonical modes: exit 2
    # before the mode table exists
    cid = "torus:n=9,r=" + ",".join(["1"] * 9) + ",p=3"
    result = runner.invoke(main, ["analyze", "--catalog-id", cid])
    assert result.exit_code == 2
    assert "193710244 modes" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args, message",
    [
        (["analyze", "--catalog-id", "plane:n=2,p=0", "--box", "3"], "at the box boundary"),
        (["analyze", "--catalog-id", "plane:n=2,p=0", "--box", "20000"], "exceeds the domain truncation"),
        (["tube-table", "--box", "3"], "at the box boundary"),
        (["verify-paper", "--box", "3", "--criteria", "7"], "at the box boundary"),
        (["verify-paper", "--box", "20000", "--criteria", "7"], "exceeds the domain truncation"),
    ],
)
def test_box_cutting_a_support_is_a_usage_error(runner, args, message):
    # a --box that cuts a probe's support or exceeds a domain's truncation
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert message in result.output
    assert isinstance(result.exception, SystemExit)


def test_verify_paper_oversized_grid_is_a_usage_error(runner, monkeypatch):
    # run_all passes the error on instead of reporting a failed criterion
    def oversized(ctx):
        raise GridTooLargeError("a 96 x 96 x 96 x 96 quadrature mesh has 84934656 points")

    monkeypatch.setattr(verification, "CRITERIA", [(4, "hyperbola products", oversized)])
    with pytest.raises(GridTooLargeError):
        verification.run_all(criteria=[4])
    result = runner.invoke(main, ["verify-paper", "--criteria", "4", "--threads", "2"])
    assert result.exit_code == 2
    assert "84934656 points" in result.output
    assert isinstance(result.exception, SystemExit)
