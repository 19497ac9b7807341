"""The benchmark's workloads: set-up, one pass, and the comparison of a pass's
outputs with the golden table.

Every workload is a closed loop with one client.  A pass returns its
operations as ``{key: record}``: a report check on ``paper``, a verdict on
``catalog`` and ``form_assembly``.  Floats are compared with the report's
own tolerances, so last-digit moves pass and a changed label, witness probe
ID or pass flag fails.
"""

from __future__ import annotations

import random
import re

from hamstab import analyzer, catalog, verification

FORM_ASSEMBLY_ID = "hyperbola:n=3,r=1,1,1,eps=+,+,+"
MAX_CATALOG_AXES = 2

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
TOLERANCE = re.compile(r"\b(rel|rtol|abs)\s+(\S+)")


def program_seed(seed: int) -> int:
    """The seed handed to ``run_all`` and ``classify``."""
    return seed % 2**31


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int):
    """Resolve the workload's catalog entries; returns the pass's inputs."""
    if workload == "paper":
        # run_all resolves its own entries; resolving the suite's catalog here
        # keeps setup_s the same measurement on every workload.
        entries = [catalog.resolve(cid) for cid in catalog.default_catalog_ids()]
        return {"seed": program_seed(seed), "entries": entries}
    if workload == "catalog":
        jobs = []
        for cid in catalog.default_catalog_ids():
            entry = catalog.resolve(cid)
            if len(entry.functional.domains) > MAX_CATALOG_AXES:
                continue
            for strategy in dict.fromkeys((entry.default_strategy, "fourier_sweep")):
                jobs.append((cid, entry, strategy))
        random.Random(seed).shuffle(jobs)
        return {"seed": program_seed(seed), "jobs": jobs}
    if workload == "form_assembly":
        return {"seed": program_seed(seed), "entry": catalog.resolve(FORM_ASSEMBLY_ID)}
    raise ValueError(f"unknown workload {workload!r}")


# -------------------------------------------------------------------- pass

def _verdict_record(verdict) -> dict:
    sides = (("pos", verdict.witness_pos), ("neg", verdict.witness_neg))
    return {
        "label": verdict.label,
        "witnesses": [[side, w.probe_id, w.value] for side, w in sides if w is not None],
        "rtol": verdict.tolerances.get("witness_rtol", analyzer.WITNESS_RTOL),
    }


def run_pass(workload: str, state) -> dict:
    """One pass of the workload; returns its operations by key."""
    seed = state["seed"]
    if workload == "paper":
        report = verification.run_all(seed=seed, threads=1)
        return {
            check["check_id"]: {
                "passed": check["passed"],
                "actual": check["actual"],
                "tolerance": check["tolerance"],
            }
            for crit in report["criteria"]
            for check in crit["checks"]
        }
    if workload == "catalog":
        out = {}
        for cid, entry, strategy in state["jobs"]:
            out[f"{cid}|{strategy}"] = _verdict_record(analyzer.classify(entry, strategy=strategy, seed=seed))
        for row in analyzer.compute_tube_table(seed=seed):
            for metric in ("G", "Gprime"):
                cell = row[metric]
                key = f"tube-table|{row['space']}:{row['geodesic']}-{row['induced']}:{metric}"
                out[key] = {
                    "label": cell["label"],
                    "witnesses": [["any", w["probe_id"], w["value"]] for w in cell["witnesses"]],
                    "rtol": analyzer.WITNESS_RTOL,
                    "match": cell["match"],
                }
        return out
    if workload == "form_assembly":
        verdict = analyzer.classify(state["entry"], strategy="fourier_sweep", seed=seed)
        return {f"{FORM_ASSEMBLY_ID}|fourier_sweep": _verdict_record(verdict)}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- comparison

def _close(x: float, y: float, kind: str, tol: float) -> bool:
    if kind == "abs":
        return abs(x - y) <= tol
    if kind == "rel":
        return abs(x - y) <= tol * max(abs(y), 1.0)
    return (x > 0) == (y > 0) and (x < 0) == (y < 0)


def _same_actual(actual: str, golden: str, tolerance: str) -> bool:
    """Same text around the numbers, and each number within the check's
    own tolerance ("rel 1e-9", "abs 1e-12", "sign"; anything else exact)."""
    m = TOLERANCE.search(tolerance)
    if m:
        kind, tol = ("abs" if m.group(1) == "abs" else "rel"), float(m.group(2))
    elif tolerance.strip() == "sign":
        kind, tol = "sign", 0.0
    else:
        return actual == golden
    if NUMBER.sub("#", actual) != NUMBER.sub("#", golden):
        return False
    return all(
        _close(float(x), float(y), kind, tol)
        for x, y in zip(NUMBER.findall(actual), NUMBER.findall(golden))
    )


def _same_record(rec: dict, gold: dict) -> bool:
    if "actual" in gold:
        return (
            rec["passed"] == gold["passed"]
            and rec["tolerance"] == gold["tolerance"]
            and _same_actual(rec["actual"], gold["actual"], gold["tolerance"])
        )
    if rec["label"] != gold["label"] or rec.get("match") != gold.get("match"):
        return False
    if [w[:2] for w in rec["witnesses"]] != [w[:2] for w in gold["witnesses"]]:
        return False
    return all(_close(w[2], g[2], "rel", gold["rtol"]) for w, g in zip(rec["witnesses"], gold["witnesses"]))


def compare(outputs: dict, golden: dict) -> list[str]:
    """Keys of the operations that are missing, unexpected or differ."""
    failed = [key for key in golden if key not in outputs or not _same_record(outputs[key], golden[key])]
    return failed + [key for key in outputs if key not in golden]
