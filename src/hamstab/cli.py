"""Batch front door: reproduction suite, per-entry analysis, parameter
sweeps, and the geodesic-tube table.

Reports are deterministic functions of (grid, seed), the seed for
verify-paper only (analyze, sweep and tube-table make no random draw):
identical invocations produce byte-identical output regardless of
--threads.  Exit codes:
0 success, 1 check failure (for tube-table, a row mismatch), 2 usage error,
including a --grid whose quadrature mesh would exceed the point cap
(:data:`hamstab.quadrature.MAX_MESH_POINTS`) on some entry's axes and a
--box that cuts a probe's support or exceeds a domain's truncation
(:class:`hamstab.quadrature.SupportError`).
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from .analyzer import classify, compute_tube_table, torus_mode_value, wirtinger_bound
from .catalog import CatalogIdError, CurveData, _float, _int, _parse_kv, resolve
from .quadrature import GridSpec, GridTooLargeError, SupportError
from .verification import run_all

STRATEGIES = ["fourier_sweep", "scaling_probe", "sos_certificate", "spectral_criterion"]
# Largest kmax or steps of a sweep; checked before any row is built.
MAX_SWEEP_ROWS = 100_000


def _gridspec(grid: int | None, box: float | None) -> GridSpec | None:
    if grid is None and box is None:
        return None
    kwargs = {}
    if grid is not None:
        kwargs["circle_nodes"] = grid
        kwargs["line_nodes"] = grid
    if box is not None:
        kwargs["line_box"] = box
    try:
        return GridSpec(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@click.group()
@click.version_option(package_name="hamstab")
def main() -> None:
    """Hamiltonian stability of Lagrangian submanifolds: reproduction suite,
    catalog analysis, sweeps, and the geodesic-tube table."""


@main.command("verify-paper")
@click.option("--grid", type=int, default=None, help="nodes per axis override (circle and line)")
@click.option("--box", type=float, default=None, help="line truncation half-width override")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, help="seed for random probes")
@click.option("--threads", type=int, default=1, help="worker threads over criteria")
@click.option("--criteria", default=None, help="comma-separated criterion subset, e.g. '1,5,9'")
def verify_paper(grid, box, fmt, out, seed, threads, criteria) -> None:
    """Run every reproduction check; nonzero exit on any failure."""
    subset = None
    if criteria is not None:
        try:
            subset = [int(x) for x in criteria.split(",") if x.strip()]
        except ValueError:
            raise click.UsageError(f"bad criteria list {criteria!r}")
    try:
        report = run_all(gridspec=_gridspec(grid, box), seed=seed, threads=threads, criteria=subset)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        text = _to_json(report)
    else:
        header = ["criterion", "check_id", "description", "reference", "expected", "actual", "tolerance", "passed"]
        rows = [
            [c["criterion"], c["check_id"], c["description"], c["reference"], c["expected"], c["actual"], c["tolerance"], c["passed"]]
            for crit in report["criteria"]
            for c in crit["checks"]
        ]
        text = _rows_to_csv(header, rows)
    _emit(text, out)
    if not report["passed"]:
        failed = [
            c["check_id"]
            for crit in report["criteria"]
            for c in crit["checks"]
            if not c["passed"]
        ]
        click.echo(f"FAILED checks: {', '.join(failed)}", err=True)
        sys.exit(1)


@main.command()
@click.option("--catalog-id", required=True, help="entry ID, e.g. 'torus:n=2,r=1,1,p=1'")
@click.option("--strategy", type=click.Choice(STRATEGIES), default=None)
@click.option("--grid", type=int, default=None)
@click.option("--box", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(), default=None)
def analyze(catalog_id, strategy, grid, box, fmt, out) -> None:
    """Classify one catalog entry and emit the verdict record.  Every
    catalog functional has a constant jet form, so no random draw runs and
    it takes no seed."""
    try:
        entry = resolve(catalog_id)
    except CatalogIdError as exc:
        raise click.UsageError(str(exc))
    try:
        verdict = classify(entry, strategy=strategy, gridspec=_gridspec(grid, box))
    except (GridTooLargeError, SupportError) as exc:
        raise click.UsageError(str(exc))
    payload = verdict.to_json_dict()
    if fmt == "json":
        text = _to_json(payload)
    else:
        header = ["catalog_id", "label", "strategy", "probe_id", "value"]
        rows = [
            [payload["catalog_id"], payload["label"], payload["strategy"], w["probe_id"], w["value"]]
            for w in payload["witnesses"]
        ] or [[payload["catalog_id"], payload["label"], payload["strategy"], "", ""]]
        text = _rows_to_csv(header, rows)
    _emit(text, out)


@main.command()
@click.option("--catalog-id", required=True)
@click.option("--axis", "axis_spec", required=True, help="sweep axis, e.g. 'mode:kmax=6', 'radius:lo=0.5,hi=2,steps=16', 'kappa:lo=0,hi=2,steps=21'")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def sweep(catalog_id, axis_spec, fmt, out) -> None:
    """Sweep one parameter of a catalog family; deterministic row order.
    Rows are closed-form, so a sweep takes no grid, box or seed."""
    try:
        entry = resolve(catalog_id)
        header, rows = _run_sweep(entry, axis_spec)
    except CatalogIdError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        text = _rows_to_csv(header, rows)
    else:
        text = _to_json([dict(zip(header, row)) for row in rows])
    _emit(text, out)


def _count(vals: list[str], what: str) -> int:
    value = _int(vals, what)
    if not 1 <= value <= MAX_SWEEP_ROWS:
        raise CatalogIdError(f"{what} must be an integer in [1, {MAX_SWEEP_ROWS}], got {value}")
    return value


def _run_sweep(entry, axis_spec: str):
    name, rest = axis_spec.split(":", 1) if ":" in axis_spec else (axis_spec, None)
    if name not in ("mode", "radius", "kappa"):
        raise CatalogIdError(f"unknown sweep axis {name!r} (known: mode, radius, kappa)")
    if rest is None:
        raise CatalogIdError(f"sweep axis {axis_spec!r} needs the form 'name:key=value,...'")
    if name == "mode":
        kv = _parse_kv(rest, {"kmax": True})
        if entry.kind != "torus":
            raise CatalogIdError("mode sweeps apply to torus entries")
        kmax = _count(kv["kmax"], "kmax")
        radii, p = entry.params["radii"], entry.params["p"]
        rows = []
        for k in range(1, kmax + 1):
            mode = [0] * len(radii)
            mode[0] = k
            rows.append([k, repr(torus_mode_value(radii, p, mode))])
        return ["k", "value"], rows
    kv = _parse_kv(rest, {"lo": True, "hi": True, "steps": True})
    lo, hi = _float(kv["lo"], "lo"), _float(kv["hi"], "hi")
    steps = _count(kv["steps"], "steps")
    if name == "radius":
        if entry.kind != "torus" or entry.params["n"] != 2:
            raise CatalogIdError("radius-ratio sweeps apply to two-axis torus entries")
        if min(lo, hi) <= 0:
            raise CatalogIdError(f"radius ratios must be positive, got lo={lo:g}, hi={hi:g}")
        r2 = entry.params["radii"][1]
        p = entry.params["p"]
        rows = []
        for ratio in np.linspace(lo, hi, steps):
            value = torus_mode_value((ratio * r2, r2), p, (1, 1))
            rows.append([repr(float(ratio)), repr(value)])
        return ["r1_over_r2", "wave_mode_value"], rows
    if entry.kind != "tn":
        raise CatalogIdError("kappa sweeps apply to tangent-bundle entries")
    K = entry.params["K"]
    length = entry.params["length"]
    rows = []
    for kappa in np.linspace(lo, hi, steps):
        curve = CurveData(kappa=float(kappa), K_along=K, closed=length is not None, length=length)
        try:
            rep = wirtinger_bound(curve)
            verdict, sup, thr = rep.verdict, rep.sup_value, rep.threshold
        except ValueError:
            verdict, sup, thr = "needs-scaling-probe", float(kappa) ** 2 + 2 * K, None
        rows.append([repr(float(kappa)), repr(sup), repr(thr) if thr is not None else "", verdict])
    return ["kappa", "sup_kappa2_plus_2K", "threshold", "verdict"], rows


@main.command("tube-table")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--out", type=click.Path(), default=None)
@click.option("--grid", type=int, default=None)
@click.option("--box", type=float, default=None)
def tube_table(fmt, out, grid, box) -> None:
    """Recompute all eight tube rows and compare with the stated columns;
    no random draw runs, so it takes no seed."""
    try:
        table = compute_tube_table(gridspec=_gridspec(grid, box))
    except (GridTooLargeError, SupportError) as exc:
        raise click.UsageError(str(exc))
    all_match = all(row[m]["match"] for row in table for m in ("G", "Gprime"))
    if fmt == "json":
        text = _to_json({"rows": table, "all_match": all_match})
    elif fmt == "csv":
        header = ["space", "geodesic", "induced", "eps_tuple", "topology",
                  "G_stated", "G_recomputed", "G_probes", "Gprime_stated", "Gprime_recomputed", "Gprime_probes"]
        rows = []
        for row in table:
            rows.append([
                row["space"], row["geodesic"], row["induced"],
                " ".join(str(e) for e in row["eps_tuple"]), row["topology"],
                row["G"]["stated"], row["G"]["recomputed"],
                ";".join(w["probe_id"] for w in row["G"]["witnesses"]),
                row["Gprime"]["stated"], row["Gprime"]["recomputed"],
                ";".join(w["probe_id"] for w in row["Gprime"]["witnesses"]),
            ])
        text = _rows_to_csv(header, rows)
    else:
        lines = [
            f"{'space':<6} {'geodesic':<10} {'induced':<11} {'signs':<16} {'topology':<9} "
            f"{'G':<22} {'Gprime':<22}"
        ]
        for row in table:
            cells = []
            for metric in ("G", "Gprime"):
                cell = row[metric]
                mark = "" if cell["match"] else " <-- MISMATCH"
                cells.append(f"{cell['recomputed']} (stated {cell['stated']}){mark}")
            lines.append(
                f"{row['space']:<6} {row['geodesic']:<10} {row['induced']:<11} "
                f"{str(tuple(row['eps_tuple'])):<16} {row['topology']:<9} {cells[0]:<22} {cells[1]:<22}"
            )
        lines.append(f"all rows match: {all_match}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if not all_match:
        sys.exit(1)


if __name__ == "__main__":
    main()
