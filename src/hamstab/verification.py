"""The reproduction suite: every acceptance check as a reportable record.

Each criterion function returns a list of check records with expected and
actual values and the tolerance applied, so the CLI can render the full
report and the test suite can assert each criterion.  All randomness is
seeded; reports contain no timing data, so a report is a pure function of
(grid, seed) and is byte-identical across runs and thread counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analyzer
from .analyzer import (
    classify,
    compute_tube_table,
    gradient_form_value,
    hyperbola_direction_probes,
    hyperbola_matrix_analysis,
    scaling_probe,
    spectral_criterion,
    wirtinger_bound,
)
from .catalog import (
    CHART_KINDS,
    ClosedFormFunctional,
    CurveData,
    default_catalog_ids,
    make_hyperbola_product,
    make_torus,
    resolve,
    resolve_chart,
)
from .immersion import AxisDomain, induced_geometry_batch, structural_residuals
from .quadrature import GridSpec, GridTooLargeError, SupportError
from .testfunctions import Const1D, Cos1D, Gauss1D, PlaneWaveCos, Separable, random_bump_poly, random_trig_poly
from .variation import (
    MetricField,
    _domains_from_support,
    _functional_form,
    _lap_squares,
    _pair_values,
    _reilly_form,
    bochner_residual,
    evaluate_functional,
)

__all__ = ["CheckResult", "run_criterion", "run_all", "CRITERIA"]


@dataclass
class CheckResult:
    criterion: int
    check_id: str
    description: str
    reference: str
    expected: str
    actual: str
    tolerance: str
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _fmt(x: float, floor: float = 0.0) -> str:
    return "0" if abs(x) < floor else f"{x:.12g}"


def _check(criterion, check_id, description, reference, expected, actual, tolerance, passed):
    return CheckResult(
        criterion=criterion,
        check_id=check_id,
        description=description,
        reference=reference,
        expected=str(expected),
        actual=str(actual),
        tolerance=str(tolerance),
        passed=bool(passed),
    )


# ------------------------------------------------------------- criterion 1

def _criterion_1(ctx) -> list[CheckResult]:
    """Single-axis torus modes against the closed form."""
    out = []
    radii_by_n = {1: (1.0,), 2: (1.0, 2.0), 3: (1.0, 2.0, 3.0)}
    for n, radii in radii_by_n.items():
        modes = [analyzer.torus_mode_function(radii, [k] + [0] * (n - 1)) for k in (2, 3)]
        for p in range(n + 1):
            # one functional per chart values both modes on one grid
            for k, val in zip((2, 3), evaluate_functional(make_torus(radii, p), modes, ctx.gridspec)):
                tail = float(np.prod([2 * np.pi * r for r in radii[1:]])) if n > 1 else 1.0
                expect = tail * np.pi * (k**4 - k**2) / radii[0] ** 3
                rel = abs(val - expect) / abs(expect)
                out.append(
                    _check(
                        1,
                        f"torus-mode:n={n},p={p},k={k}",
                        f"second variation of cos({k} s_1 / r_1) on the n={n} circle product",
                        "single-mode closed form (prod 2 pi r_j) * pi (k^4 - k^2) / r_1^3",
                        _fmt(expect),
                        _fmt(val),
                        "rel 1e-9",
                        rel <= 1e-9,
                    )
                )
    return out


# ------------------------------------------------------------- criterion 2

def _criterion_2(ctx) -> list[CheckResult]:
    """Null-Laplacian wave direction on the indefinite square torus."""
    radii = (1.0, 1.0)
    u, u_marginal = (analyzer.torus_mode_function(radii, mode) for mode in ((1, 1), (1, -1)))
    val, val_marginal = evaluate_functional(make_torus(radii, 1), [u, u_marginal], ctx.gridspec)
    expect = -8 * np.pi**2
    lap_sq = _lap_sq_functional(MetricField.flat([-1.0, 1.0]), periodic=True)
    delta_term = evaluate_functional(lap_sq, u, ctx.gridspec)
    return [
        _check(
            2,
            "torus-wave:value",
            "second variation of the null-Laplacian mode cos(s_1 + s_2), n=2, p=1, r=(1,1) "
            "(the mode cos(s_1 - s_2) is the marginal direction of the pair; see the "
            "companion check)",
            "wave-direction closed form -(m_1/r_1^2 + m_2/r_2^2)^2 * Vol/2",
            _fmt(expect),
            _fmt(val),
            "abs 1e-9",
            abs(val - expect) <= 1e-9,
        ),
        _check(
            2,
            "torus-wave:laplacian-term",
            "the (lap u)^2 contribution vanishes for the wave mode",
            "null direction of the indefinite Laplacian",
            "0 (|x| < 1e-12 prints as 0)",
            _fmt(delta_term, 1e-12),
            "abs 1e-10",
            abs(delta_term) <= 1e-10,
        ),
        _check(
            2,
            "torus-wave:marginal",
            "the opposite diagonal cos(s_1 - s_2) evaluates to zero (documented resolution: "
            "the -8 pi^2 value belongs to cos(s_1 + s_2))",
            "direct evaluation of the mode closed form",
            "0 (|x| < 1e-12 prints as 0)",
            _fmt(val_marginal, 1e-12),
            "abs 1e-9",
            abs(val_marginal) <= 1e-9,
        ),
    ]


# ------------------------------------------------------------- criterion 3

def _criterion_3(ctx) -> list[CheckResult]:
    out = []
    cases = [
        "torus:n=2,r=1,1,p=1",
        "torus:n=2,r=1,2,p=1",
        "torus:n=3,r=1,2,3,p=1",
        "torus:n=3,r=1,1,1,p=2",
    ]
    for cid in cases:
        verdict = classify(resolve(cid), gridspec=ctx.gridspec, seed=ctx.seed)
        ok = (
            verdict.label == "indefinite"
            and verdict.witness_pos is not None
            and verdict.witness_neg is not None
            and verdict.witness_pos.value > 0 > verdict.witness_neg.value
        )
        actual = verdict.label
        if verdict.witness_pos and verdict.witness_neg:
            actual += (
                f" [{verdict.witness_pos.probe_id}: {_fmt(verdict.witness_pos.value)}, "
                f"{verdict.witness_neg.probe_id}: {_fmt(verdict.witness_neg.value)}]"
            )
        out.append(
            _check(
                3,
                f"classify:{cid}",
                "indefinite circle product with stored sign witnesses",
                "mixed-sign Hermitian form makes the circle product H-unstable",
                "indefinite with +/- witnesses",
                actual,
                "witness rtol 1e-8",
                ok,
            )
        )
    return out


# ------------------------------------------------------------- criterion 4

def _criterion_4(ctx) -> list[CheckResult]:
    out = []
    for cid in ("hyperbola:n=1,r=1,eps=+", "hyperbola:n=1,r=1,eps=-", "hyperbola:n=2,r=1,3,eps=+,+", "hyperbola:n=2,r=1,2,eps=+,-"):
        entry = resolve(cid)
        verdict = classify(entry, gridspec=ctx.gridspec, seed=ctx.seed)
        residual = verdict.tolerances.get("sos_residual", np.inf)
        out.append(
            _check(
                4,
                f"sos:{cid}",
                "negative-definite hyperbola product via the sum-of-squares certificate",
                "integrand rewrites as minus a sum of squares",
                "negative_definite, residual <= 1e-10",
                f"{verdict.label}, residual {residual:.3e}",
                "pointwise rel 1e-10",
                verdict.label == "negative_definite" and residual <= analyzer.SOS_RESIDUAL_TOL,
            )
        )
    for n in (3, 4):
        cid = f"hyperbola:n={n},r={','.join('1' * n)},eps={','.join('+' * n)}"
        entry = resolve(cid)
        radii, eps = entry.params["radii"], entry.params["eps"]
        rep = hyperbola_matrix_analysis(radii, eps)
        w_expected = 2 * n - n * n
        out.append(
            _check(
                4,
                f"hyperbola-wvalue:n={n}",
                "algebraic value of the distinguished negative direction w_j = eps_j r_j",
                "w^T M_Q w = 2n - n^2",
                _fmt(w_expected),
                _fmt(rep.w_value),
                "abs 1e-12",
                abs(rep.w_value - w_expected) <= 1e-12 and abs(rep.e1_value - 1.0) <= 1e-12,
            )
        )
        verdict = classify(entry, gridspec=ctx.gridspec, seed=ctx.seed)
        qw, qe = _gradient_form_values(entry, verdict)
        out.append(
            _check(
                4,
                f"hyperbola-probes:n={n}",
                "gradient-form signs of the localized bump realizations of w and e_1",
                "Gaussian probes aligned with the matrix sign directions",
                "Q(u_w) < 0 < Q(u_e1)",
                f"Q(u_w) = {_fmt(qw)}, Q(u_e1) = {_fmt(qe)}",
                "sign",
                qw < 0 < qe,
            )
        )
        ok = (
            verdict.label == "indefinite"
            and verdict.witness_pos is not None
            and verdict.witness_neg is not None
        )
        out.append(
            _check(
                4,
                f"classify:{cid}",
                "indefinite hyperbola product (n >= 3) with dilation witnesses",
                "dilations transfer the gradient-form sign into the second variation",
                "indefinite with +/- witnesses",
                verdict.label
                + (
                    f" [{verdict.witness_pos.probe_id}: {_fmt(verdict.witness_pos.value)}, "
                    f"{verdict.witness_neg.probe_id}: {_fmt(verdict.witness_neg.value)}]"
                    if ok
                    else ""
                ),
                "witness rtol 1e-8",
                ok,
            )
        )
    return out


def _gradient_form_values(entry, verdict) -> tuple[float, float]:
    """``(Q(u_w), Q(u_e1))`` on the entry's default grid: read from the
    verdict's evidence when the verdict used that grid, integrated otherwise."""
    if GridSpec(**verdict.grid) == entry.default_gridspec:
        record = next(e for e in verdict.evidence if e.note == analyzer.GRADIENT_FORM_NOTE)
        return record.min_eig, record.max_eig
    radii, eps = entry.params["radii"], entry.params["eps"]
    u_w, u_e1, _ = hyperbola_direction_probes(radii, eps)
    return (
        gradient_form_value(radii, eps, u_w, entry.default_gridspec),
        gradient_form_value(radii, eps, u_e1, entry.default_gridspec),
    )


# ------------------------------------------------------------- criterion 5

def _q_direct(w, radii, eps) -> float:
    """The direct expansion of ``Q(w, w)`` over sequences of Python numbers."""
    total = 0.0
    n = len(w)
    for j in range(n):
        total += w[j] ** 2 / radii[j] ** 2
    for j in range(n):
        for k in range(j + 1, n):
            total -= 2.0 * eps[j] * eps[k] * w[j] * w[k] / (radii[j] * radii[k])
    return total


def _mq_oracle_errors(rng) -> list[float]:
    """The relative gap between the direct expansion of ``Q(w, w)`` and
    ``w^T M_Q w`` on 1000 random draws of ``(n, radii, eps, w)``.  Every
    draw is made first; then the ``M_Q`` of each ``n`` come from one
    stacked :func:`hamstab.analyzer._mq_matrix` call."""
    samples = []
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        radii = rng.uniform(0.5, 3.0, size=n)
        eps = rng.choice([-1, 1], size=n)
        samples.append((radii, eps, rng.uniform(-2.0, 2.0, size=n)))
    errors = [0.0] * len(samples)
    for n in sorted({len(w) for _, _, w in samples}):
        which = [i for i, (_, _, w) in enumerate(samples) if len(w) == n]
        stack = analyzer._mq_matrix([samples[i][0] for i in which], [samples[i][1] for i in which])
        for i, m in zip(which, stack):
            radii, eps, w = samples[i]
            direct = _q_direct(w.tolist(), radii.tolist(), eps.tolist())
            errors[i] = abs(direct - float(w @ m @ w)) / max(abs(direct), 1.0)
    return errors


def _criterion_5(ctx) -> list[CheckResult]:
    worst = max([0.0, *_mq_oracle_errors(np.random.default_rng(ctx.seed + 5))])
    rep3 = hyperbola_matrix_analysis((1.0, 1.0, 1.0), (1, 1, 1))
    eig_sorted = np.sort(rep3.eigenvalues)
    eig_ok = np.allclose(eig_sorted, [-1.0, 2.0, 2.0], atol=1e-12)
    return [
        _check(
            5,
            "mq-oracle",
            "matrix form of the gradient quadratic agrees with its direct expansion "
            "on 1000 random draws",
            "brute-force expansion of Q(du, du)",
            "rel <= 1e-12",
            f"worst rel {worst:.3e}",
            "rel 1e-12",
            worst <= 1e-12,
        ),
        _check(
            5,
            "mq-inertia",
            "eigenvalues and inertia of M_Q for n=3, equal radii",
            "2I minus the all-ones matrix has eigenvalues {-1, 2, 2}",
            "eigenvalues {-1, 2, 2}, inertia (2, 1, 0)",
            f"eigenvalues {np.round(eig_sorted, 12).tolist()}, inertia {rep3.inertia}",
            "abs 1e-12",
            eig_ok and rep3.inertia == (2, 1, 0),
        ),
    ]


# ------------------------------------------------------------- criterion 6

def _criterion_6(ctx) -> list[CheckResult]:
    rng = np.random.default_rng(ctx.seed + 6)
    worst_reilly = max([0.0, *_reilly_residuals(rng, ctx.gridspec)])
    worst_bochner = 0.0
    metrics3 = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]
    for i in range(20):
        m = MetricField.flat(metrics3[i % len(metrics3)])
        u = random_bump_poly(2, rng)
        pt = rng.uniform(-1.5, 1.5, size=2)
        worst_bochner = max(worst_bochner, abs(bochner_residual(u, m, pt)))
    return [
        _check(
            6,
            "reilly",
            "integral trace identity residual over 20 random test functions, "
            "definite and indefinite flat metrics, periodic and compact support",
            "int (lap u)^2 - |hess u|^2 - Ric(grad u, grad u) = 0",
            "0",
            f"worst rel {worst_reilly:.3e}",
            "rel 1e-9",
            worst_reilly <= 1e-9,
        ),
        _check(
            6,
            "bochner",
            "pointwise curvature identity residual (nested finite differences, "
            "Richardson extrapolated) over 20 random test functions",
            "(1/2) lap |grad u|^2 = Ric + g(grad u, grad lap u) + |hess u|^2",
            "0",
            f"worst abs {worst_bochner:.3e}",
            "abs 1e-5",
            worst_bochner <= 1e-5,
        ),
    ]


def _reilly_residuals(rng, gridspec: GridSpec | None) -> list[float]:
    """The trace identity's residual over ``1 + |int (lap u)^2|`` on 10
    trigonometric draws, then 10 bump draws, the metrics taken in turn.

    A trig draw is integrated over its own period: one grid for both values
    when that gives the scale's grid (the full 2 pi circles), else one grid
    each.  The bumps share one box, so one call values both forms on all of
    them from one block Gram."""
    # each metric with its trace-identity form and its periodic and line
    # int (lap u)^2, built once
    metrics = [
        (_reilly_form(m), _lap_sq_functional(m, periodic=True), _lap_sq_functional(m, periodic=False))
        for m in map(MetricField.flat, [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)])
    ]
    out = []
    for i in range(10):
        reilly, lap_sq, _ = metrics[i % len(metrics)]
        u = random_trig_poly([2 * np.pi, 2 * np.pi], rng)
        # an axis on which every drawn wavenumber is 0 has period 0.0 and no
        # inferable domain; it gets the full 2 pi circle
        domains = tuple(AxisDomain.circle(2 * np.pi if p == 0.0 else p) for p in u.axis_periods)
        if domains == lap_sq.domains:
            (res,), (lap,) = _form_values(domains, [u], (reilly, lap_sq.jet_form), gridspec)
        else:
            [[res]] = _form_values(domains, [u], (reilly,), gridspec)
            lap = evaluate_functional(lap_sq, u, gridspec)
        out.append(abs(res) / (1.0 + abs(lap)))
    bumps = [random_bump_poly(2, rng) for _ in range(10)]
    # every bump takes the box of its unit-width factors
    (domains,) = {_domains_from_support(u) for u in bumps}
    requests = []
    for a in range(len(bumps)):
        reilly, _, lap_sq = metrics[a % len(metrics)]
        requests += [(a, a, reilly), (a, a, lap_sq.jet_form)]
    values = _pair_values(domains, bumps, requests, gridspec)
    return out + [abs(res) / (1.0 + abs(lap)) for res, lap in zip(values[::2], values[1::2])]


def _form_values(domains, probes, forms, gridspec: GridSpec | None) -> list[list[float]]:
    """Each jet form's values on the probes, from one :func:`_pair_values`
    call: the probes that share a grid share its block Gram, which serves
    every form."""
    values = _pair_values(domains, probes, [(a, a, f) for f in forms for a in range(len(probes))], gridspec)
    return [values[i : i + len(probes)] for i in range(0, len(values), len(probes))]


def _lap_sq_functional(m: MetricField, periodic: bool) -> ClosedFormFunctional:
    """``int (lap u)^2`` for a constant metric over one period (``periodic``)
    or the default line truncation per axis."""
    ginv = m.g_inv(np.zeros((1, m.dim)))[0]
    domain = AxisDomain.circle(2 * np.pi) if periodic else AxisDomain.line()
    return ClosedFormFunctional(domains=(domain,) * m.dim, terms=tuple(_lap_squares(1.0, ginv)))


# ------------------------------------------------------------- criterion 7

def _criterion_7(ctx) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(ctx.seed + 7)
    cases = [("plane:n=2,p=0", 1), ("plane:n=2,p=1", 1), ("plane:n=2,p=2", 1), ("plane:n=2,amb=para", -1)]
    for cid, eps in cases:
        entry = resolve(cid)
        signs = np.ones(2) if entry.params["para"] else entry.chart.ambient.axis_signs
        lap_sq = _lap_sq_functional(MetricField.flat(signs), periodic=False)
        # the draws share one grid: one call values the functional and
        # int (lap u)^2 on them from one block Gram
        us = [random_bump_poly(2, rng) for _ in range(10)]
        forms = (_functional_form(entry.functional), lap_sq.jet_form)
        vals, laps = _form_values(entry.functional.domains, us, forms, ctx.gridspec)
        refs = [eps * r for r in laps]
        worst = 0.0
        sign_ok = True
        for val, ref in zip(vals, refs):
            worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
            if eps * val < 0:
                sign_ok = False
        out.append(
            _check(
                7,
                f"plane:{cid}",
                "minimal flat plane: second variation equals eps * int (lap u)^2 "
                "over 10 random test functions, with the minimizer/maximizer sign",
                "vanishing cubic form and mean curvature leave only the Laplacian square",
                f"match, sign {'+' if eps > 0 else '-'}",
                f"worst rel {worst:.3e}, sign ok {sign_ok}",
                "rel 1e-10",
                worst <= 1e-10 and sign_ok,
            )
        )
    return out


# ------------------------------------------------------------- criterion 8

def _criterion_8(ctx) -> list[CheckResult]:
    out = []
    rep = spectral_criterion((1.0, 1.0), 2.0)
    out.append(
        _check(
            8,
            "sphere-spectral",
            "first torus eigenvalue against the Einstein constant of the sphere tube",
            "lam_1 = 1 on the unit square torus, c = 2 (scalar curvature 8, dimension 4)",
            "lam1 = 1 < c = 2 -> unstable",
            f"lam1 = {_fmt(rep.lam1)}, verdict {rep.verdict}",
            "exact",
            rep.lam1 == 1.0 and rep.verdict == "unstable",
        )
    )
    entry = resolve("tube:S3:closed:G")
    worst = 0.0
    modes = [Separable([Cos1D(float(k)), Const1D()], label=f"cos({k}s)") for k in range(1, 6)]
    for k, val in zip(range(1, 6), evaluate_functional(entry.functional, modes, ctx.gridspec)):
        expect = 2 * np.pi**2 * k**2 * (k**2 - 2)
        worst = max(worst, abs(val - expect) / max(abs(expect), 1.0))
    out.append(
        _check(
            8,
            "sphere-modes",
            "spectral identity for the single modes cos(k s), k <= 5",
            "per-mode value 2 pi^2 k^2 (k^2 - 2)",
            "rel <= 1e-9",
            f"worst rel {worst:.3e}",
            "rel 1e-9",
            worst <= 1e-9,
        )
    )
    diag = evaluate_functional(entry.functional, PlaneWaveCos([1.0, 1.0], label="cos(s+t)"), ctx.gridspec)
    verdict = classify(entry, gridspec=ctx.gridspec, seed=ctx.seed)
    neg_is_cos_s = verdict.witness_neg is not None and verdict.witness_neg.probe_id == "mode:cos(s)"
    out.append(
        _check(
            8,
            "sphere-marginal-mode",
            "documented deviation: the diagonal mode cos(s+t) sits at lam = c and evaluates "
            "to exactly zero; cos(s) is the negative witness",
            "lam(lam - c) vanishes at lam = 2",
            "0 (|x| < 1e-12 prints as 0) and negative witness cos(s)",
            f"value {_fmt(diag, 1e-12)}, verdict {verdict.label}, neg witness "
            f"{verdict.witness_neg.probe_id if verdict.witness_neg else None}",
            "abs 1e-9",
            abs(diag) <= 1e-9 and verdict.label == "indefinite" and neg_is_cos_s,
        )
    )
    return out


# ------------------------------------------------------------- criterion 9

def _criterion_9(ctx) -> list[CheckResult]:
    import time

    t0 = time.perf_counter()
    table = compute_tube_table(gridspec=ctx.gridspec, seed=ctx.seed)
    elapsed = time.perf_counter() - t0
    out = []
    for row in table:
        for metric in ("G", "Gprime"):
            cell = row[metric]
            out.append(
                _check(
                    9,
                    f"tube:{row['space']}:{row['geodesic']}-{row['induced']}:{metric}",
                    "recomputed tube verdict matches the stated stability column",
                    f"eps tuple {tuple(row['eps_tuple'])}, topology {row['topology']}",
                    cell["stated"],
                    cell["recomputed"],
                    "exact",
                    cell["match"],
                )
            )
    # digit-free so the report stays byte-identical run to run
    out.append(
        _check(
            9,
            "tube:runtime",
            "full table recomputation stays within the runtime budget",
            "desk-scale grids",
            "within budget (10 s)",
            "within budget" if elapsed <= 10.0 else "exceeded",
            "10 s",
            elapsed <= 10.0,
        )
    )
    return out


# ------------------------------------------------------------ criterion 10

def _criterion_10(ctx) -> list[CheckResult]:
    out = []
    entry = resolve("tn:kappa=0,K=-1")
    verdict = classify(entry, gridspec=ctx.gridspec, seed=ctx.seed)
    residual = verdict.tolerances.get("sos_residual", np.inf)
    # the functional's own squares 4 u_st^2 and 2 u_t^2 carry positive weights
    weights_ok = all(term.weight > 0 for term in entry.functional.terms)
    out.append(
        _check(
            10,
            "tn-sos",
            "rank-one surface over a geodesic of a hyperbolic base: pointwise certificate "
            "4 u_st^2 + 2 u_t^2",
            "kappa^2 <= -2K makes the integrand a nonnegative sum of squares",
            "positive_definite, residual <= 1e-10",
            f"{verdict.label}, residual {residual:.3e}, weights ok {weights_ok}",
            "pointwise rel 1e-10",
            verdict.label == "positive_definite" and residual <= analyzer.SOS_RESIDUAL_TOL and weights_ok,
        )
    )
    length = 2 * np.pi
    curve = CurveData(kappa=1.0, K_along=0.0, closed=True, length=length)
    rep = wirtinger_bound(curve)
    circle_verdict = classify(resolve(f"tn:kappa=1,K=0,L={length:.17g}"), gridspec=ctx.gridspec, seed=ctx.seed)
    out.append(
        _check(
            10,
            "tn-circle",
            "flat-plane circle: sup(kappa^2 + 2K) = 1/R^2 below the closed-curve threshold "
            "16 pi^2 / L^2 = 4/R^2",
            "closed-curve first-mode bound",
            "sup 1, threshold 4, stable (positive_definite)",
            f"sup {_fmt(rep.sup_value)}, threshold {_fmt(rep.threshold)}, {rep.verdict}; "
            f"classify {circle_verdict.label}",
            "exact",
            rep.sup_value == 1.0
            and abs(rep.threshold - 4.0) <= 1e-12
            and rep.verdict == "stable"
            and circle_verdict.label == "positive_definite",
        )
    )
    worst_margin = np.inf
    holds = True
    thr = 16 * np.pi**2 / length**2
    for lhs, ut2_value in _fourier_bound_terms(length, ctx.gridspec):
        rhs = thr * ut2_value
        margin = lhs - rhs
        worst_margin = min(worst_margin, margin / max(abs(lhs), 1.0))
        if margin < -1e-9 * max(abs(lhs), 1.0):
            holds = False
    out.append(
        _check(
            10,
            "tn-fourier-bound",
            "discrete first-mode bound int 4 u_st^2 >= (16 pi^2 / L^2) int u_t^2 "
            "on the mode library",
            "first-Fourier-mode inequality for periodic variations",
            ">= 0 (up to 1e-9 relative)",
            f"worst relative margin {worst_margin:.3e}",
            "rel 1e-9",
            holds,
        )
    )
    open_entry = resolve("tn:kappa=1,K=0")
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)], label="bump")
    report = scaling_probe(
        open_entry.functional,
        base,
        np.geomspace(0.05, 20.0, 7),
        axes=(0,),
        prefactor_exponent=1.5,
        gridspec=ctx.gridspec,
    )
    out.append(
        _check(
            10,
            "tn-open-scaling",
            "open curve with kappa^2 + 2K > 0: the stretched family finds both signs "
            "across t in [0.05, 20]",
            "axis dilation trades the mixed-derivative term against the curvature term",
            "both signs",
            f"positives at t={report.positives}, negatives at t={report.negatives}",
            "sign",
            report.sign_change,
        )
    )
    return out


def _fourier_bound_terms(length: float, gridspec: GridSpec | None) -> list[tuple[float, float]]:
    """``(int 4 u_st^2, int u_t^2)`` on the closed flat-plane curve of the
    given length for the mode library ``cos(k s) exp(-t^2 / (2 sigma^2))``,
    ``k = 1..4``, ``sigma = 1, 2``: both forms on every mode from one call,
    one grid per box."""
    func = resolve(f"tn:kappa=1,K=0,L={length:.17g}").functional
    # the functional's own terms 4 u_st^2 and -(kappa^2 + 2K) u_t^2, the
    # second with unit weight
    ust_term, ut_term = func.terms
    four_ust2 = ClosedFormFunctional(func.domains, (ust_term,))
    ut2 = ClosedFormFunctional(func.domains, (replace(ut_term, weight=1.0),))
    probes = [
        Separable([Cos1D(k * 2 * np.pi / length), Gauss1D(sigma)], label=f"cos({k}s)b{sigma:g}(t)")
        for k in range(1, 5)
        for sigma in (1.0, 2.0)
    ]
    return list(zip(*_form_values(func.domains, probes, (four_ust2.jet_form, ut2.jet_form), gridspec)))


# ------------------------------------------------------------ criterion 11

_FLAT_CHART_IDS = [cid for cid in default_catalog_ids() if cid.split(":")[0] in CHART_KINDS]


def _criterion_11(ctx) -> list[CheckResult]:
    out = []
    worst = {"lagrangian": 0.0, "hminimal": 0.0, "trisymmetry": 0.0}
    for cid in _FLAT_CHART_IDS:
        chart, _ = resolve_chart(cid)
        for name, value in structural_residuals(chart).items():
            worst[name] = max(worst[name], value)
    tols = {"lagrangian": 1e-10, "hminimal": 1e-8, "trisymmetry": 1e-8}
    for name, value in worst.items():
        out.append(
            _check(
                11,
                f"structural:{name}",
                f"worst {name} residual over the flat catalog charts",
                "chart structure checks on the sample grid",
                "0",
                f"{value:.3e}",
                f"abs {tols[name]:g}",
                value <= tols[name],
            )
        )
    rng = np.random.default_rng(ctx.seed + 11)
    worst_g = 0.0
    for maker, kwargs in (
        (make_torus, {"radii": (1.0, 2.0), "p": 1}),
        (make_torus, {"radii": (1.0, 1.0, 1.0), "p": 2}),
        (make_hyperbola_product, {"radii": (1.0, 3.0), "branch_signs": (1, 1)}),
        (make_hyperbola_product, {"radii": (1.0, 2.0), "branch_signs": (1, -1)}),
    ):
        closed = maker(oracle="closed_form", **kwargs)
        dual = maker(oracle="dual_number", **kwargs)
        pts = rng.uniform(-1.0, 1.0, size=(7, closed.dim))
        g1 = induced_geometry_batch(closed, pts)["g"]
        g2 = induced_geometry_batch(dual, pts)["g"]
        worst_g = max(worst_g, float(np.max(np.abs(g1 - g2))))
    out.append(
        _check(
            11,
            "structural:oracle-equivalence",
            "jet-oracle induced metric matches the closed-form oracle at random points",
            "two independent derivative routes",
            "0",
            f"{worst_g:.3e}",
            "abs 1e-10",
            worst_g <= 1e-10,
        )
    )
    return out


# ------------------------------------------------------------ criterion 12

def _determinism_payload(ctx, threads: int) -> bytes:
    """A representative verdict payload computed with the given parallelism."""
    ids = [
        "torus:n=2,r=1,1,p=1",
        "hyperbola:n=2,r=1,3,eps=+,+",
        "tube:S3:closed:G",
        "tube:AdS3:closed-indefinite:Gprime",
        "tn:kappa=0,K=-1",
    ]

    def one(cid):
        return classify(resolve(cid), gridspec=ctx.gridspec, seed=ctx.seed).to_json_dict()

    if threads <= 1:
        verdicts = [one(cid) for cid in ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            verdicts = list(pool.map(one, ids))
    return (json.dumps(verdicts, sort_keys=True, indent=1) + "\n").encode()


def _criterion_12(ctx) -> list[CheckResult]:
    seq = _determinism_payload(ctx, 1)
    par = _determinism_payload(ctx, 4)
    return [
        _check(
            12,
            "determinism",
            "verdict payload bytes are identical when recomputed sequentially and with "
            "a 4-thread pool",
            "ordered reduction and seeded probes",
            "byte-identical",
            "identical" if seq == par else "MISMATCH",
            "exact",
            seq == par,
        )
    ]


# ----------------------------------------------------------------- assembly

@dataclass
class _Ctx:
    gridspec: GridSpec | None
    seed: int


CRITERIA = [
    (1, "torus single-mode values", _criterion_1),
    (2, "torus wave direction", _criterion_2),
    (3, "torus indefiniteness verdicts", _criterion_3),
    (4, "hyperbola products", _criterion_4),
    (5, "gradient-form matrix oracle", _criterion_5),
    (6, "trace and curvature identities", _criterion_6),
    (7, "Ricci-flat minimal planes", _criterion_7),
    (8, "sphere-tube spectral criterion", _criterion_8),
    (9, "geodesic-tube table", _criterion_9),
    (10, "tangent-bundle surfaces", _criterion_10),
    (11, "structural chart checks", _criterion_11),
    (12, "report determinism", _criterion_12),
]


def run_criterion(number: int, gridspec: GridSpec | None = None, seed: int = 0) -> list[CheckResult]:
    ctx = _Ctx(gridspec=gridspec, seed=seed)
    for num, _, fn in CRITERIA:
        if num == number:
            return fn(ctx)
    raise ValueError(f"no criterion {number}")


def run_all(
    gridspec: GridSpec | None = None,
    seed: int = 0,
    threads: int = 1,
    criteria: list[int] | None = None,
) -> dict:
    """Run the reproduction suite (optionally a subset of criteria) and
    assemble the report dict."""
    ctx = _Ctx(gridspec=gridspec, seed=seed)
    known = [num for num, _, _ in CRITERIA]
    if criteria is not None and (not criteria or not set(criteria) <= set(known)):
        raise ValueError(f"criteria {criteria} must be a nonempty subset of {known}")
    selected = [item for item in CRITERIA if criteria is None or item[0] in criteria]

    def run_one(item):
        num, title, fn = item
        try:
            checks = fn(ctx)
        except (GridTooLargeError, SupportError):
            raise  # an input too large to run, or a box that cuts a support, is a usage error
        except Exception as exc:  # a crashed criterion is a failed criterion
            checks = [
                _check(num, f"criterion-{num}:error", title, "runtime failure", "completion",
                       f"{type(exc).__name__}: {exc}", "n/a", False)
            ]
        return num, title, checks

    if threads <= 1:
        results = [run_one(item) for item in selected]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, selected))

    spec = gridspec or GridSpec()
    criteria_payload = []
    for num, title, checks in results:
        criteria_payload.append(
            {
                "id": num,
                "title": title,
                "passed": all(c.passed for c in checks),
                "checks": [c.to_json_dict() for c in checks],
            }
        )
    return {
        "schema": "hamstab.verify.v1",
        "grid": {
            "circle_nodes": spec.circle_nodes,
            "line_nodes": spec.line_nodes,
            "line_box": spec.line_box,
        },
        "seed": seed,
        "criteria": criteria_payload,
        "passed": all(c["passed"] for c in criteria_payload),
    }
