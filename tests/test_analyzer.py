from dataclasses import replace

import numpy as np
import pytest

from hamstab import analyzer, quadrature
from hamstab.analyzer import (
    GRADIENT_FORM_NOTE,
    ModeVector,
    ScalingReport,
    assemble_form,
    classify,
    gradient_form_value,
    hyperbola_direction_probes,
    hyperbola_matrix_analysis,
    scaling_probe,
    spectral_criterion,
    torus_mode_function,
    torus_mode_value,
    verify_certificate,
    wirtinger_bound,
    witness_library,
)
from hamstab.catalog import (
    ClosedFormFunctional,
    CurveData,
    JetSquareTerm,
    SumOfSquares,
    default_catalog_ids,
    make_geodesic_tube,
    make_rank_one_bundle,
    resolve,
)
from hamstab.immersion import AxisDomain
from hamstab.quadrature import Grid, GridSpec, GridTooLargeError, JetFormField, build_grid, integrate
from hamstab.testfunctions import jet_orders
from hamstab.testfunctions import AnisotropicGaussian, Const1D, Cos1D, Gauss1D, Separable, isotropic_rescale
from hamstab.variation import (
    SecondVariationFunctional,
    _functional_form,
    _jet_form,
    _pair_values,
    evaluate_functional,
    jet_field,
    second_variation,
    sos_certificate,
)

from helpers import gradient_graph_chart, hyperbola_reference_squares, minimal_null_graph_chart


# ------------------------------------------------------------- mode values

def test_mode_value_single_axis_reduction():
    for n, radii in ((1, (1.0,)), (2, (1.0, 2.0)), (3, (1.0, 2.0, 3.0))):
        for p in range(n + 1):
            for k in (1, 2, 3):
                mode = [0] * n
                mode[0] = k
                tail = float(np.prod([2 * np.pi * r for r in radii[1:]])) if n > 1 else 1.0
                expect = tail * np.pi * (k**4 - k**2) / radii[0] ** 3
                assert torus_mode_value(radii, p, mode) == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_mode_value_wave_direction():
    assert torus_mode_value((1.0, 1.0), 1, (1, 1)) == pytest.approx(-8 * np.pi**2)
    # k = 1 single mode is the marginal rotation direction
    assert torus_mode_value((1.0,), 0, (1,)) == 0.0


def test_mode_value_zero_mode_rejected():
    with pytest.raises(ValueError):
        torus_mode_value((1.0, 1.0), 1, (0, 0))
    with pytest.raises(ValueError):
        ModeVector((0, 0))
    with pytest.raises(ValueError):
        torus_mode_value((1.0,), 2, (1,))
    for radii in ((-1.0, 1.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="radii must be positive"):
            torus_mode_value(radii, 1, (1, 1))


def test_mode_value_agrees_with_quadrature():
    # closed form against the slow path, n <= 2, |k| <= 2, every p
    for radii, p in (((1.0, 2.0), 0), ((1.0, 2.0), 1), ((1.0, 2.0), 2)):
        chart = resolve(f"torus:n=2,r=1,2,p={p}").chart
        for k1 in range(-2, 3):
            for k2 in range(0, 3):
                if k1 == 0 and k2 == 0:
                    continue
                u = torus_mode_function(radii, (k2, k1))
                slow = second_variation(chart, u)
                fast = torus_mode_value(radii, p, (k2, k1))
                assert slow == pytest.approx(fast, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------ form assembly

def test_assemble_form_single_element():
    chart = resolve("torus:n=1,r=1,p=0").chart
    u = Separable([Cos1D(2.0)], label="cos2")
    Q = assemble_form(chart, [u])
    assert Q.shape == (1, 1)
    assert Q[0, 0] == pytest.approx(np.pi * (16 - 4), rel=1e-12)


def test_assemble_form_fourier_orthogonality():
    chart = resolve("torus:n=2,r=1,1,p=1").chart
    radii = (1.0, 1.0)
    basis = [torus_mode_function(radii, k) for k in ((1, 0), (0, 1), (2, 0), (1, 1))]
    Q = assemble_form(chart, basis)
    off = Q - np.diag(np.diag(Q))
    assert np.max(np.abs(off)) <= 1e-9
    assert np.allclose(np.diag(Q), [torus_mode_value(radii, 1, k) for k in ((1, 0), (0, 1), (2, 0), (1, 1))], atol=1e-9)


def test_assemble_form_sphere_modes():
    # diagonal values 2 pi^2 lam (lam - 2): -2 pi^2 and +16 pi^2
    functional = make_geodesic_tube("S3", "closed", "G")
    basis = [
        Separable([Cos1D(1.0), Const1D()], label="cos(s)"),
        Separable([Cos1D(2.0), Const1D()], label="cos(2s)"),
    ]
    Q = assemble_form(functional, basis)
    assert Q[0, 0] == pytest.approx(-2 * np.pi**2, rel=1e-12)
    assert Q[1, 1] == pytest.approx(16 * np.pi**2, rel=1e-12)
    assert abs(Q[0, 1]) <= 1e-9


# ---------------------------------------------------------------- classify

def test_classify_square_torus():
    verdict = classify(resolve("torus:n=2,r=1,1,p=1"))
    assert verdict.label == "indefinite"
    assert verdict.witness_pos.probe_id == "mode:k=2,0"
    assert verdict.witness_neg.probe_id == "mode:k=1,1"
    assert verdict.witness_neg.value == pytest.approx(-8 * np.pi**2, rel=1e-10)


def test_classify_witness_soundness():
    # the stored witnesses re-evaluate through the slow path with the same signs
    entry = resolve("torus:n=3,r=1,2,3,p=1")
    verdict = classify(entry)
    assert verdict.label == "indefinite"
    for witness, sign in ((verdict.witness_pos, 1), (verdict.witness_neg, -1)):
        k = tuple(int(x) for x in witness.probe_id.split("=")[1].split(","))
        value = second_variation(entry.chart, torus_mode_function(entry.params["radii"], k))
        assert sign * value > 0
        assert value == pytest.approx(witness.value, rel=1e-9)


def test_classify_definite_sign_tori_inconclusive():
    verdict = classify(resolve("torus:n=2,r=1,2,p=0"))
    assert verdict.label == "inconclusive"
    assert verdict.witness_neg is None
    assert verdict.evidence[0].min_eig >= -1e-9


def test_classify_hyperbola_small_n():
    v1 = classify(resolve("hyperbola:n=1,r=1,eps=+"))
    assert v1.label == "negative_definite"
    assert v1.tolerances["sos_residual"] <= 1e-10
    v2 = classify(resolve("hyperbola:n=2,r=1,3,eps=+,+"))
    assert v2.label == "negative_definite"
    assert v2.witness_neg is not None and v2.witness_neg.value < 0


def test_classify_hyperbola_h3():
    verdict = classify(resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+"))
    assert verdict.label == "indefinite"
    assert verdict.witness_pos.value > 0 > verdict.witness_neg.value
    # witnesses reconstruct through the slow path with the same signs
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    u_w, _, _ = hyperbola_direction_probes(entry.params["radii"], entry.params["eps"])
    t_pos = float(verdict.witness_pos.probe_id.split("t=")[1])
    value = second_variation(entry.functional, isotropic_rescale(u_w, t_pos), entry.default_gridspec)
    assert value == pytest.approx(verdict.witness_pos.value, rel=1e-9)


def test_classify_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        classify(resolve("torus:n=1,r=1,p=0"), strategy="guess")


def test_classify_bare_functional():
    functional = make_geodesic_tube("dS3", "unbounded", "G")
    verdict = classify(functional)
    assert verdict.label == "indefinite"
    assert verdict.strategy == "fourier_sweep"


def _mixed_squares() -> ClosedFormFunctional:
    return ClosedFormFunctional(
        (AxisDomain.line(), AxisDomain.line()),
        (
            JetSquareTerm(-0.68, (0.5, -0.26), ((2.05, 1.0), (0.29, 0.19))),
            JetSquareTerm(-1.31, (0.22, 0.11), ((0.5, 2.41), (-0.27, 0.78))),
            JetSquareTerm(1.99, (0.33, -1.66), ((1.57, 0.99), (0.1, -1.21))),
        ),
        name="mixed-squares",
    )


def test_fourier_sweep_finds_the_second_sign_in_the_polarized_form():
    # every library value is positive (6.57 to 51.1), but the polarized form
    # of the four probes has a negative eigenvalue, whose eigenvector is the
    # negative witness
    functional = _mixed_squares()
    verdict = classify(functional, "fourier_sweep")
    assert verdict.label == "indefinite"
    assert verdict.witness_pos.probe_id == "gauss4xgauss1"
    assert verdict.witness_pos.value == pytest.approx(51.1147, rel=1e-5)
    assert verdict.witness_neg.probe_id == "eigmix:low"
    # the mixture spans the box of 40 that gauss4 needs, on 4 x 96 nodes, so
    # gauss1 keeps the node density of its own box of 10: its value on 768
    # nodes is -0.32063938381163, where 96 nodes read -0.6518
    assert verdict.witness_neg.value == pytest.approx(-0.32063938381163, rel=1e-6)
    library, polarized = verdict.evidence
    assert library.min_eig == pytest.approx(6.5716, rel=1e-4) and library.max_eig == verdict.witness_pos.value
    pool = witness_library(functional.domains)
    want = np.linalg.eigvalsh(assemble_form(functional, pool[:8]))
    assert polarized.basis_size == len(pool) == 4
    assert polarized.min_eig == pytest.approx(-0.3267, rel=1e-3)
    assert abs(polarized.min_eig - want[0]) <= 1e-12 * want[-1]
    assert abs(polarized.max_eig - want[-1]) <= 1e-12 * want[-1]


def test_fourier_sweep_notes_an_eigmix_grid_over_the_mesh_cap(monkeypatch):
    # with every sum-factorized value refused, as at a failed edge check,
    # each probe is valued on its mesh: the library's 96 x 96 meshes stay
    # under the cap, the mixture's 4 x 96 nodes per line axis (147456
    # points) do not
    monkeypatch.setattr(quadrature, "_form_sums", lambda field, gram, bounds: None)
    monkeypatch.setattr(quadrature, "MAX_MESH_POINTS", 100_000)
    verdict = classify(_mixed_squares(), "fourier_sweep")
    assert verdict.label == "inconclusive"
    assert verdict.witness_pos.probe_id == "gauss4xgauss1" and verdict.witness_neg is None
    assert verdict.notes == [
        "eigmix probes not valued: a 384 x 384 quadrature mesh has 147456 points, more than the "
        "100000 allowed; building its points and weights alone would take about 0.0 GiB",
        "no certificate applies and the witness library found only one sign",
    ]


def test_openness_of_the_wave_witness():
    # the negative wave-direction value survives radius perturbations
    for r1 in (0.95, 1.0, 1.05):
        assert torus_mode_value((r1, 1.0), 1, (1, 1)) < -1.0
    chart = resolve("torus:n=2,r=0.95,1,p=1").chart
    u = torus_mode_function((0.95, 1.0), (1, 1))
    assert second_variation(chart, u) < -1.0


# ------------------------------------------------------------ scaling probes

def test_scaling_probe_h3_sign_change():
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    u_w, _, _ = hyperbola_direction_probes(entry.params["radii"], entry.params["eps"])
    report = scaling_probe(entry.functional, u_w, (0.1, 1.0, 10.0), gridspec=entry.default_gridspec)
    assert report.sign_change
    assert report.positives and min(report.positives) <= 0.1
    assert report.negatives


def test_scaling_report_counts_only_values_above_the_witness_threshold():
    # a grid that misses the dilated probe reads a rounding-level value, which
    # witnesses no sign; nor does a value below WITNESS_RTOL * int (u^t)^2
    report = ScalingReport(
        "bump", (0,), 0.0, entries=[(0.05, -5.66e-287), (1.0, 2.0), (20.0, -1e-9)], norms=[1e-290, 1.0, 1.0]
    )
    assert report.positives == [1.0]
    assert report.negatives == []
    assert not report.sign_change


def test_scaling_probe_ads_plane():
    # values eps' * pi * (t^2 - 2) for the unit product bump
    functional = make_geodesic_tube("AdS3", "unbounded-definite", "Gprime")
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)], label="bump")
    report = scaling_probe(functional, base, (0.5, 1.0, 2.0), prefactor_exponent=0.0)
    values = dict(report.entries)
    for t in (0.5, 1.0, 2.0):
        assert values[t] == pytest.approx(np.pi * (t * t - 2), rel=1e-10)
    assert report.sign_change


def test_scaling_probe_requires_exponent_for_partial_axes():
    functional = make_geodesic_tube("AdS3", "unbounded-definite", "Gprime")
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    with pytest.raises(ValueError, match="exponent"):
        scaling_probe(functional, base, (1.0,), axes=(0,))


def test_scaling_probe_strategy_on_every_entry():
    spec = GridSpec(circle_nodes=16, line_nodes=16)
    for cid in default_catalog_ids():
        verdict = classify(resolve(cid), strategy="scaling_probe", gridspec=spec)
        assert verdict.label in ("indefinite", "inconclusive"), cid
        if verdict.label == "inconclusive":
            assert verdict.notes, cid


def test_hyperbola_scaling_records_gradient_form_values():
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    spec = GridSpec(line_nodes=16)
    verdict = classify(entry, strategy="scaling_probe", gridspec=spec)
    record = next(e for e in verdict.evidence if e.note == GRADIENT_FORM_NOTE)
    radii, eps = entry.params["radii"], entry.params["eps"]
    u_w, u_e1, rep = hyperbola_direction_probes(radii, eps)
    # Q(u_w) is a column of the dilation family's form stack: the gradient
    # block of the jet form, contracted with the weighted jet Gram of the
    # probe's mesh moments, which a walk of its jets on the mesh gives up to
    # rounding
    form = np.zeros((len(jet_orders(3)),) * 2)
    form[1:4, 1:4] = rep.matrix
    column = integrate(jet_field(form[None], u_w), entry.functional.domains, spec, u_w.axis_boxes)
    assert record.min_eig == column[0]
    walked = integrate(JetFormField(form[None], None, u_w.jet_coords), entry.functional.domains, spec, u_w.axis_boxes)
    assert record.min_eig == pytest.approx(walked[0], rel=1e-13)
    # gradient_form_value integrates the same form-only field: rounding apart
    assert record.min_eig == pytest.approx(gradient_form_value(radii, eps, u_w, spec), rel=1e-14)
    assert record.max_eig == gradient_form_value(radii, eps, u_e1, spec)


def test_hyperbola_scaling_integrates_once_per_probe(monkeypatch):
    # the dirgauss:w family with Q(u_w), then V, int u^2 and Q of dirgauss:e1
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analyzer, "integrate", counted)
    monkeypatch.setattr(quadrature, "integrate", counted)
    verdict = classify(resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+"), strategy="scaling_probe")
    assert verdict.label == "indefinite"
    assert len(calls) == 2


def _separate_probe_values(functional, u, spec, extra_forms=()):
    """``V(u)``, ``int u^2`` and the sum of each extra form: one integration each."""
    norm2 = np.zeros((len(jet_orders(u.n)),) * 2)
    norm2[0, 0] = 1.0
    sums = [integrate(jet_field(m, u), functional.domains, spec, boxes=u.axis_boxes) for m in (norm2, *extra_forms)]
    return (evaluate_functional(functional, u, spec), *sums)


def _probe_values(functional, u, spec, extra_forms=()):
    """``V(u)``, ``int u^2`` and the sum of each extra form: their requests
    on ``u`` in one call of the valuation routine."""
    forms = (_functional_form(functional), analyzer._norm2_form(u.n), *extra_forms)
    return tuple(_pair_values(functional.domains, [u], [(0, 0, m) for m in forms], spec))


def test_probe_values_match_one_integration_per_value():
    for cid in default_catalog_ids():
        entry = resolve(cid)
        for u in witness_library(entry.functional.domains):
            got = _probe_values(entry.functional, u, entry.default_gridspec)
            assert got == _separate_probe_values(entry.functional, u, entry.default_gridspec), (cid, u.label)


@pytest.mark.parametrize(
    "functional, u",
    [
        # point-dependent V: its per-point form walks the mesh, the rest is one stack
        (SecondVariationFunctional(gradient_graph_chart()), Separable([Gauss1D(1.0), Gauss1D(1.0)])),
        (resolve("plane:n=2,p=1").functional, Separable([Gauss1D(1.0), Gauss1D(0.7)])),
        # not separable: the Gaussian's mesh moments for the whole stack
        (resolve("plane:n=2,p=1").functional, AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]])),
    ],
)
def test_probe_values_with_an_extra_form(functional, u):
    spec = GridSpec(line_nodes=24)
    extra = np.arange(36.0).reshape(6, 6) / 36.0
    extra = extra + extra.T
    assert _probe_values(functional, u, spec) == _separate_probe_values(functional, u, spec)
    assert _probe_values(functional, u, spec, [extra]) == _separate_probe_values(functional, u, spec, [extra])


def test_witnesses_take_the_best_value_that_clears_its_threshold():
    entry = resolve("plane:n=2,p=0")
    u = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    # 1.0 is under its threshold WITNESS_RTOL * 1e10 = 100; 0.5 clears 1e-8
    large = ("large", u, 1.0, 1e10)
    small = ("small", u, 0.5, 1.0)
    negative = ("negative", u, -2.0, 1.0)
    assert analyzer._witnesses(entry, [large, small, negative], None) == (
        analyzer.Witness("small", 0.5),
        analyzer.Witness("negative", -2.0),
    )
    assert analyzer._witnesses(entry, [large], None) == (None, None)


def test_gradient_form_value_on_an_oversized_mesh_fails_fast():
    # 96^4 = 85 M mesh points, over the cap: an error instead of an out-of-memory kill
    u_w, _, _ = hyperbola_direction_probes((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(GridTooLargeError, match="points"):
        gradient_form_value((1, 1, 1, 1), (1, 1, 1, 1), u_w)


def _full_mesh_verify_certificate(functional, cert, gridspec=None, seed=0):
    """The sampled comparison from the full mesh: 20000 of its rows, then the
    two jet forms compared entrywise row by row."""
    rng = np.random.default_rng(seed)
    boxes = tuple(10.0 if d.kind == "line" else None for d in functional.domains)
    pts, _ = build_grid(functional.domains, gridspec, boxes=boxes).points_and_weights()
    if len(pts) > 20000:
        pts = pts[rng.choice(len(pts), 20000, replace=False)]
    m_func = np.broadcast_to(_jet_form(functional.squares(pts), pts), (len(pts), 6, 6))
    m_cert = np.broadcast_to(_jet_form(cert.terms, pts), (len(pts), 6, 6))
    residual = max(float(np.max(np.abs(f - c))) for f, c in zip(m_func, m_cert))
    scale = max(1.0, max(float(np.max(np.abs(f))) for f in m_func))
    weight_ok = all(np.all(cert.sign * term.weight_values(pts) >= -1e-14) for term in cert.terms)
    return residual / scale, weight_ok


def _pointwise_weights(cert: SumOfSquares) -> SumOfSquares:
    """The certificate with each weight given as a function of the points."""
    terms = tuple(replace(t, weight=lambda pts, w=t.weight: np.full(len(pts), w)) for t in cert.terms)
    return replace(cert, terms=terms)


def _reference_certificate(cid: str) -> SumOfSquares:
    """A hyperbola product's closed-form squares, or a rank-one functional's
    own terms, as a caller-supplied certificate."""
    entry = resolve(cid)
    if entry.kind == "hyperbola":
        return SumOfSquares(hyperbola_reference_squares(entry.params["radii"], entry.params["eps"]), sign=-1)
    return SumOfSquares(entry.functional.terms, sign=1)


@pytest.mark.parametrize("cid", ["hyperbola:n=2,r=1,2,eps=+,-", "tn:kappa=0,K=-1"])
@pytest.mark.parametrize("spec", [None, GridSpec(circle_nodes=96, line_nodes=160)])
def test_verify_certificate_samples_without_the_mesh(cid, spec, monkeypatch):
    # the caller-supplied check always samples; point-dependent weights too
    entry = resolve(cid)
    cert = _pointwise_weights(_reference_certificate(cid))
    want = _full_mesh_verify_certificate(entry.functional, cert, spec, seed=3)

    def no_mesh(grid):
        raise AssertionError("verify_certificate built the full mesh")

    monkeypatch.setattr(Grid, "points_and_weights", no_mesh)
    got = verify_certificate(entry.functional, cert, spec, seed=3)
    assert got == want
    assert got[0] <= 1e-10 and got[1]


CERTIFIED = [cid for cid in default_catalog_ids() if resolve(cid).default_strategy == "sos_certificate"]


def test_every_catalog_certificate_is_derived_without_a_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a certificate built a grid")

    monkeypatch.setattr(analyzer, "build_grid", no_grid)
    monkeypatch.setattr(analyzer, "verify_certificate", no_grid)
    assert len(CERTIFIED) == 12
    for cid in CERTIFIED:
        entry = resolve(cid)
        assert entry.certificate is None
        verdict = classify(entry, strategy="sos_certificate")
        assert verdict.label in ("positive_definite", "negative_definite"), cid
        assert "(least eigenvalue of the signed jet form)" in verdict.notes[0], cid
        assert verdict.notes[1].startswith("kernel: "), cid
        assert verdict.tolerances["sos_residual"] <= 1e-10, cid


@pytest.mark.parametrize(
    "cid", ["hyperbola:n=1,r=1,eps=+", "plane:n=2,p=1", "tube:S3:closed-definite:Gprime", "tn:kappa=0,K=-1"]
)
def test_a_jet_form_off_semidefinite_gets_no_certificate(cid):
    functional = resolve(cid).functional
    form, domains = functional.jet_form, functional.domains
    cert = sos_certificate(form, domains)
    assert cert.definite
    assert sos_certificate(-form, domains).sign == -cert.sign
    # the u coordinate, which every square leaves out, pulled the other way
    off = form.copy()
    off[0, 0] -= cert.sign * 1e-6
    bad = sos_certificate(off, domains)
    assert bad.sign == cert.sign and bad.residual > 1e-10 and not bad.definite


def test_a_functional_off_semidefinite_is_inconclusive():
    functional = resolve("tn:kappa=0,K=-1").functional
    zero = ((0.0, 0.0), (0.0, 0.0))
    for extra in (JetSquareTerm(-1e-6, (1.0, 0.0), zero), JetSquareTerm(-1e-6, (0.0, 0.0), ((1.0, 0.0), (0.0, 0.0)))):
        off = ClosedFormFunctional(functional.domains, functional.terms + (extra,))
        verdict = classify(off, strategy="sos_certificate")
        assert verdict.label == "inconclusive"
        assert verdict.notes[-1] == "certificate failed verification"
        assert verdict.tolerances["sos_residual"] > 1e-10


def test_point_dependent_certificate_is_sampled(monkeypatch):
    # integrand 4 u_st^2 + (2 + cos s) u_t^2 of a curve with K = -1 - cos(s)/2,
    # certified by an independently written weight
    functional = make_rank_one_bundle(CurveData(kappa=0.0, K_along=lambda s: -1.0 - 0.5 * np.cos(s)))
    zero = ((0.0, 0.0), (0.0, 0.0))

    def cert(shift):
        return SumOfSquares(
            terms=(
                JetSquareTerm(4.0, (0.0, 0.0), ((0.0, 1.0), (0.0, 0.0))),
                JetSquareTerm(lambda pts: 2.0 + np.cos(pts[:, 0]) + shift, (0.0, 1.0), zero),
            ),
            sign=1,
        )

    def no_mesh(grid):
        raise AssertionError("verify_certificate built the full mesh")

    monkeypatch.setattr(Grid, "points_and_weights", no_mesh)
    residual, ok = verify_certificate(functional, cert(0.0))
    assert residual <= 1e-15 and ok
    residual, ok = verify_certificate(functional, cert(1e-6))
    assert residual > 1e-10 and ok
    assert not verify_certificate(functional, cert(-3.0))[1]
    entry = replace(resolve("tn:kappa=0,K=-1"), functional=functional, certificate=cert(0.0))
    verdict = classify(entry, strategy="sos_certificate")
    assert verdict.label == "positive_definite"
    assert "(jet-form comparison at up to 20000 sampled rows)" in verdict.notes[0]


def test_point_dependent_certificate_with_a_wrong_mixed_coefficient_is_rejected():
    # the certificate's u_s u_t coefficient is 1e-9 where the functional's is 0;
    # the per-row jet forms differ by 0.5e-9 against max|M_func| = 4
    functional = make_rank_one_bundle(CurveData(kappa=0.0, K_along=lambda s: -1.0 - 0.5 * np.cos(s)))
    zero = ((0.0, 0.0), (0.0, 0.0))
    weight = lambda pts: 2.0 + np.cos(pts[:, 0])
    cert = SumOfSquares(
        terms=(
            JetSquareTerm(4.0, (0.0, 0.0), ((0.0, 1.0), (0.0, 0.0))),
            JetSquareTerm(weight, (lambda pts: 0.5e-9 / weight(pts), 1.0), zero),
        ),
        sign=1,
    )
    residual, ok = verify_certificate(functional, cert)
    assert 1e-10 < residual < 2e-10 and ok
    entry = replace(resolve("tn:kappa=0,K=-1"), functional=functional, certificate=cert)
    verdict = classify(entry, strategy="sos_certificate")
    assert verdict.label == "inconclusive"
    assert verdict.notes[-1] == "certificate failed verification"


def test_minimal_null_graph_is_negative_definite_by_its_point_dependent_certificate():
    # -(2 u_12 + cos(s_1) u_22)^2 against the chart's per-point squares
    chart = minimal_null_graph_chart()
    cert = SumOfSquares(
        terms=(JetSquareTerm(-1.0, (0.0, 0.0), ((0.0, 2.0), (0.0, lambda pts: np.cos(pts[:, 0])))),),
        sign=-1,
        kernel_note="value 0 forces lap u = 0 pointwise",
    )
    functional = SecondVariationFunctional(chart)
    # a point-dependent form is what sends classify to the supplied certificate
    assert functional.jet_form is None
    residual, ok = verify_certificate(functional, cert)
    assert residual <= 1e-15 and ok
    entry = replace(resolve("plane:n=2,amb=para"), functional=functional, chart=chart, certificate=cert)
    verdict = classify(entry, strategy="sos_certificate")
    assert verdict.label == "negative_definite"
    assert verdict.notes[0] == f"pointwise certificate residual {residual:.3e} (jet-form comparison at up to 20000 sampled rows)"
    assert verdict.witness_neg is not None and verdict.witness_neg.value < 0


def test_gradient_form_note_prints_the_signs_found():
    # on this box 40 nodes are about 39 apart near 0, wider than the probes,
    # so Q(u_w) comes out as a positive rounding-level value
    entry = resolve("hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+")
    verdict = classify(entry, "scaling_probe", GridSpec(line_nodes=40, line_box=500))
    record = next(e for e in verdict.evidence if e.note == GRADIENT_FORM_NOTE)
    qw, qe = record.min_eig, record.max_eig
    assert 0 < qw < 1e-90 and qe > 0
    assert f"gradient-form values: Q(u_w) = {qw:.6g} (> 0), Q(u_e1) = {qe:.6g} (> 0)" in verdict.notes
    assert [analyzer._with_sign(x) for x in (-2.5, 0.0, 3.0)] == ["-2.5 (< 0)", "0 (= 0)", "3 (> 0)"]


def test_isotropic_default_exponent():
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    u_w, _, _ = hyperbola_direction_probes(entry.params["radii"], entry.params["eps"])
    report = scaling_probe(entry.functional, u_w, (0.5,), gridspec=entry.default_gridspec)
    assert report.prefactor_exponent == pytest.approx(0.5)  # n/2 - 1


# -------------------------------------------------------------- spectral

def test_spectral_criterion_sphere():
    rep = spectral_criterion((1.0, 1.0), 2.0)
    assert rep.lam1 == 1.0
    assert rep.verdict == "unstable"
    # the lowest modes sit at lam = 1 (negative sign) and lam = 2 (marginal)
    assert rep.mode_table[0][1] == 1.0
    signs = {lam: val for _, lam, val in rep.mode_table}
    assert signs[1.0] < 0
    assert signs[2.0] == 0.0


def test_spectral_criterion_nonpositive_constant():
    rep = spectral_criterion((1.0, 2.0), -0.5)
    assert rep.verdict == "stable"


def test_spectral_criterion_boundary():
    rep = spectral_criterion((1.0, 1.0), 1.0)
    assert rep.lam1 == 1.0
    assert rep.verdict == "stable"


def test_classify_sphere_tube_spectral():
    verdict = classify(resolve("tube:S3:closed:G"))
    assert verdict.label == "indefinite"
    assert verdict.witness_neg.probe_id == "mode:cos(s)"
    assert verdict.witness_neg.value == pytest.approx(-2 * np.pi**2, rel=1e-10)
    assert verdict.witness_pos.value == pytest.approx(16 * np.pi**2, rel=1e-10)
    assert any("cos(s+t)" in note for note in verdict.notes)


# ------------------------------------------------------- matrix analysis

def test_matrix_analysis_equal_radii():
    rep = hyperbola_matrix_analysis((1.0, 1.0, 1.0), (1, 1, 1))
    assert np.allclose(np.sort(rep.eigenvalues), [-1.0, 2.0, 2.0], atol=1e-12)
    assert rep.inertia == (2, 1, 0)
    assert rep.w_value == pytest.approx(2 * 3 - 9)
    assert rep.e1_value == pytest.approx(1.0)


def test_matrix_analysis_n2_degenerate_direction():
    rep = hyperbola_matrix_analysis((1.0, 2.0), (1, -1))
    assert rep.w_value == pytest.approx(0.0, abs=1e-14)
    assert rep.inertia[1] == 0  # no negative direction in two axes
    assert rep.e1_value == pytest.approx(1.0)


def test_matrix_analysis_needs_two_axes():
    with pytest.raises(ValueError):
        hyperbola_matrix_analysis((1.0,), (1,))


def test_gradient_form_gaussian_moment_oracle():
    # diagonal anisotropic Gaussian: int Q(du, du) = Z * tr(M_Q A) / 2
    radii, eps = (1.0, 2.0, 3.0), (1, -1, 1)
    rep = hyperbola_matrix_analysis(radii, eps)
    A = np.diag([1.0, 0.25, 0.5])
    u = AnisotropicGaussian(A)
    Z = np.sqrt(np.pi**3 / np.linalg.det(A))
    expect = Z * np.trace(rep.matrix @ A) / 2
    got = gradient_form_value(radii, eps, u)
    assert got == pytest.approx(expect, rel=1e-9)
    # rotated probes stay within the mesh resolution of the same oracle
    u_w, _, _ = hyperbola_direction_probes(radii, eps)
    Zw = np.sqrt(np.pi**3 / np.linalg.det(u_w.A))
    expect_w = Zw * np.trace(rep.matrix @ u_w.A) / 2
    got_w = gradient_form_value(radii, eps, u_w, GridSpec(line_nodes=64))
    assert got_w == pytest.approx(expect_w, rel=1e-6)
    assert got_w < 0


# ------------------------------------------------------------- wirtinger

def test_wirtinger_circle():
    rep = wirtinger_bound(CurveData(kappa=0.5, K_along=0.0, closed=True, length=4 * np.pi))
    assert rep.sup_value == pytest.approx(0.25)
    assert rep.threshold == pytest.approx(1.0)
    assert rep.verdict == "stable"


def test_wirtinger_pointwise_branch():
    rep = wirtinger_bound(CurveData(kappa=0.0, K_along=-1.0))
    assert rep.sup_value == pytest.approx(-2.0)
    assert rep.threshold is None
    assert rep.verdict == "stable"


def test_wirtinger_sufficient_only():
    # sup above the threshold: inconclusive, not automatically unstable
    R = 1.0
    curve = CurveData(kappa=np.sqrt(5.0) / R, K_along=0.0, closed=True, length=2 * np.pi * R)
    rep = wirtinger_bound(curve)
    assert rep.sup_value == pytest.approx(5.0)
    assert rep.threshold == pytest.approx(4.0)
    assert rep.verdict == "inconclusive"


def test_wirtinger_open_positive_raises():
    with pytest.raises(ValueError, match="closed"):
        wirtinger_bound(CurveData(kappa=1.0, K_along=0.0))


def test_tn_closed_curve_with_vanishing_coefficient_is_not_certified():
    # kappa^2 + 2K = 0 on a closed curve: u = g(t), constant along the curve,
    # is a null direction, so neither a certificate nor the curve criterion applies
    entry = resolve(f"tn:kappa=0,K=0,L={2 * np.pi:.17g}")
    null = Separable([Const1D(), Gauss1D(1.0)], label="fibre-only")
    assert evaluate_functional(entry.functional, null) == 0.0
    assert entry.certificate is None
    verdict = classify(entry, strategy="sos_certificate")
    assert verdict.label == "inconclusive"
    # with kappa^2 + 2K = 0 only 4 u_st^2 is left: neither gradient block is definite
    assert verdict.notes[1] == (
        "kernel: not shown trivial (circle gradient block definite: False; line gradient block definite: False)"
    )
    verdict = classify(entry, strategy="spectral_criterion")
    assert verdict.label == "inconclusive"
    assert "null direction" in verdict.notes[0]
    # the open curve has compact support on both line axes: certified
    for open_entry in (resolve("tn:kappa=0,K=0"), resolve("tn:kappa=1,K=-0.5")):
        verdict = classify(open_entry, strategy="sos_certificate")
        assert verdict.label == "positive_definite"
        assert verdict.notes[1] == "kernel: trivial (line-jet part nonzero: True)"


def test_tn_spectral_open_positive_is_inconclusive():
    # neither branch of the curve criterion applies: an open curve with sup > 0
    verdict = classify(resolve("tn:kappa=1,K=0"), strategy="spectral_criterion")
    assert verdict.label == "inconclusive"
    assert verdict.witness_pos is None and verdict.witness_neg is None
    assert verdict.evidence[0].min_eig == verdict.evidence[0].max_eig == pytest.approx(1.0)
    assert "closed curve" in verdict.notes[0]


# --------------------------------------------------------------- libraries

def test_witness_library_mixed_domains():
    functional = make_geodesic_tube("dS3", "unbounded", "G")
    lib = witness_library(functional.domains)
    labels = [u.label for u in lib]
    assert "gauss1xconst" in labels
    assert "gauss4xcos1" in labels
    # no plane waves off the torus
    assert not any(label.startswith("wave") for label in labels)
    torus_lib = witness_library(make_geodesic_tube("S3", "closed", "G").domains)
    assert any(u.label.startswith("wave") for u in torus_lib)


def test_verify_certificate_detects_wrong_form():
    entry = resolve("hyperbola:n=2,r=1,3,eps=+,+")
    wrong = _reference_certificate("hyperbola:n=2,r=1,2,eps=+,+")
    residual, ok = verify_certificate(entry.functional, wrong)
    assert residual > 1e-6


def test_mode_value_quadrature_exactness_n3():
    # sampled modes from the |k| <= 4 lattice at every p, relative 1e-9
    radii = (1.0, 2.0, 3.0)
    rng = np.random.default_rng(31)
    modes = set()
    while len(modes) < 10:
        k = tuple(int(x) for x in rng.integers(-4, 5, size=3))
        if any(k):
            modes.add(k)
    for p in range(4):
        chart = resolve(f"torus:n=3,r=1,2,3,p={p}").chart
        for k in sorted(modes)[: 4 if p in (1, 2) else 2]:
            fast = torus_mode_value(radii, p, k)
            slow = second_variation(chart, torus_mode_function(radii, k))
            assert slow == pytest.approx(fast, rel=1e-9, abs=1e-9)
