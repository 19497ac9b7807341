"""Sum-factorized quadrature against the reference mesh path on the same grid."""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab import analyzer, quadrature, verification
from hamstab.catalog import CurveData, default_catalog_ids, make_lagrangian_plane, make_rank_one_bundle, resolve
from hamstab.immersion import AxisDomain
from hamstab.quadrature import GridSpec, SupportError
from hamstab.testfunctions import (
    AnisotropicGaussian,
    AxisScaled,
    Const1D,
    Cos1D,
    Gauss1D,
    HermGauss1D,
    LinComb,
    PlaneWaveCos,
    Separable,
    TestFunction,
    jet_coordinates,
    jet_from_coordinates,
    jet_orders,
    random_bump_poly,
    random_trig_poly,
)
from hamstab.variation import (
    MetricField,
    RawHessianFunctional,
    SecondVariationFunctional,
    _pair_values,
    evaluate_functional,
    jet_field,
    reilly_residual,
)

from helpers import counting_lead_rows, form_rounding_scale, gradient_graph_chart

SMALL = GridSpec(circle_nodes=16, line_nodes=16)
CATALOG = {cid: resolve(cid) for cid in default_catalog_ids()}


@contextmanager
def counting_meshes(walkers=("_walk_mesh",)):
    """Record the size of every quadrature mesh walked inside the block (or
    integrated by the named routes)."""
    calls = []
    originals = {name: getattr(quadrature, name) for name in walkers}

    def counting(original):
        def counted(grid, *args):
            calls.append(grid.size)
            return original(grid, *args)

        return counted

    for name, original in originals.items():
        setattr(quadrature, name, counting(original))
    try:
        yield calls
    finally:
        for name, original in originals.items():
            setattr(quadrature, name, original)


def mesh_value(functional, u, spec):
    """The reference path: a plain field is always integrated on the mesh."""
    return quadrature.integrate(
        lambda pts: functional.integrand(pts, u.jet(pts)), functional.domains, spec, boxes=u.axis_boxes
    )


def norm2_value(functional, u, spec):
    """``int u^2``: the request ``(u, u, e0 e0^T)`` on the functional's domains."""
    return _pair_values(functional.domains, [u], [(0, 0, analyzer._norm2_form(u.n))], spec)[0]


def factors(draw, domains):
    out = []
    for dom in domains:
        if dom.kind == "circle":
            k = draw(st.integers(0, 2))
            phase = draw(st.floats(0.0, 2 * np.pi))
            out.append(Const1D() if k == 0 else Cos1D(k * 2 * np.pi / dom.size, phase))
        elif draw(st.booleans()):
            out.append(Gauss1D(draw(st.floats(0.5, 2.0)), center=draw(st.floats(-1.0, 1.0))))
        else:
            out.append(HermGauss1D(draw(st.integers(0, 3)), draw(st.floats(0.5, 2.0))))
    return Separable(out, label="drawn")


@st.composite
def separable_probes(draw, domains):
    kind = draw(st.sampled_from(["separable", "pair", "bumps", "scaled"]))
    u = factors(draw, domains)
    if kind == "pair":
        u = LinComb([(1.0, u), (draw(st.sampled_from([1.0, -1.0])), factors(draw, domains))])
    elif kind == "bumps" and all(dom.kind == "line" for dom in domains):
        u = random_bump_poly(len(domains), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif kind == "scaled":
        scales = [
            draw(st.sampled_from([1.0, 2.0])) if dom.kind == "circle" else draw(st.floats(0.5, 2.0))
            for dom in domains
        ]
        u = AxisScaled(u + factors(draw, domains), scales, draw(st.floats(0.5, 2.0)))
    return u


@st.composite
def catalog_cases(draw):
    cid = draw(st.sampled_from(sorted(CATALOG)))
    functional = CATALOG[cid].functional
    return cid, functional, draw(separable_probes(functional.domains))


def test_every_catalog_functional_has_a_constant_form():
    assert all(entry.functional.jet_form is not None for entry in CATALOG.values())


@settings(deadline=None, max_examples=60)
@given(catalog_cases())
def test_fast_path_matches_mesh_path(case):
    cid, functional, u = case
    assert u.separable_terms() is not None
    with counting_meshes() as calls:
        fast = evaluate_functional(functional, u, SMALL)
        fast_norm = norm2_value(functional, u, SMALL)
    assert calls == [], cid
    ref = mesh_value(functional, u, SMALL)
    assert abs(fast - ref) <= 1e-12 * max(1.0, abs(ref)), (cid, fast, ref)
    ref_norm = quadrature.integrate(lambda pts: u.jet(pts)[0] ** 2, functional.domains, SMALL, boxes=u.axis_boxes)
    assert abs(fast_norm - ref_norm) <= 1e-12 * max(1.0, abs(ref_norm))


class _ExpCosWave(TestFunction):
    """exp(cos(freqs . s)): periodic on the torus, but no finite sum of
    products of one-variable factors, so it has no separable terms."""

    def __init__(self, freqs):
        self.freqs = np.asarray(freqs, dtype=float)
        self.n = len(self.freqs)
        self.axis_periods = tuple(2 * np.pi / abs(m) if m != 0.0 else 0.0 for m in self.freqs)
        self.axis_boxes = (None,) * self.n

    def jet(self, points):
        arg = np.atleast_2d(np.asarray(points, dtype=float)) @ self.freqs
        u = np.exp(np.cos(arg))
        outer = np.einsum("i,j->ij", self.freqs, self.freqs)
        du = -np.einsum("n,i->ni", np.sin(arg) * u, self.freqs)
        hess = np.einsum("n,ij->nij", (np.sin(arg) ** 2 - np.cos(arg)) * u, outer)
        return u, du, hess


@pytest.mark.parametrize(
    "cid, u",
    [
        ("plane:n=2,p=0", AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]])),
        ("torus:n=2,r=1,1,p=1", _ExpCosWave([1.0, 1.0])),
        ("torus:n=2,r=1,1,p=1", LinComb([(1.0, PlaneWaveCos([1.0, 0.0])), (1.0, _ExpCosWave([1.0, -1.0]))])),
    ],
)
def test_non_separable_probes_use_the_mesh(cid, u):
    # the constant form takes a Gaussian's mesh moments, and any other
    # probe's one walk of the mesh
    functional = CATALOG[cid].functional
    assert u.separable_terms() is None
    gaussian = u.gaussian_terms() is not None
    with counting_meshes(("_gaussian_moments",)) as moments, counting_meshes() as walks:
        val = evaluate_functional(functional, u, SMALL)
    assert (len(moments), len(walks)) == (gaussian, not gaussian)
    # the moments reduce in another order than the pointwise sum, and the
    # walk contracts the jet form where the reference evaluates the integrand
    scale = form_rounding_scale(jet_field(functional.jet_form, u), functional.domains, SMALL, u.axis_boxes)
    assert abs(val - mesh_value(functional, u, SMALL)) <= 1e-12 * scale[0]


TORUS_IDS = [
    f"torus:n={n},r={radii},p={p}"
    for n, radii in ((1, "1"), (2, "1,1"), (3, "1,2,3"))
    for p in range(n + 1)
]


def torus_probes(functional, seed):
    """Plane waves on the torus chart: the all-ones mode, a wave mixed with a
    product, a drawn wave with signed and zero wavenumbers and a phase, and
    a random trigonometric polynomial."""
    periods = [dom.size for dom in functional.domains]
    base = 2 * np.pi / np.array(periods)
    first = np.eye(len(base))[0] * base
    rng = np.random.default_rng(seed)
    drawn = rng.integers(-3, 4, size=len(base)) * base
    return [
        PlaneWaveCos(base),
        LinComb([(1.0, PlaneWaveCos(first)), (1.0, Separable([Cos1D(base[0])] + [Const1D()] * (len(base) - 1)))]),
        PlaneWaveCos(drawn, rng.uniform(0.0, 2 * np.pi)),
        random_trig_poly(periods, rng),
    ]


@pytest.mark.parametrize("cid", TORUS_IDS)
def test_plane_waves_on_tori_sum_factorize(cid):
    functional = resolve(cid).functional
    for seed in range(3):
        for u in torus_probes(functional, seed):
            assert u.separable_terms() is not None
            with counting_meshes() as calls:
                fast = evaluate_functional(functional, u, SMALL)
                fast_norm = norm2_value(functional, u, SMALL)
            assert calls == [], (cid, u.label)
            ref = mesh_value(functional, u, SMALL)
            assert abs(fast - ref) <= 1e-12 * max(1.0, abs(ref)), (cid, u.label, fast, ref)
            ref_norm = quadrature.integrate(lambda pts: u.jet(pts)[0] ** 2, functional.domains, SMALL)
            assert abs(fast_norm - ref_norm) <= 1e-12 * max(1.0, abs(ref_norm))


@pytest.mark.parametrize("number", [1, 3])
def test_torus_criteria_walk_no_mesh(number):
    with counting_meshes() as calls:
        results = verification.run_criterion(number)
    assert calls == []
    assert all(r.passed for r in results)


def test_reilly_residual_is_a_jet_form_that_walks_no_mesh():
    # vol (M_lap - M_hess) sum-factorizes on criterion 6's 20 probes, and
    # matches the pointwise integrand on an indefinite metric
    with counting_meshes() as calls:
        results = verification.run_criterion(6)
    assert calls == []
    assert all(r.passed for r in results)
    m = MetricField.flat([1.0, -1.0])
    u = random_bump_poly(2, np.random.default_rng(6))
    ginv = np.diag([1.0, -1.0])

    def pointwise(pts):
        _, _, d2u = u.jet(pts)
        lap = np.einsum("ij,nij->n", ginv, d2u)
        return lap * lap - np.einsum("ik,jl,nij,nkl->n", ginv, ginv, d2u, d2u)

    domains = (AxisDomain.line(), AxisDomain.line())
    ref = quadrature.integrate(pointwise, domains, SMALL, boxes=u.axis_boxes)
    lap_sq = quadrature.integrate(lambda pts: np.einsum("ij,nij->n", ginv, u.jet(pts)[2]) ** 2, domains, SMALL, boxes=u.axis_boxes)
    assert abs(reilly_residual(u, m, gridspec=SMALL) - ref) <= 1e-12 * (1.0 + lap_sq)


def test_criterion_4_takes_two_moment_integrations_and_no_mesh_walk():
    # the n = 3 and n = 4 dilation families of dirgauss:w take the Gaussian
    # moments of their grids; a form contracted point by point would be a
    # mesh walk
    with counting_meshes(("_gaussian_moments",)) as moments, counting_meshes() as walks:
        results = verification.run_criterion(4)
    assert all(r.passed for r in results)
    assert sorted(moments) == [64**3, 40**4]
    assert walks == []


def test_criterion_4_sums_under_half_of_the_n_4_lead_rows():
    # on hyperbola:n=4's 40^4 mesh u^2 is below the cut on most of the 1600
    # leading rows of 40^2 points; the nearest block and the rows kept are
    # the only ones contracted
    with counting_lead_rows() as walks:
        verification.run_criterion(4)
    n4 = [(kept, lead_rows) for shape, kept, lead_rows in walks if shape == (40,) * 4]
    assert len(n4) == 2 and n4[0][1] == 1600
    assert sum(kept for kept, _ in n4) < 1600 / 2


def test_criterion_4_reads_the_gradient_form_on_the_default_grid():
    # at another grid the probes' gradient form is integrated on each
    # entry's default grid, so the text matches the default run's
    def probes(results):
        return {r.check_id: r.actual for r in results if r.check_id.startswith("hyperbola-probes:")}

    default = probes(verification.run_criterion(4))
    assert sorted(default) == ["hyperbola-probes:n=3", "hyperbola-probes:n=4"]
    assert probes(verification.run_criterion(4, SMALL)) == default


def test_diagonal_anisotropic_gaussian_sum_factorizes():
    functional = CATALOG["plane:n=2,p=1"].functional
    u = AnisotropicGaussian(np.diag([1.0, 0.25]), center=[0.3, -0.5])
    assert u.separable_terms() is not None
    with counting_meshes() as calls:
        fast = evaluate_functional(functional, u, SMALL)
    assert calls == []
    ref = mesh_value(functional, u, SMALL)
    assert abs(fast - ref) <= 1e-12 * max(1.0, abs(ref))


def test_gradient_form_value_sum_factorizes_axis_aligned_probes():
    radii, eps = (1.0, 2.0, 3.0), (1, -1, 1)
    _, u_e1, rep = analyzer.hyperbola_direction_probes(radii, eps)
    with counting_meshes() as calls:
        fast = analyzer.gradient_form_value(radii, eps, u_e1, SMALL)
    assert calls == []
    domains = (AxisDomain.line(),) * 3
    ref = quadrature.integrate(
        lambda pts: np.einsum("ni,ij,nj->n", u_e1.jet(pts)[1], rep.matrix, u_e1.jet(pts)[1]),
        domains,
        SMALL,
        boxes=u_e1.axis_boxes,
    )
    assert abs(fast - ref) <= 1e-12 * abs(ref)


def test_form_stacks_match_one_form_at_a_time():
    functional = CATALOG["plane:n=2,p=1"].functional
    forms = np.array([functional.jet_form, np.eye(len(functional.jet_form)), -2.0 * functional.jet_form])
    for u in (Separable([Gauss1D(1.0), HermGauss1D(2, 0.8)]), AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]])):
        terms = u.separable_terms()
        field = quadrature.JetFormField(forms, None if terms is None else [terms], u.jet_coords)
        with counting_meshes() as calls:
            values = quadrature.integrate(field, functional.domains, SMALL, boxes=u.axis_boxes)
        assert len(calls) == (u.separable_terms() is None)
        for value, form in zip(values, forms):
            ref = quadrature.integrate(
                lambda pts: np.einsum("np,pq,nq->n", jet_coordinates(u.jet(pts)), form, jet_coordinates(u.jet(pts))),
                functional.domains,
                SMALL,
                boxes=u.axis_boxes,
            )
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
        with pytest.raises(SupportError, match="boundary"):
            quadrature.integrate(field, functional.domains, GridSpec(line_nodes=16, line_box=3.0))


def test_jet_coordinates_invert_jet_from_coordinates():
    coords = np.random.default_rng(3).standard_normal((5, len(jet_orders(3))))
    assert np.array_equal(jet_coordinates(jet_from_coordinates(coords, 3)), coords)


def test_point_dependent_functionals_use_the_mesh():
    u = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    graph = SecondVariationFunctional(gradient_graph_chart())
    curve = make_rank_one_bundle(CurveData(kappa=lambda s: 1.0 + 0.1 * np.sin(s), K_along=0.0))
    for functional in (graph, curve):
        assert functional.jet_form is None
        with counting_meshes() as calls:
            evaluate_functional(functional, u, SMALL)
        assert len(calls) == 1


def test_truncated_support_falls_back_and_raises():
    functional = CATALOG["plane:n=2,p=0"].functional
    u = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    with counting_meshes(("_sum_factorized",)) as factorized, counting_meshes() as walks:
        with pytest.raises(SupportError, match="boundary"):
            evaluate_functional(functional, u, GridSpec(line_nodes=16, line_box=3.0))
    # the sum-factorized edge bound fails; the walk of the mesh then decides
    # per point and raises
    assert len(factorized) == 1 and len(walks) == 1


def test_wrong_constant_declaration_raises():
    # the gradient graph's metric varies, so the declaration fails the
    # functional's check on its sample grid instead of giving a jet form
    chart = dataclasses.replace(gradient_graph_chart(), geometry_is_constant=True)
    for make in (SecondVariationFunctional, RawHessianFunctional):
        with pytest.raises(ValueError, match="declared geometry_is_constant"):
            make(chart)


def test_jet_form_of_the_flat_laplacian_square():
    # jet coordinates (u, u_0, u_1, u_00, u_01, u_11) on the flat plane in C^2:
    # (u_00 + u_11)^2, and the squared Hessian u_00^2 + 2 u_01^2 + u_11^2
    chart = make_lagrangian_plane(2, p=0)
    expect = np.zeros((6, 6))
    expect[np.ix_([3, 5], [3, 5])] = 1.0
    assert np.array_equal(SecondVariationFunctional(chart).jet_form, expect)
    assert np.array_equal(RawHessianFunctional(chart).jet_form, np.diag([0.0, 0.0, 0.0, 1.0, 2.0, 1.0]))


# A dilation family per entry: (probe axes, prefactor exponent, grid).
FAMILIES = {
    "hyperbola:n=3,r=1,1,1,eps=+,+,+": (None, None, SMALL),
    "hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+": (None, None, GridSpec(line_nodes=8)),
    "tube:AdS3:unbounded-definite:Gprime": (None, 0.0, SMALL),
    "tn:kappa=1,K=0": ((0,), 1.5, SMALL),
}


def family_probe(entry):
    if entry.kind == "hyperbola":
        return analyzer.hyperbola_direction_probes(entry.params["radii"], entry.params["eps"])[0]
    return Separable([Gauss1D(1.0), Gauss1D(1.0)], label="bump")


def dilated(u, t, axes, a):
    return AxisScaled(u, [t if j in axes else 1.0 for j in range(u.n)], t**a)


def rounding_scale(functional, u, report, spec):
    """``t^-|axes| sum_x w(x) |D_t j(x)|^T |M| |D_t j(x)|`` per family member:
    the magnitude against which either path rounds its value."""
    grid = quadrature.build_grid(functional.domains, spec, u.axis_boxes)
    pts, w = grid.points_and_weights()
    coords = np.abs(jet_coordinates(u.jet(pts)))
    pi = jet_orders(u.n)[:, list(report.axes)].sum(axis=1)
    out = []
    for t, _ in report.entries:
        c = coords * t ** (report.prefactor_exponent + pi)
        out.append(t ** -len(report.axes) * np.sum(w * np.einsum("np,pq,nq->n", c, np.abs(functional.jet_form), c)))
    return out


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(sorted(FAMILIES)), st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4))
def test_one_pass_dilation_family_matches_per_t(cid, schedule):
    entry = CATALOG[cid]
    axes, a, spec = FAMILIES[cid]
    u = family_probe(entry)
    # a separable probe sum-factorizes and the hyperbola's Gaussian takes
    # its mesh moments, as would each dilated member u^t; the reference
    # integrates each member's integrand point by point on its own grid
    with counting_meshes(("_gaussian_moments",)) as moments, counting_meshes() as walks:
        report = analyzer.scaling_probe(entry.functional, u, schedule, axes=axes, prefactor_exponent=a, gridspec=spec)
    assert (len(moments), walks) == (u.gaussian_terms() is not None, [])
    scales = rounding_scale(entry.functional, u, report, spec)
    for (t, value), norm2, scale in zip(report.entries, report.norms, scales):
        ut = dilated(u, t, report.axes, report.prefactor_exponent)
        ref = mesh_value(entry.functional, ut, spec)
        assert abs(value - ref) <= 1e-13 * scale, (cid, t, value, ref)
        ref_norm = quadrature.integrate(lambda pts: ut.jet(pts)[0] ** 2, entry.functional.domains, spec, boxes=ut.axis_boxes)
        assert abs(norm2 - ref_norm) <= 1e-13 * ref_norm, (cid, t, norm2, ref_norm)


def test_fixed_line_box_takes_the_per_t_loop():
    entry = CATALOG["hyperbola:n=3,r=1,1,1,eps=+,+,+"]
    u = family_probe(entry)
    spec = GridSpec(line_nodes=16, line_box=60.0)
    schedule = (0.5, 1.0, 2.0)
    extra = np.eye(len(jet_orders(3)))
    # the members u^t and u share the line box, but each Gaussian takes the
    # mesh moments of its own grid
    with counting_meshes(("_gaussian_moments",)) as moments, counting_meshes() as walks:
        report = analyzer.scaling_probe(entry.functional, u, schedule, gridspec=spec, extra_forms=[extra])
    assert (len(moments), walks) == (len(schedule) + 1, [])
    members = [dilated(u, t, (0, 1, 2), 0.5) for t in schedule]
    assert report.entries == [(t, evaluate_functional(entry.functional, ut, spec)) for t, ut in zip(schedule, members)]
    assert report.norms == [norm2_value(entry.functional, ut, spec) for ut in members]
    assert report.extras == _pair_values(entry.functional.domains, [u], [(0, 0, extra)], spec)


def test_gaussians_sharing_a_box_keep_their_moments():
    # moments integrate one probe at a time: requests on Gaussian probes are
    # never grouped into one field, which would walk
    functional = CATALOG["plane:n=2,p=1"].functional
    probes = [AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]]), AnisotropicGaussian([[0.7, -0.2], [-0.2, 1.2]], [0.3, 0.0])]
    spec = GridSpec(line_nodes=16, line_box=12.0)
    norm2 = analyzer._norm2_form(2)
    requests = [(a, a, m) for a in range(2) for m in (functional.jet_form, norm2)]
    with counting_meshes(("_gaussian_moments",)) as moments, counting_meshes() as walks:
        got = _pair_values(functional.domains, probes, requests, spec)
    assert (len(moments), walks) == (2, [])
    assert got == [v for u in probes for v in _pair_values(functional.domains, [u], requests[:2], spec)]


def test_one_pass_family_keeps_the_per_t_checks():
    functional = CATALOG["tube:AdS3:unbounded-definite:Gprime"].functional
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)], label="bump")
    with pytest.raises(ValueError, match="'bump;t=0.0001' is incompatible"):
        analyzer.scaling_probe(functional, base, (1.0, 1e-4), prefactor_exponent=0.0)


def test_tied_witnesses_follow_the_reference_path():
    entry = CATALOG["plane:n=2,p=0"]
    verdict = analyzer.classify(entry, strategy="fourier_sweep")
    tied = [u for u in analyzer.witness_library(entry.functional.domains) if u.label in ("gauss1xgauss4", "gauss4xgauss1")]
    ref = [mesh_value(entry.functional, u, entry.default_gridspec) for u in tied]
    assert verdict.witness_pos.probe_id == tied[ref.index(max(ref))].label
