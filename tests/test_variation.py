from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab.catalog import CHART_KINDS, default_catalog_ids, make_hyperbola_product, make_lagrangian_plane, make_torus, resolve
from hamstab.geometry import AmbientFlat
from hamstab.immersion import (
    REL_STEP,
    AxisDomain,
    axis_lines,
    chart_from_components,
    induced_geometry_batch,
    sample_axes,
    sample_grid,
    structural_residuals,
)
from hamstab.jets import jcosh, jsin, jsinh
from hamstab.quadrature import GridSpec, integrate
from hamstab.testfunctions import (
    Const1D,
    Cos1D,
    Func1D,
    Gauss1D,
    LinComb,
    PlaneWaveCos,
    Separable,
    TestFunction,
    jet_coordinates,
    jet_from_coordinates,
    random_bump_poly,
    random_trig_poly,
)
from hamstab import variation
from hamstab.variation import (
    CONSTANT_GEOMETRY_RTOL,
    MetricField,
    RawHessianFunctional,
    SecondVariationFunctional,
    _constancy_deviation,
    _metric_drift,
    bochner_residual,
    evaluate_functional,
    gradient,
    laplacian,
    reilly_residual,
    second_variation,
    second_variation_raw,
)
from hamstab.verification import _FLAT_CHART_IDS, _lap_sq_functional

from helpers import (
    cubic_curve_product_chart,
    gradient_graph_chart,
    minimal_null_graph_chart,
    polynomial_graph_chart,
    reference_bochner_residual,
)


class _Bilinear(TestFunction):
    """u = s1 * s2 with exact jets (pointwise helper, unbounded support)."""

    n = 2
    axis_periods = (None, None)
    axis_boxes = (None, None)

    def jet(self, points):
        pts = np.atleast_2d(points)
        u = pts[:, 0] * pts[:, 1]
        du = pts[:, ::-1].copy()
        hess = np.tile([[0.0, 1.0], [1.0, 0.0]], (len(pts), 1, 1))
        return u, du, hess


class _SaddleSquare(TestFunction):
    """u = s1^2 - s2^2 with exact jets."""

    n = 2
    axis_periods = (None, None)
    axis_boxes = (None, None)

    def jet(self, points):
        pts = np.atleast_2d(points)
        u = pts[:, 0] ** 2 - pts[:, 1] ** 2
        du = np.stack([2 * pts[:, 0], -2 * pts[:, 1]], axis=-1)
        hess = np.tile(np.diag([2.0, -2.0]), (len(pts), 1, 1))
        return u, du, hess


class _Linear(TestFunction):
    n = 2
    axis_periods = (None, None)
    axis_boxes = (None, None)

    def jet(self, points):
        pts = np.atleast_2d(points)
        u = 3.0 * pts[:, 0] - 2.0 * pts[:, 1]
        du = np.tile([3.0, -2.0], (len(pts), 1))
        return u, du, np.zeros((len(pts), 2, 2))


def _tangent_bundle_metric(a, kappa):
    def g_fn(pts):
        pts = np.atleast_2d(pts)
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 0] = -2.0 * a(pts[:, 0]) * kappa
        g[:, 0, 1] = g[:, 1, 0] = -1.0
        return g

    return g_fn


# ----------------------------------------------------------------- gradient

def test_gradient_flat_mixed_signs():
    m = MetricField.flat([1.0, -1.0])
    assert np.allclose(gradient(_Bilinear(), m, [2.0, 5.0]), [5.0, -2.0])


def test_gradient_torus_metric():
    m = MetricField.flat([-1.0, 1.0])
    u = PlaneWaveCos([1.0, 1.0])
    s = [0.3, 0.4]
    _, du, _ = u.jet(np.atleast_2d(s))
    assert np.allclose(gradient(u, m, s), [-du[0, 0], du[0, 1]])


def test_gradient_tangent_bundle_metric():
    # constant tangential profile: grad u = -u_t d_s + (2 a kappa u_t - u_s) d_t
    a0, kappa = 0.7, 1.3
    m = MetricField(dim=2, g_fn=_tangent_bundle_metric(lambda s: np.full_like(s, a0), kappa), constant=True)
    u = _Bilinear()
    s = np.array([0.5, -0.8])
    _, du, _ = u.jet(s[None, :])
    us, ut = du[0]
    assert np.allclose(gradient(u, m, s), [-ut, 2 * a0 * kappa * ut - us], atol=1e-12)


# ---------------------------------------------------------------- laplacian

def test_laplacian_torus_metric():
    m = MetricField.flat([-1.0, 1.0])
    u = PlaneWaveCos([2.0, 1.0])
    s = [0.2, 1.0]
    _, _, d2u = u.jet(np.atleast_2d(s))
    assert laplacian(u, m, s) == pytest.approx(-d2u[0, 0, 0] + d2u[0, 1, 1], abs=1e-12)


def test_laplacian_tangent_bundle_constant_profile():
    m = MetricField(dim=2, g_fn=_tangent_bundle_metric(lambda s: np.zeros_like(s), 1.0), constant=True)
    u = _Bilinear()
    # det g = -1, g_inv = [[0, -1], [-1, 0]]: lap u = -2 u_st = -2
    assert laplacian(u, m, [0.4, 0.9]) == pytest.approx(-2.0, abs=1e-12)


def test_laplacian_nonconstant_metric_by_finite_differences():
    # varying tangential profile: lap u = -2 u_st + 2 a(s) kappa u_tt
    kappa = 1.0
    a = lambda s: 0.3 * np.sin(s)
    m = MetricField(dim=2, g_fn=_tangent_bundle_metric(a, kappa), constant=False)
    u = Separable([Gauss1D(2.0), Gauss1D(1.5)])
    rng = np.random.default_rng(8)
    for pt in rng.uniform(-1.0, 1.0, size=(5, 2)):
        _, _, d2u = u.jet(pt[None, :])
        expect = -2.0 * d2u[0, 0, 1] + 2.0 * a(pt[0]) * kappa * d2u[0, 1, 1]
        assert laplacian(u, m, pt) == pytest.approx(expect, rel=1e-6, abs=1e-8)


def test_laplacian_constant_function():
    m = MetricField.flat([1.0, 1.0])
    u = Separable([Const1D(), Const1D()])
    assert laplacian(u, m, [0.1, 0.2]) == 0.0


def test_laplacian_sign_convention():
    # -lap cos(s1) = cos(s1) on the flat unit torus (eigenvalue +1)
    m = MetricField.flat([1.0])
    u = Separable([Cos1D(1.0)])
    for s in (0.0, 0.4, 2.0):
        assert -laplacian(u, m, [s]) == pytest.approx(np.cos(s), abs=1e-12)


# ---------------------------------------------------------- second variation

def test_torus_mode_value_via_chart():
    chart = make_torus((1.0,), 0)
    for k in (2, 3):
        u = Separable([Cos1D(float(k))])
        assert second_variation(chart, u) == pytest.approx(
            np.pi * (k**4 - k**2), rel=1e-12
        )


def test_plane_nonnegative():
    chart = make_lagrangian_plane(2, p=1)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_bump_poly(2, rng)
        assert second_variation(chart, u) >= 0.0


def test_para_plane_nonpositive():
    chart = make_lagrangian_plane(2, para=True)
    rng = np.random.default_rng(10)
    for _ in range(5):
        u = random_bump_poly(2, rng)
        assert second_variation(chart, u) <= 0.0


def test_h1_negative_closed_form():
    # unit-radius single branch, Gaussian bump:
    # value = -(int u''^2 + int u'^2) = -(3 sqrt(pi)/4 + sqrt(pi)/2)
    chart = make_hyperbola_product((1.0,), (1,))
    u = Separable([Gauss1D(1.0)])
    expect = -(3 * np.sqrt(np.pi) / 4 + np.sqrt(np.pi) / 2)
    assert second_variation(chart, u) == pytest.approx(expect, rel=1e-10)


def test_h2_matches_displayed_sum_of_squares():
    radii, eps = (1.0, 2.0), (1, -1)
    chart = make_hyperbola_product(radii, eps)
    u = Separable([Gauss1D(1.0), Gauss1D(1.4)])

    def sos(pts):
        _, du, d2u = u.jet(pts)
        lap = eps[0] * d2u[:, 0, 0] + eps[1] * d2u[:, 1, 1]
        grad = eps[0] * du[:, 0] / radii[0] - eps[1] * du[:, 1] / radii[1]
        return -(lap**2) - grad**2

    direct = integrate(sos, chart.domains, boxes=u.axis_boxes)
    assert second_variation(chart, u) == pytest.approx(direct, rel=1e-10)


def test_raw_form_agrees_after_integration():
    chart = make_torus((1.0, 2.0), 1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_trig_poly([2 * np.pi, 4 * np.pi], rng)
        a = second_variation(chart, u)
        b = second_variation_raw(chart, u)
        assert abs(a - b) <= 1e-8 * (1 + abs(a))


def test_raw_form_agrees_on_all_flat_families():
    rng = np.random.default_rng(21)
    charts = [
        make_torus((1.0, 1.0), 1),
        make_hyperbola_product((1.0, 2.0), (1, -1)),
        make_lagrangian_plane(2, p=1),
        make_lagrangian_plane(2, para=True),
    ]
    for chart in charts:
        for _ in range(5):
            if chart.domains[0].kind == "circle":
                u = random_trig_poly([d.size for d in chart.domains], rng)
            else:
                u = random_bump_poly(chart.dim, rng)
            a = second_variation(chart, u)
            b = second_variation_raw(chart, u)
            assert abs(a - b) <= 1e-8 * (1 + abs(a))


def test_raw_form_constant_is_zero():
    chart = make_torus((1.0, 2.0), 1)
    u = Separable([Const1D(), Const1D()])
    assert second_variation_raw(chart, u) == pytest.approx(0.0, abs=1e-14)
    assert second_variation(chart, u) == pytest.approx(0.0, abs=1e-14)


def test_raw_form_needs_constant_metric():
    from helpers import gradient_graph_chart

    with pytest.raises(ValueError, match="constant induced metric"):
        RawHessianFunctional(gradient_graph_chart())


@pytest.mark.parametrize("raw", [False, True], ids=["laplacian", "raw-hessian"])
@pytest.mark.parametrize("cid", _FLAT_CHART_IDS)
def test_chart_jet_form_is_the_integrand_at_the_local_geometry(cid, raw):
    # j^T M j against the integrand written out from the induced geometry at
    # each random point (not at the origin), to rounding of |j|^T |M| |j|
    chart = resolve(cid).chart
    form = (RawHessianFunctional if raw else SecondVariationFunctional)(chart).jet_form
    rng = np.random.default_rng(7)
    pts = np.column_stack(
        [rng.uniform(0.0, d.size, 64) if d.kind == "circle" else rng.uniform(-3.0, 3.0, 64) for d in chart.domains]
    )
    coords = rng.standard_normal((64, len(form))) * rng.choice([1e-3, 1.0, 1e3], size=(64, 1))
    _, du, d2u = jet_from_coordinates(coords, chart.dim)
    geo = induced_geometry_batch(chart, pts)
    ginv, H, vol = geo["g_inv"], geo["nH_cov"], geo["vol"]
    grad_up = np.einsum("nij,nj->ni", ginv, du)
    c_up = np.einsum("nij,nj->ni", ginv, H)
    if raw:
        second = np.einsum("nik,njl,nij,nkl->n", ginv, ginv, d2u, d2u)
    else:
        second = np.einsum("nij,nij->n", ginv, d2u) ** 2
    cubic = np.einsum("nijk,ni,nj,nk->n", geo["C"], grad_up, grad_up, c_up)
    pair = np.einsum("nk,nk->n", H, grad_up)
    want = vol * (chart.ambient.eps * second - 2.0 * cubic + pair * pair)
    got = np.einsum("np,pq,nq->n", coords, form, coords)
    scale = np.einsum("np,pq,nq->n", np.abs(coords), np.abs(form), np.abs(coords))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("cid", _FLAT_CHART_IDS)
def test_flat_chart_geometry_is_constant_on_the_structural_grid(cid):
    chart = resolve(cid).chart
    origin = induced_geometry_batch(chart, np.zeros((1, chart.dim)))
    assert _constancy_deviation(origin, induced_geometry_batch(chart, sample_grid(chart, 17))) < CONSTANT_GEOMETRY_RTOL


def _counting_geometry(monkeypatch):
    """Record the number of points of each ``induced_geometry_batch`` call
    that :mod:`hamstab.variation` makes."""
    calls = []
    original = variation.induced_geometry_batch

    def counting(chart, points):
        calls.append(len(points))
        return original(chart, points)

    monkeypatch.setattr(variation, "induced_geometry_batch", counting)
    return calls


def test_constancy_of_a_12_axis_torus_is_checked_on_its_axis_lines(monkeypatch):
    # 1 + 2 * 12 points where the 3-per-axis grid has 3^12, whose oracle
    # Hessian alone would take 13.7 GiB
    calls = _counting_geometry(monkeypatch)
    entry = resolve("torus:n=12,r=" + ",".join(["1"] * 12) + ",p=6")
    assert sum(calls) <= 25
    assert entry.functional.jet_form is not None


@pytest.mark.parametrize("cid", ["torus:n=3,r=1,2,3,p=1", "hyperbola:n=3,r=1,2,0.5,eps=+,-,+", "plane:n=2,p=1"])
def test_axis_line_constancy_reads_the_sample_grids_deviation(cid):
    # on a constant curve product both routes read rounding noise; the line
    # route's reading bounds the grid's
    chart = resolve(cid).chart
    origin = induced_geometry_batch(chart, np.zeros((1, chart.dim)))
    grid = _constancy_deviation(origin, induced_geometry_batch(chart, sample_grid(chart, per_axis=3, line_window=1.0)))
    assert grid <= variation._sample_constancy_deviation(chart, origin) < CONSTANT_GEOMETRY_RTOL


def test_a_curve_product_with_one_varying_factor_is_not_constant():
    # two straight factors and one cubic: only the last axis's line varies
    chart = replace(cubic_curve_product_chart([(0.0, 0.0), (0.0, 0.0), (0.3, 0.1)]), geometry_is_constant=True)
    origin = induced_geometry_batch(chart, np.zeros((1, 3)))
    grid = _constancy_deviation(origin, induced_geometry_batch(chart, sample_grid(chart, per_axis=3, line_window=1.0)))
    assert variation._sample_constancy_deviation(chart, origin) == grid > CONSTANT_GEOMETRY_RTOL
    with pytest.raises(ValueError, match="declared geometry_is_constant"):
        SecondVariationFunctional(chart)


def test_a_curve_products_volume_is_checked_at_the_grid_corners():
    # four factors (s, a s^2) whose metrics each deviate by 4 a^2 = 0.8e-12 at
    # s = +-1: every line reads under the tolerance, but vol multiplies the
    # four deviations to 1.6e-12 at the grid's corners
    a = np.sqrt(0.2e-12)
    chart = replace(cubic_curve_product_chart([(a, 0.0)] * 4), geometry_is_constant=True)
    origin = induced_geometry_batch(chart, np.zeros((1, 4)))
    lines = np.concatenate(axis_lines(np.zeros(4), sample_axes(chart, per_axis=3, line_window=1.0)))
    assert _constancy_deviation(origin, induced_geometry_batch(chart, lines)) < CONSTANT_GEOMETRY_RTOL
    grid = _constancy_deviation(origin, induced_geometry_batch(chart, sample_grid(chart, per_axis=3, line_window=1.0)))
    assert grid > CONSTANT_GEOMETRY_RTOL
    assert variation._sample_constancy_deviation(chart, origin) == pytest.approx(grid, rel=1e-3)
    with pytest.raises(ValueError, match="declared geometry_is_constant"):
        SecondVariationFunctional(chart)


def test_a_false_curve_product_declaration_fails_the_constancy_check():
    # the polynomial graph couples its axes, so its axis lines stand for nothing
    chart = replace(polynomial_graph_chart(), curve_product=True, geometry_is_constant=True)
    with pytest.raises(ValueError, match="declared curve_product"):
        SecondVariationFunctional(chart)


@pytest.mark.parametrize("cid", [c for c in default_catalog_ids() if c.split(":")[0] in CHART_KINDS])
def test_chart_jet_form_is_the_origin_geometrys(cid):
    # the constancy check reads no value into the form: a direct build from
    # the origin's geometry gives its bits (the other default ids are closed
    # forms and build no chart functional)
    entry = resolve(cid)
    chart = entry.chart
    origin = induced_geometry_batch(chart, np.zeros((1, chart.dim)))
    want = variation._jet_form(entry.functional._jet_terms(origin))[0]
    assert entry.functional.jet_form.tobytes() == want.tobytes()


def test_polarized_bilinearity():
    chart = make_torus((1.0, 1.0), 1)
    rng = np.random.default_rng(12)

    def b(u, v):
        plus = LinComb([(1.0, u), (1.0, v)])
        minus = LinComb([(1.0, u), (-1.0, v)])
        return 0.25 * (second_variation(chart, plus) - second_variation(chart, minus))

    u = random_trig_poly([2 * np.pi, 2 * np.pi], rng)
    v = random_trig_poly([2 * np.pi, 2 * np.pi], rng)
    w = random_trig_poly([2 * np.pi, 2 * np.pi], rng)
    assert b(u, v) == pytest.approx(b(v, u), rel=1e-10, abs=1e-10)
    alpha, beta = 0.7, -1.3
    combo = LinComb([(alpha, u), (beta, v)])
    assert b(combo, w) == pytest.approx(
        alpha * b(u, w) + beta * b(v, w), rel=1e-8, abs=1e-8
    )


def test_incompatible_support_rejected():
    chart = make_torus((1.0, 1.0), 1)
    with pytest.raises(ValueError, match="incompatible"):
        second_variation(chart, Separable([Gauss1D(1.0), Gauss1D(1.0)]))
    chart_h = make_hyperbola_product((1.0,), (1,))
    with pytest.raises(ValueError, match="incompatible"):
        second_variation(chart_h, Separable([Cos1D(1.0)]))


# --------------------------------------------------------- identity checks

def test_bochner_linear_exact_zero():
    m = MetricField.flat([1.0, -1.0])
    assert bochner_residual(_Linear(), m, [0.3, 0.4]) == 0.0


def test_bochner_saddle_closed_form():
    # u = s1^2 - s2^2 on diag(1, -1): every term is exactly computable and
    # the residual vanishes identically
    m = MetricField.flat([1.0, -1.0])
    assert bochner_residual(_SaddleSquare(), m, [0.7, -0.2]) == pytest.approx(0.0, abs=1e-9)


def test_bochner_random_bumps():
    rng = np.random.default_rng(13)
    for signs in ([1.0, 1.0], [1.0, -1.0]):
        m = MetricField.flat(signs)
        for _ in range(5):
            u = random_bump_poly(2, rng)
            pt = rng.uniform(-1.5, 1.5, size=2)
            assert abs(bochner_residual(u, m, pt)) <= 1e-5


FLAT_METRICS = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)]


class _CountingJets(TestFunction):
    """A test function that counts its ``jet`` calls and their points."""

    def __init__(self, u: TestFunction):
        self.u = u
        self.n, self.axis_periods, self.axis_boxes = u.n, u.axis_periods, u.axis_boxes
        self.calls = []

    def jet(self, points):
        self.calls.append(len(np.atleast_2d(points)))
        return self.u.jet(points)


@pytest.mark.parametrize("signs", FLAT_METRICS)
def test_bochner_residual_equals_the_per_shift_reference_bit_for_bit(signs):
    m = MetricField.flat(signs)
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = random_bump_poly(2, rng)
        pt = rng.uniform(-1.5, 1.5, size=2)
        assert bochner_residual(u, m, pt).hex() == reference_bochner_residual(u, m, pt).hex()
    for u, pt in ((_Linear(), [0.3, 0.4]), (_SaddleSquare(), [0.7, -0.2])):
        assert bochner_residual(u, m, pt).hex() == reference_bochner_residual(u, m, pt).hex()
    assert bochner_residual(_Linear(), m, [0.3, 0.4]) == 0.0


def test_bochner_residual_takes_one_jet_call_on_its_stencils():
    u = _CountingJets(random_bump_poly(2, np.random.default_rng(5)))
    bochner_residual(u, MetricField.flat([1.0, -1.0]), [0.2, -0.9])
    # the point, then 2 steps x 2 axes x +-
    assert u.calls == [1 + 4 * 2]
    reference_bochner_residual(u, MetricField.flat([1.0, -1.0]), [0.2, -0.9])
    assert u.calls == [9] + [1] * 17


@pytest.mark.parametrize("cid", ["plane:n=2,p=0", "plane:n=2,p=1", "plane:n=2,p=2", "plane:n=2,amb=para"])
def test_evaluate_functional_over_a_list_equals_one_probe_calls_bit_for_bit(cid):
    entry = resolve(cid)
    signs = np.ones(2) if entry.params["para"] else entry.chart.ambient.axis_signs
    rng = np.random.default_rng(7)
    # bumps share one grid; a Gaussian and a wider product take their own
    us = [random_bump_poly(2, rng) for _ in range(6)]
    us += [Separable([Gauss1D(0.7), Gauss1D(1.3)]), Separable([Gauss1D(2.0, 0.5), Gauss1D()]) + us[0]]
    for functional in (entry.chart, _lap_sq_functional(MetricField.flat(signs), periodic=False)):
        batched = evaluate_functional(functional, us)
        assert [v.hex() for v in batched] == [evaluate_functional(functional, u).hex() for u in us]
    assert evaluate_functional(entry.chart, []) == []


def test_bochner_needs_constant_metric():
    m = MetricField(dim=2, g_fn=_tangent_bundle_metric(lambda s: 0.1 * s, 1.0), constant=False)
    with pytest.raises(NotImplementedError):
        bochner_residual(_Bilinear(), m, [0.0, 0.0])


def test_reilly_product_mode():
    # u = cos(s1) cos(s2) on the flat unit torus: both sides equal 4 pi^2
    m = MetricField.flat([1.0, 1.0])
    u = PlaneWaveCos([1.0, 1.0]) + PlaneWaveCos([1.0, -1.0])  # 2 cos(s1) cos(s2)
    res = reilly_residual(0.5 * u, m)
    assert abs(res) <= 1e-10

    def lap_sq(pts):
        _, _, d2u = (0.5 * u).jet(pts)
        return (d2u[:, 0, 0] + d2u[:, 1, 1]) ** 2

    both = integrate(lap_sq, (AxisDomain.circle(2 * np.pi),) * 2)
    assert both == pytest.approx(4 * np.pi**2, rel=1e-12)


def test_reilly_constant_zero():
    m = MetricField.flat([1.0, -1.0])
    u = Separable([Const1D(), Const1D()])
    with pytest.raises(ValueError):
        # a constant has no inferable domain; explicit domains make it run
        reilly_residual(u, m)
    doms = (AxisDomain.circle(2 * np.pi), AxisDomain.circle(2 * np.pi))
    assert reilly_residual(u, m, domains=doms) == pytest.approx(0.0, abs=1e-14)


def test_reilly_indefinite_random_trig():
    m = MetricField.flat([1.0, -1.0])
    rng = np.random.default_rng(14)
    for _ in range(3):
        u = random_trig_poly([2 * np.pi, 2 * np.pi], rng)
        assert abs(reilly_residual(u, m)) <= 1e-9


WARP = 0.3


def _warp(S, j):
    """Coordinate jet of ``x_j = s_j + WARP sin s_j``."""
    return S[j] + jsin(S[j]) * WARP


class _Warped1D(Func1D):
    """``f(x(s))`` for ``x(s) = s + WARP sin s``, with chain-rule jets."""

    period = None

    def __init__(self, f: Func1D):
        self.f = f
        self.box = f.box + WARP  # |x(s) - s| <= WARP

    def jet1(self, s):
        v, d1, d2 = self.f.jet1(s + WARP * np.sin(s))
        x1 = 1.0 + WARP * np.cos(s)
        x2 = -WARP * np.sin(s)
        return v, d1 * x1, d2 * x1 * x1 + d1 * x2


def _warped_plane(p):
    comps = []
    for j in range(2):
        comps += [lambda S, j=j: _warp(S, j), lambda S: S[0] * 0.0]
    return chart_from_components(AmbientFlat.pseudo_kahler(2, p), (AxisDomain.line(),) * 2, comps)


def _warped_hyperbola(radii, branch_signs):
    comps = []
    for j, (r, e) in enumerate(zip(radii, branch_signs)):
        ch = lambda S, j=j, r=r: jcosh(_warp(S, j) / r) * r
        sh = lambda S, j=j, r=r: jsinh(_warp(S, j) / r) * r
        comps += [ch, sh] if e == 1 else [sh, ch]
    return chart_from_components(AmbientFlat.para_kahler(2), (AxisDomain.line(),) * 2, comps)


def test_second_variation_functional_nonconstant_chart():
    # reparametrization invariance: a warped chart has a non-constant metric
    # with |det g| != 1, and its integrand (finite-difference Laplacian
    # correction and volume density included) must give the flat chart's
    # value on the pulled-back probe
    factors = [Gauss1D(0.8, 0.3), Gauss1D(1.2, -0.2)]
    spec = GridSpec(line_nodes=200)
    cases = [
        (make_lagrangian_plane(2, p=0), _warped_plane(0)),
        (make_lagrangian_plane(2, p=1), _warped_plane(1)),
        (make_hyperbola_product((1.0, 2.0), (1, -1)), _warped_hyperbola((1.0, 2.0), (1, -1))),
    ]
    for flat, warped in cases:
        assert not warped.geometry_is_constant
        want = second_variation(flat, Separable(factors), spec)
        got = second_variation(warped, Separable([_Warped1D(f) for f in factors]), spec)
        assert abs(got - want) <= 1e-8 * abs(want), flat.name


@pytest.mark.parametrize("make_chart", [gradient_graph_chart, polynomial_graph_chart])
def test_point_dependent_squares_match_the_pointwise_formula(make_chart):
    # eps ((lap u)^2 - 2 g(nH, h(grad u, grad u))) + g(nH, J grad u)^2 times
    # sqrt|g|, written with einsums from the geometry and the same
    # finite-difference drift, against the chart's per-point squares, to the
    # rounding of the summed magnitudes (worst 1.3e-14 of them over 20 seeds)
    functional = SecondVariationFunctional(make_chart())
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.5, 1.5, (64, 2))
    _, du, d2u = jet = jet_from_coordinates(rng.standard_normal((64, 6)), 2)
    geo = induced_geometry_batch(functional.chart, pts)
    ginv, vol = geo["g_inv"], geo["vol"]

    def metric(p):
        shifted = induced_geometry_batch(functional.chart, p)
        return shifted["vol"], shifted["g_inv"]

    drift = _metric_drift(metric, pts, [REL_STEP * d.scale for d in functional.domains], vol)
    lap = np.einsum("nij,nij->n", ginv, d2u) + np.einsum("nj,nj->n", drift, du)
    grad_up = np.einsum("nij,nj->ni", ginv, du)
    c_up = np.einsum("nij,nj->ni", ginv, geo["nH_cov"])
    hterm = np.einsum("nijk,ni,nj,nk->n", geo["C"], grad_up, grad_up, c_up)
    pair = np.einsum("nk,nk->n", geo["nH_cov"], grad_up)
    eps = functional.chart.ambient.eps
    want = (eps * (lap**2 - 2.0 * eps * hterm) + pair**2) * vol
    scale = (lap**2 + 2.0 * np.abs(hterm) + pair**2) * vol
    assert np.all(np.abs(functional.integrand(pts, jet) - want) <= 1e-12 * scale)


def test_point_dependent_integrand_takes_one_geometry_pass_and_the_drift(monkeypatch):
    # one induced_geometry_batch call at the points, plus 2n shifted ones
    calls = []
    functional = SecondVariationFunctional(gradient_graph_chart())
    monkeypatch.setattr(variation, "induced_geometry_batch", lambda c, p: calls.append(len(p)) or induced_geometry_batch(c, p))
    pts = np.random.default_rng(0).uniform(-1, 1, (100, 2))
    functional.integrand(pts, jet_from_coordinates(np.ones((100, 6)), 2))
    assert calls == [100] * 5


def test_minimal_null_graph_is_a_minimal_lagrangian_with_varying_metric():
    chart = minimal_null_graph_chart()
    grid = sample_grid(chart, per_axis=9)
    assert structural_residuals(chart, grid) == {"lagrangian": 0.0, "hminimal": 0.0, "trisymmetry": 0.0}
    geo = induced_geometry_batch(chart, grid)
    want = np.stack([-np.cos(grid[:, 0]), np.ones(len(grid)), np.ones(len(grid)), np.zeros(len(grid))], axis=1)
    assert np.max(np.abs(geo["g"].reshape(-1, 4) - want)) <= 1e-15
    assert np.max(np.abs(geo["nH_cov"])) <= 1e-15
    assert not chart.geometry_is_constant


def test_main_theorem_on_a_non_flat_minimal_lagrangian():
    # a minimal Lagrangian in the Ricci-flat D^2 (eps = -1): the second
    # variation is -int (lap u)^2 with lap u = 2 u_12 + cos(s_1) u_22 and
    # sqrt|g| = 1; the chart's per-point squares take g^{-1}, the
    # finite-difference drift and the cubic term from its geometry.  Worst
    # measured relative difference over these 6 probes: 2.8e-16
    functional = SecondVariationFunctional(minimal_null_graph_chart())
    assert functional.jet_form is None
    spec = GridSpec(line_nodes=48)
    rng = np.random.default_rng(0)
    for _ in range(6):
        u = random_bump_poly(2, rng)

        def closed_form(pts):
            _, _, d2u = u.jet(pts)
            lap = 2.0 * d2u[:, 0, 1] + np.cos(pts[:, 0]) * d2u[:, 1, 1]
            return -lap * lap

        want = integrate(closed_form, functional.domains, spec, boxes=u.axis_boxes)
        got = second_variation(functional, u, spec)
        assert want < 0
        assert abs(got - want) <= 1e-14 * abs(want)


TORUS_CHARTS = {cid: resolve(cid).functional for cid in default_catalog_ids() if cid.startswith("torus:")}


@st.composite
def translated_probe_pairs(draw):
    """A torus functional and one probe at two phases: a plane wave, or a
    product of ``Cos1D`` factors with a phase per axis."""
    cid = draw(st.sampled_from(sorted(TORUS_CHARTS)))
    functional = TORUS_CHARTS[cid]
    base = [2 * np.pi / dom.size for dom in functional.domains]
    n = len(base)
    phases = st.floats(0.0, 2 * np.pi)
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        freqs = [k * b for k, b in zip(ks, base)]
        return cid, functional, PlaneWaveCos(freqs, draw(phases)), PlaneWaveCos(freqs, draw(phases))
    ks = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))

    def product():
        return Separable([Cos1D(k * b, draw(phases)) for k, b in zip(ks, base)])

    return cid, functional, product(), product()


@settings(deadline=None, max_examples=40)
@given(translated_probe_pairs())
def test_torus_second_variation_is_translation_invariant(case):
    # a phase shift is a translation along the circles, which are isometries
    # of every torus chart; both the sum-factorized value and the mesh sum of
    # the pointwise integrand must not see it
    cid, functional, u, v = case
    spec = GridSpec(circle_nodes=16)
    # the magnitude both paths round against: the sum of |j|^T |M| |j|
    def magnitude(pts):
        coords = np.abs(jet_coordinates(u.jet(pts)))
        return np.einsum("np,pq,nq->n", coords, np.abs(functional.jet_form), coords)

    scale = integrate(magnitude, functional.domains, spec)
    for value in (
        lambda w: evaluate_functional(functional, w, spec),
        lambda w: integrate(lambda pts: functional.integrand(pts, w.jet(pts)), functional.domains, spec),
    ):
        a, b = value(u), value(v)
        assert abs(a - b) <= 1e-12 * scale, (cid, a, b, scale)
