import itertools
import tracemalloc

import numpy as np
import pytest

from hamstab import immersion
from hamstab.geometry import AmbientFlat
from hamstab.immersion import (
    AxisDomain,
    DegenerateMetricError,
    LagrangianChart,
    central_divergence,
    check_h_minimal,
    check_lagrangian,
    induced_geometry,
    induced_geometry_batch,
    sample_grid,
    structural_residuals,
    trisymmetry_residual,
)
from hamstab.catalog import make_hyperbola_product, make_lagrangian_plane, make_torus, resolve
from hamstab.verification import _FLAT_CHART_IDS
from helpers import cubic_curve_product_chart, gradient_graph_chart, polynomial_graph_chart


def test_unit_torus_geometry():
    chart = make_torus((1.0, 1.0), 0)
    geo = induced_geometry(chart, [0.3, 1.1])
    assert np.allclose(geo.g, np.eye(2), atol=1e-12)
    assert np.allclose(geo.nH_cov, [1.0, 1.0], atol=1e-12)
    # the cubic form has a single diagonal slot per axis
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 1.0
    assert np.allclose(geo.C, expected, atol=1e-12)
    assert geo.vol_density == pytest.approx(1.0)


def test_torus_geometry_with_signs_and_radii():
    chart = make_torus((1.0, 2.0), 1)
    geo = induced_geometry(chart, [0.7, -0.4])
    assert np.allclose(geo.g, np.diag([-1.0, 1.0]), atol=1e-12)
    # covector H_k = g^{ij} C_ijk = 1/r_k regardless of the signs
    assert np.allclose(geo.nH_cov, [1.0, 0.5], atol=1e-12)
    assert geo.C[0, 0, 0] == pytest.approx(-1.0)  # eps_1 / r_1
    assert geo.C[1, 1, 1] == pytest.approx(0.5)


def test_plane_is_totally_geodesic():
    chart = make_lagrangian_plane(2, p=1)
    geo = induced_geometry(chart, [0.4, -1.2])
    assert np.allclose(geo.g, np.diag([-1.0, 1.0]), atol=1e-15)
    assert not geo.C.any()
    assert not geo.nH_cov.any()
    assert check_h_minimal(chart) <= 1e-12


def test_hyperbola_geometry():
    chart = make_hyperbola_product((1.0, 1.0), (1, 1))
    geo = induced_geometry(chart, [0.2, -0.5])
    assert np.allclose(geo.g, np.diag([-1.0, -1.0]), atol=1e-12)
    # raising the covector gives the coefficients eps_j / r_j of u_j in
    # g(nH, J grad u)
    assert np.allclose(geo.g_inv @ geo.nH_cov, [1.0, 1.0], atol=1e-12)


def test_hyperbola_points_on_branches():
    plus = make_hyperbola_product((2.0,), (1,))
    f, _, _ = plus.oracle(np.array([[0.7]]))
    x, y = f[0]
    assert x**2 - y**2 == pytest.approx(4.0)
    assert x > 0
    minus = make_hyperbola_product((2.0,), (-1,))
    f, _, _ = minus.oracle(np.array([[0.7]]))
    x, y = f[0]
    assert x**2 - y**2 == pytest.approx(-4.0)
    assert y > 0


@pytest.mark.parametrize(
    "chart",
    [
        make_torus((1.0, 2.0), 1),
        make_hyperbola_product((1.0, 3.0), (1, -1)),
        make_lagrangian_plane(2, p=1),
        make_lagrangian_plane(2, para=True),
    ],
)
def test_structural_checks_on_catalog_charts(chart):
    assert check_lagrangian(chart) <= 1e-10
    assert check_h_minimal(chart) <= 1e-8
    assert trisymmetry_residual(chart) <= 1e-8


def test_non_lagrangian_plane_detected():
    # the real 2-plane spanned by e_1 and i e_1 pairs against itself
    amb = AmbientFlat.pseudo_kahler(2, 0)

    def oracle(points):
        pts = np.atleast_2d(points)
        npts = len(pts)
        f = np.zeros((npts, 4))
        f[:, 0] = pts[:, 0]
        f[:, 1] = pts[:, 1]
        df = np.zeros((npts, 2, 4))
        df[:, 0, 0] = 1.0
        df[:, 1, 1] = 1.0
        return f, df, np.zeros((npts, 2, 2, 4))

    chart = LagrangianChart(amb, (AxisDomain.line(), AxisDomain.line()), oracle)
    assert check_lagrangian(chart) == pytest.approx(1.0)


def test_gradient_graph_is_lagrangian_and_trisymmetric():
    chart = gradient_graph_chart()
    grid = sample_grid(chart, per_axis=9, line_window=1.5)
    assert check_lagrangian(chart, grid) <= 1e-10
    assert trisymmetry_residual(chart, grid) <= 1e-8


def test_jet_oracle_matches_finite_differences():
    chart = gradient_graph_chart()
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(4, 2))
    f, df, d2f = chart.oracle(pts)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (chart.oracle(pts + e)[0] - chart.oracle(pts - e)[0]) / (2 * h)
        assert np.allclose(df[:, i, :], fd, rtol=1e-6, atol=1e-7)
        for j in range(2):
            d = np.zeros(2)
            d[j] = h
            fd2 = (
                chart.oracle(pts + e + d)[0]
                - chart.oracle(pts + e - d)[0]
                - chart.oracle(pts - e + d)[0]
                + chart.oracle(pts - e - d)[0]
            ) / (4 * h**2)
            assert np.allclose(d2f[:, i, j, :], fd2, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize(
    "maker,kwargs",
    [
        (make_torus, {"radii": (1.0, 2.0), "p": 1}),
        (make_hyperbola_product, {"radii": (1.0, 2.0), "branch_signs": (1, -1)}),
    ],
)
def test_dual_number_oracle_equivalence(maker, kwargs):
    closed = maker(oracle="closed_form", **kwargs)
    dual = maker(oracle="dual_number", **kwargs)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.5, 1.5, size=(6, 2))
    gc = induced_geometry_batch(closed, pts)
    gd = induced_geometry_batch(dual, pts)
    for key in ("g", "C", "nH_cov"):
        assert np.max(np.abs(gc[key] - gd[key])) <= 1e-10


def _fold_oracle(points):
    # s -> (s^2 / 2, 0): the induced metric s^2 vanishes at s = 0
    pts = np.atleast_2d(points)
    npts = len(pts)
    f = np.zeros((npts, 2))
    f[:, 0] = 0.5 * pts[:, 0] ** 2
    df = np.zeros((npts, 1, 2))
    df[:, 0, 0] = pts[:, 0]
    d2f = np.zeros((npts, 1, 1, 2))
    d2f[:, 0, 0, 0] = 1.0
    return f, df, d2f


def test_degenerate_metric_error():
    chart = LagrangianChart(AmbientFlat.pseudo_kahler(1, 0), (AxisDomain.line(),), _fold_oracle)
    with pytest.raises(DegenerateMetricError):
        induced_geometry(chart, [0.0])


def test_axis_domain_validation():
    with pytest.raises(ValueError):
        AxisDomain.circle(-1.0)
    with pytest.raises(ValueError):
        AxisDomain("square", 1.0)
    assert AxisDomain.circle(4 * np.pi).scale == pytest.approx(2.0)
    assert AxisDomain.line(7.0).scale == 1.0


def test_empty_grid_rejected():
    chart = make_torus((1.0,), 0)
    with pytest.raises(ValueError, match="empty"):
        check_lagrangian(chart, np.zeros((0, 1)))


@pytest.mark.parametrize(
    "cid,expected_cov",
    [
        ("torus:n=2,r=1,2,p=1", [1.0, 0.5]),
        ("hyperbola:n=2,r=1,2,eps=+,-", [-1.0, -0.5]),
    ],
)
def test_mean_curvature_covector_constant(cid, expected_cov):
    chart = resolve(cid).chart
    grid = sample_grid(chart, per_axis=9)
    cov = induced_geometry_batch(chart, grid)["nH_cov"]
    assert np.max(np.abs(cov - np.asarray(expected_cov))) <= 1e-12


def test_central_divergence_exact_on_quadratics():
    # central differences are exact on polynomials of degree <= 2, so the
    # divergence matches the analytic one to rounding, with unequal steps
    rng = np.random.default_rng(5)
    n = 3
    pts = rng.uniform(-2.0, 2.0, size=(7, n))
    steps = (0.1, 0.25, 0.5)

    # vector field w_i(p) = p^T A_i p + B_i . p + c_i
    A = rng.standard_normal((n, n, n))
    B = rng.standard_normal((n, n))
    c = rng.standard_normal(n)

    def vector(p):
        return np.einsum("nj,ijk,nk->ni", p, A, p) + p @ B.T + c

    want = np.einsum("iik,nk->n", A, pts) + np.einsum("iki,nk->n", A, pts) + np.trace(B)
    assert np.allclose(central_divergence(vector, pts, steps), want, rtol=0, atol=1e-12)

    # matrix field W_ij(p) = p^T Q_ij p + R_ij . p + S_ij; divergence over i
    Q = rng.standard_normal((n, 2, n, n))
    R = rng.standard_normal((n, 2, n))
    S = rng.standard_normal((n, 2))

    def matrix(p):
        return np.einsum("nk,ijkl,nl->nij", p, Q, p) + np.einsum("ijk,nk->nij", R, p) + S

    want = (
        np.einsum("ijik,nk->nj", Q, pts)
        + np.einsum("ijki,nk->nj", Q, pts)
        + np.einsum("iji->j", R)
    )
    got = central_divergence(matrix, pts, steps)
    assert got.shape == (7, 2)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_exact_divergence_matches_central_differences():
    # a chart that is not H-minimal: the exact product-rule divergence and the
    # central difference of step 1e-4 agree to the difference's O(h^2) error
    # (measured 5.9e-8 of the largest |div|; bound 1e-6 of it)
    chart = polynomial_graph_chart()
    pts = sample_grid(chart, per_axis=9, line_window=1.5)
    geo = induced_geometry_batch(chart, pts)
    exact = immersion._exact_divergence(chart, geo)
    central = immersion._central_h_divergence(chart, [1e-4, 1e-4], geo)
    scale = np.max(np.abs(exact))
    assert scale > 1.0
    assert np.max(np.abs(exact - central)) <= 1e-6 * scale
    assert check_h_minimal(chart, pts) == scale


@pytest.mark.parametrize(
    "chart",
    [
        make_torus((1.0, 2.0), 1),
        make_hyperbola_product((1.0, 2.0), (1, -1)),
        make_lagrangian_plane(2, p=1),
    ],
)
def test_closed_form_third_derivatives_match_central_differences(chart):
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.5, 1.5, size=(6, 2))
    d3f = chart.d3f(pts)
    assert d3f.shape == (6, 2, 2, 2, 4)
    h = 1e-5
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        central = (chart.oracle(pts + e)[2] - chart.oracle(pts - e)[2]) / (2 * h)
        assert np.allclose(d3f[:, :, :, l, :], central, rtol=0, atol=1e-8)


@pytest.mark.parametrize("make_chart", [polynomial_graph_chart, gradient_graph_chart])
def test_structural_checks_in_slices_match_one_pass(make_chart, monkeypatch):
    # 91^2 = 8281 points: several full slices and a partial one, in both
    # orders so that the worst point falls in different slices; the polynomial
    # chart takes the exact divergence, the dual-number chart central
    # differences
    chart = make_chart()
    grid = sample_grid(chart, per_axis=91, line_window=1.5)
    assert len(grid) > immersion.SLICE and len(grid) % immersion.SLICE
    grids = (grid, grid[::-1])
    sliced = [structural_residuals(chart, g) for g in grids]
    monkeypatch.setattr(immersion, "SLICE", len(grid))
    assert [structural_residuals(chart, g) for g in grids] == sliced
    assert sliced[0]["hminimal"] > 1e-8


# (lagrangian, hminimal, trisymmetry) on the 17-per-axis sample grid, as the
# three checks gave them when each walked the grid on its own.  The hminimal
# values of the curve products are the rounding of the batched-matrix
# divergence: its fused multiply-adds do not cancel sums such as
# sinh*cosh - cosh*sinh exactly (the term-by-term einsums read 0 on all but
# two of them)
_SEPARATE_CHECK_VALUES = {
    "torus:n=1,r=1,p=0": (0.0, 1.0898612285207621e-16, 0.0),
    "torus:n=2,r=1,1,p=1": (0.0, 1.777909329932835e-16, 0.0),
    "torus:n=2,r=1,2,p=1": (0.0, 1.3243010446842183e-16, 0.0),
    "torus:n=3,r=1,2,3,p=1": (0.0, 1.1671693863368348e-16, 0.0),
    "torus:n=3,r=1,1,1,p=2": (0.0, 2.5521893113305737e-16, 0.0),
    "hyperbola:n=1,r=1,eps=+": (0.0, 5.6552189836327354e-14, 0.0),
    "hyperbola:n=1,r=1,eps=-": (0.0, 5.052015717446508e-14, 0.0),
    "hyperbola:n=2,r=1,3,eps=+,+": (0.0, 5.670036018774713e-14, 0.0),
    "hyperbola:n=2,r=1,2,eps=+,-": (0.0, 5.695500053894977e-14, 0.0),
    "hyperbola:n=3,r=1,1,1,eps=+,+,+": (0.0, 1.81135643927449e-13, 0.0),
    "hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+": (0.0, 2.4916690818224334e-13, 0.0),
    "plane:n=2,p=0": (0.0, 0.0, 0.0),
    "plane:n=2,p=1": (0.0, 0.0, 0.0),
    "plane:n=2,amb=para": (0.0, 0.0, 0.0),
    "polynomial-graph": (0.0, 7.105728829862803, 0.0),
    "gradient-graph": (0.0, 5.954601074055013, 0.0),
}


@pytest.mark.parametrize("name", _FLAT_CHART_IDS + ["polynomial-graph", "gradient-graph"])
def test_structural_walk_matches_separate_checks(name):
    makers = {"polynomial-graph": polynomial_graph_chart, "gradient-graph": gradient_graph_chart}
    chart = makers[name]() if name in makers else resolve(name).chart
    got = structural_residuals(chart, sample_grid(chart, per_axis=17))
    want = _SEPARATE_CHECK_VALUES[name]
    assert got == dict(zip(("lagrangian", "hminimal", "trisymmetry"), want))
    entries = (check_lagrangian(chart), check_h_minimal(chart), trisymmetry_residual(chart))
    if chart.curve_product and chart.dim > 1:
        # with no grid these read the axis lines, the route that
        # test_curve_product_route_matches_the_walk holds to this walk
        assert entries == tuple(structural_residuals(chart).values())
    else:
        assert entries == want


@pytest.mark.parametrize("cid", _FLAT_CHART_IDS)
def test_curve_product_route_matches_the_walk(cid):
    # the flat charts' default residuals from their axis lines against the
    # 17^n-point walk: the per-axis residuals exactly, hminimal to its
    # rounding (measured 2.3e-17 on torus:n=2,r=1,1,p=1)
    chart = resolve(cid).chart
    assert chart.curve_product
    fast, walk = structural_residuals(chart), structural_residuals(chart, sample_grid(chart, 17))
    assert (fast["lagrangian"], fast["trisymmetry"]) == (walk["lagrangian"], walk["trisymmetry"])
    assert abs(fast["hminimal"] - walk["hminimal"]) <= 1e-12


# (a, b) of the curves (s, a s^2 + b s^3): phi_l, the arc-length derivative
# of the curvature, takes both signs on every axis, and the dominant sign
# alternates, so max |div X| over the grid is below the sum of the per-axis
# maxima of |phi_l|
_CUBIC_CURVES = [(0.3, 0.1), (-0.2, -0.15), (0.5, -0.05)]


@pytest.mark.parametrize("n", [2, 3])
def test_curve_product_route_finds_the_extreme_divergence(n):
    phis = []
    for ab in _CUBIC_CURVES[:n]:
        axis = cubic_curve_product_chart([ab])
        pts = sample_grid(axis)
        phis.append(immersion._exact_divergence(axis, induced_geometry_batch(axis, pts)))
        assert phis[-1].min() < 0 < phis[-1].max()
    chart = cubic_curve_product_chart(_CUBIC_CURVES[:n])
    fast, walk = structural_residuals(chart), structural_residuals(chart, sample_grid(chart, 17))
    assert walk["hminimal"] < sum(np.max(np.abs(phi)) for phi in phis) - 0.1
    assert (fast["lagrangian"], fast["trisymmetry"]) == (walk["lagrangian"], walk["trisymmetry"])
    assert abs(fast["hminimal"] - walk["hminimal"]) <= 1e-12 * walk["hminimal"]


def test_false_curve_product_declaration_raises():
    # the polynomial graph's derivatives couple its two axes
    from dataclasses import replace

    chart = replace(polynomial_graph_chart(), curve_product=True)
    with pytest.raises(ValueError, match="declared curve_product"):
        structural_residuals(chart)


def test_dual_number_product_keeps_the_walk(monkeypatch):
    chart = make_torus((1.0, 2.0, 3.0), 1, oracle="dual_number")
    assert not chart.curve_product
    want = structural_residuals(chart, sample_grid(chart, 17))
    points = []
    original = immersion.induced_geometry_batch

    def counting_geometry(chart, pts):
        points.append(len(pts))
        return original(chart, pts)

    monkeypatch.setattr(immersion, "induced_geometry_batch", counting_geometry)
    assert structural_residuals(chart) == want
    # one pass per slice and 2n central-difference passes per slice
    assert sum(points) == 7 * 17**3


def test_sample_grid_is_the_tensor_grid_of_the_sample_axes():
    chart = make_hyperbola_product((1.0, 2.0, 3.0), (1, -1, 1))
    axes = immersion.sample_axes(chart, 5, line_window=2.0)
    assert [len(a) for a in axes] == [5, 5, 5]
    assert sample_grid(chart, 5, line_window=2.0).tolist() == [list(p) for p in itertools.product(*axes)]


def test_criterion_11_takes_one_geometry_pass_per_chart(monkeypatch):
    # one geometry pass per flat chart (each a curve product, read from its
    # 1 + 16n axis-line points; the 17-point walk on one axis), and 8 passes
    # of 7 points in the oracle-equivalence check: 14 + 16 * 30 + 56 points.
    # Every oracle call of a chart from the chart step is one of its
    # geometry passes, one per chart
    from dataclasses import replace

    from hamstab import verification

    geometry, oracle_calls, charts = [], [], []
    original_geometry, original_chart = immersion.induced_geometry_batch, verification.resolve_chart

    def counting_geometry(chart, points):
        geo = original_geometry(chart, points)
        geometry.append((any(chart is c for c in charts), len(geo["points"])))
        return geo

    def counting_chart(cid):
        chart, params = original_chart(cid)
        oracle = chart.oracle

        def counting_oracle(points):
            oracle_calls.append(len(points))
            return oracle(points)

        charts.append(replace(chart, oracle=counting_oracle))
        return charts[-1], params

    monkeypatch.setattr(immersion, "induced_geometry_batch", counting_geometry)
    monkeypatch.setattr(verification, "induced_geometry_batch", counting_geometry)
    monkeypatch.setattr(verification, "resolve_chart", counting_chart)
    results = verification.run_criterion(11)
    assert all(r.passed for r in results)

    assert len(charts) == len(verification._FLAT_CHART_IDS) == 14
    assert len(geometry) == len(verification._FLAT_CHART_IDS) + 8
    assert sum(npts for _, npts in geometry) == 550
    assert oracle_calls == [npts for own, npts in geometry if own]
    assert len(oracle_calls) == len(charts)


def test_degenerate_metric_fails_every_structural_check():
    # the shared geometry pass rejects a degenerate induced metric, the
    # Lagrangian check included
    chart = LagrangianChart(AmbientFlat.pseudo_kahler(1, 0), (AxisDomain.line(),), _fold_oracle)
    grid = np.array([[-1.0], [0.0], [1.0]])
    for check in (structural_residuals, check_lagrangian, check_h_minimal, trisymmetry_residual):
        with pytest.raises(DegenerateMetricError):
            check(chart, grid)


def _einsum_geometry(chart, pts):
    """``g``, ``C`` and ``nH_cov`` by the term-by-term einsums that the
    batched matrix products replaced."""
    sgn = chart.ambient.signature.as_array()
    _, df, d2f = chart.oracle(pts)
    g = np.einsum("nia,nja,a->nij", df, df, sgn)
    g_inv = np.linalg.inv(g)
    C = np.einsum("nija,nka,a->nijk", d2f, chart.ambient.j_apply(df), sgn)
    nH_cov = np.einsum("nij,nijk->nk", g_inv, C)
    return {"points": pts, "df": df, "d2f": d2f, "g": g, "g_inv": g_inv, "C": C, "nH_cov": nH_cov}


def _einsum_divergence(chart, geo, absolute=False):
    """``div X`` by the einsum form of ``immersion._exact_divergence``; with
    ``absolute``, the same sums over the absolute values of every factor,
    the scale of their rounding error."""
    a = np.abs if absolute else (lambda x: x)
    amb = chart.ambient
    sgn = a(amb.signature.as_array())
    df, d2f, g_inv, H, C = (a(geo[k]) for k in ("df", "d2f", "g_inv", "nH_cov", "C"))
    T = np.einsum("nij,nijla->nla", g_inv, a(chart.d3f(geo["points"])))
    half = np.einsum("nila,nja,a->nlij", d2f, df, sgn)
    dg = half + half.swapaxes(2, 3)
    dg_inv = a(-(g_inv[:, None] @ dg @ g_inv[:, None]))
    C_raised = np.einsum("nijk,nlk->nlij", C, g_inv)
    X = np.einsum("nlk,nk->nl", g_inv, H)
    E = np.einsum("nlk,nka->nla", g_inv, df)
    return (
        np.einsum("nllk,nk->n", dg_inv, H)
        + np.einsum("nlij,nlij->n", dg_inv, C_raised)
        + np.einsum("nla,nla,a->n", T, a(amb.j_apply(E)), sgn)
        + 0.5 * np.einsum("nij,nlji,nl->n", g_inv, dg, X)
    )


@pytest.mark.parametrize("name", _FLAT_CHART_IDS + ["polynomial-graph", "gradient-graph"])
def test_batched_contractions_match_the_einsum_forms(name):
    # random points, circle axes over one period and line axes in [-2, 2];
    # measured worst error 1.4e-15 of the largest entry (nH_cov on
    # hyperbola:n=3 and n=4), and 2.3e-16 of the absolute-value scale for
    # div X (polynomial graph)
    makers = {"polynomial-graph": polynomial_graph_chart, "gradient-graph": gradient_graph_chart}
    chart = makers[name]() if name in makers else resolve(name).chart
    rng = np.random.default_rng(7)
    pts = np.stack(
        [rng.uniform(0.0, d.size, 64) if d.kind == "circle" else rng.uniform(-2.0, 2.0, 64) for d in chart.domains],
        axis=-1,
    )
    got, want = induced_geometry_batch(chart, pts), _einsum_geometry(chart, pts)
    for key in ("g", "C", "nH_cov"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * np.max(np.abs(want[key])), key
    if chart.d3f is not None:
        scale = np.max(_einsum_divergence(chart, want, absolute=True))
        error = np.max(np.abs(immersion._exact_divergence(chart, got) - _einsum_divergence(chart, want)))
        assert error <= 1e-13 * scale


@pytest.mark.parametrize("cid", _FLAT_CHART_IDS)
def test_batched_contractions_are_exact_at_the_flat_chart_origin(cid):
    # every origin sum has one nonzero term, so the chart jet forms built
    # from the origin geometry keep their bits
    chart = resolve(cid).chart
    origin = np.zeros((1, chart.dim))
    got, want = induced_geometry_batch(chart, origin), _einsum_geometry(chart, origin)
    for key in ("g", "C", "nH_cov"):
        assert got[key].tobytes() == want[key].tobytes(), key
    if chart.d3f is not None:
        assert immersion._exact_divergence(chart, got).tobytes() == _einsum_divergence(chart, want).tobytes()


def test_structural_walk_peak_memory_is_bounded_by_the_slice():
    # the 17^4-point hyperbola:n=4 walk of criterion 11 peaked at 51.9 MB of
    # traced allocations in slices of 8192 points; 6.5 MB in slices of 1024
    chart = resolve("hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+").chart
    grid = sample_grid(chart, 17)
    tracemalloc.start()
    try:
        structural_residuals(chart, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trisymmetry_is_the_largest_transpose_difference(n):
    # a fully symmetric C perturbed by 1e-14: the largest spread over an
    # index orbit is bit for bit the largest |C - C^T| over the five
    # nontrivial transposes
    rng = np.random.default_rng(n)
    base = rng.normal(size=(1024, n, n, n))
    transposes = [(0,) + axes for axes in itertools.permutations((1, 2, 3))]
    C = sum(np.transpose(base, axes) for axes in transposes) + 1e-14 * rng.normal(size=base.shape)
    want = max(np.max(np.abs(C - np.transpose(C, axes))) for axes in transposes[1:])
    assert immersion._trisymmetry(C) == want
    assert (want > 0) == (n > 1)
