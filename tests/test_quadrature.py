import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab.immersion import AxisDomain

from hamstab import analyzer, quadrature
from hamstab.catalog import resolve
from hamstab.quadrature import (
    GridSpec,
    GridTooLargeError,
    JetFormField,
    SupportError,
    build_grid,
    integrate,
    pairwise_sum,
)
from hamstab.testfunctions import (
    AnisotropicGaussian,
    Cos1D,
    Gauss1D,
    HermGauss1D,
    ProductJet,
    Separable,
    jet_coordinates,
    jet_orders,
)
from hamstab.variation import SecondVariationFunctional, jet_field

from helpers import counting_lead_rows, minimal_null_graph_chart


def test_cos_squared_on_circle():
    # periodic trapezoid is exact for trig polynomials below the node count
    dom = (AxisDomain.circle(2 * np.pi),)
    val = integrate(lambda p: np.cos(p[:, 0]) ** 2, dom, GridSpec(circle_nodes=8, line_nodes=8))
    assert val == pytest.approx(np.pi, rel=1e-14)


def test_product_angle_integral():
    # int over T^2 of sin^2(s1 - s2) = 2 pi^2
    dom = (AxisDomain.circle(2 * np.pi), AxisDomain.circle(2 * np.pi))
    val = integrate(lambda p: np.sin(p[:, 0] - p[:, 1]) ** 2, dom)
    assert val == pytest.approx(2 * np.pi**2, rel=1e-13)


def test_gaussian_derivative_energy():
    # int (d/ds exp(-s^2/(2 sigma^2)))^2 = sqrt(pi) / (2 sigma), box 10 sigma
    sigma = 1.3
    dom = (AxisDomain.line(),)

    def fld(p):
        s = p[:, 0]
        return (s / sigma**2) ** 2 * np.exp(-(s**2) / sigma**2)

    val = integrate(fld, dom, boxes=(10 * sigma,))
    assert val == pytest.approx(np.sqrt(np.pi) / (2 * sigma), rel=1e-10)


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, size=1003)
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([2.5])) == 2.5


def test_support_leak_detected():
    # a field that does not vanish at the line box boundary
    dom = (AxisDomain.line(),)
    with pytest.raises(SupportError, match="boundary"):
        integrate(lambda p: np.ones(len(p)), dom, boxes=(3.0,))


def test_box_exceeding_truncation():
    dom = (AxisDomain.line(5.0),)
    with pytest.raises(SupportError, match="truncation"):
        build_grid(dom, boxes=(10.0,))


def test_missing_box():
    with pytest.raises(ValueError, match="truncation box"):
        build_grid((AxisDomain.line(),))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(circle_nodes=4)
    with pytest.raises(ValueError):
        GridSpec(line_box=-1.0)


def test_grid_points_shape():
    dom = (AxisDomain.circle(2 * np.pi), AxisDomain.line())
    grid = build_grid(dom, GridSpec(circle_nodes=16, line_nodes=12), boxes=(None, 5.0))
    pts, w = grid.points_and_weights()
    assert pts.shape == (16 * 12, 2)
    assert w.shape == (16 * 12,)
    # circle weights sum to the circumference, line weights to the box length
    assert np.sum(grid.axis_weights[0]) == pytest.approx(2 * np.pi)
    assert np.sum(grid.axis_weights[1]) == pytest.approx(10.0)


def test_chunked_evaluation_consistency():
    # force chunking with a fine grid and compare against a plain dot product
    dom = (AxisDomain.line(),)
    spec = GridSpec(line_nodes=96)

    def fld(p):
        return np.exp(-p[:, 0] ** 2)

    direct = integrate(fld, dom, spec, boxes=(10.0,))
    import hamstab.quadrature as q

    old = q.BLOCK_ROWS
    try:
        q.BLOCK_ROWS = 7
        chunked = integrate(fld, dom, spec, boxes=(10.0,))
    finally:
        q.BLOCK_ROWS = old
    assert chunked == direct


def test_gauss_legendre_nodes_are_cached_read_only():
    x, w = quadrature._gauss_legendre(12)
    assert quadrature._gauss_legendre(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    doms = (AxisDomain.line(), AxisDomain.circle(2 * np.pi))
    spec = GridSpec(circle_nodes=8, line_nodes=12)
    first, second = (build_grid(doms, spec, boxes=(3.0, None)) for _ in range(2))
    for a, b in zip(first.axis_nodes + first.axis_weights, second.axis_nodes + second.axis_weights):
        assert np.array_equal(a, b)
    assert np.array_equal(first.axis_nodes[0], x * 3.0)
    assert np.array_equal(first.axis_weights[0], w * 3.0)


@pytest.mark.parametrize("m", [8, 9, 40, 64, 96, 97])
def test_gauss_legendre_rule_is_exact_for_polynomials(m):
    # m nodes integrate x^j exactly on [-1, 1] for j < 2m, up to rounding
    x, w = quadrature._gauss_legendre(m)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for j in range(2 * m):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert math.fsum(w * x**j) == pytest.approx(exact, rel=1e-12, abs=1e-14), j


def test_gauss_legendre_even_orders_equal_scipy_bit_for_bit():
    # golden witness IDs that rounding decides were recorded with scipy's
    # rule; every default grid has an even line node count
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre
    for m in range(8, 301, 2):
        x, w = quadrature._gauss_legendre(m)
        ref_x, ref_w = roots_legendre(m)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), m


def test_gauss_legendre_odd_orders_match_scipy_to_rounding():
    # scipy evaluates P_n by a power series where |x| < 1e-5, so at the
    # middle node of an odd rule; the recurrence there moves only the weights
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre
    for m in range(9, 300, 2):
        x, w = quadrature._gauss_legendre(m)
        ref_x, ref_w = roots_legendre(m)
        assert x.tobytes() == ref_x.tobytes(), m
        assert np.max(np.abs(w - ref_w) / ref_w) <= 4e-15, m


def test_oversized_mesh_fails_before_allocating():
    lines = tuple(AxisDomain.line() for _ in range(4))
    grid = build_grid(lines, GridSpec(line_nodes=96), boxes=(5.0,) * 4)
    assert grid.size == 96**4 > quadrature.MAX_MESH_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match=r"84934656 points.*GiB"):
            grid.points_and_weights()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest 4-axis grid the report's --grid option reaches below the cap
    assert build_grid(lines, GridSpec(64, 64), boxes=(5.0,) * 4).size <= quadrature.MAX_MESH_POINTS


def test_points_at_matches_the_mesh():
    dom = (AxisDomain.circle(2 * np.pi), AxisDomain.line(), AxisDomain.line())
    grid = build_grid(dom, GridSpec(circle_nodes=8, line_nodes=10), boxes=(None, 3.0, 2.0))
    pts, _ = grid.points_and_weights()
    assert np.array_equal(grid.points_at(np.arange(grid.size)), pts)
    idx = np.random.default_rng(3).choice(grid.size, 50, replace=False)
    assert np.array_equal(grid.points_at(idx), pts[idx])


def reference_pairwise_sum(values):
    """The level-by-level pairwise reduction with numpy's pair sums."""
    v = np.asarray(values, dtype=float).ravel()
    while v.size > 1:
        half = v.size // 2
        v = np.concatenate([v[: 2 * half].reshape(half, 2).sum(axis=1), v[2 * half :]])
    return float(v[0]) if v.size else 0.0


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 5000), st.integers(0, 10), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_streamed_block_sums_equal_pairwise_sum(n, levels, blocks_per_part, seed):
    # values over 10 decades, some of them signed zeros; parts of whole
    # 2^levels blocks start on block boundaries, as the mesh walk's do
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-5, 5, n)
    values[rng.random(n) < 0.05] = -0.0
    values[rng.random(n) < 0.05] = 0.0
    want = reference_pairwise_sum(values)
    assert same_float(pairwise_sum(values), want)
    part = blocks_per_part << levels
    partial = [quadrature._block_sums(values[i : i + part], 1 << levels) for i in range(0, n, part)]
    assert same_float(pairwise_sum(np.concatenate([np.empty(0), *partial])), want)


def test_pairwise_sum_of_negative_zeros():
    assert same_float(pairwise_sum(np.full(5, -0.0)), reference_pairwise_sum(np.full(5, -0.0)))
    assert same_float(pairwise_sum(np.array([-0.0])), -0.0)


def whole_mesh_integrate(field, domains, spec, boxes):
    """The mesh path as a whole-mesh computation: all points and weights,
    the values chunk by chunk, edge masks, then one pairwise sum per column."""
    grid = build_grid(domains, spec, boxes)
    pts, w = grid.points_and_weights()
    stack = isinstance(field, JetFormField)
    rows = quadrature.BLOCK_ROWS
    if stack:
        columns = np.empty((len(field.form), len(pts)))
        for i in range(0, len(pts), rows):
            coords = field.coords(pts[i : i + rows])
            for k, m in enumerate(field.form):
                columns[k, i : i + rows] = np.einsum("np,np->n", coords @ m, coords)
    else:
        columns = [np.concatenate([field(pts[i : i + rows]) for i in range(0, len(pts), rows)])]
    edges = []
    for j, dom in enumerate(grid.domains):
        if dom.kind == "line":
            nodes = grid.axis_nodes[j]
            edges.append((j, (pts[:, j] == nodes[0]) | (pts[:, j] == nodes[-1])))
    for vals in columns:
        scale = 1.0 + float(np.max(np.abs(vals), initial=0.0))
        for j, edge in edges:
            leak = float(np.max(np.abs(vals[edge]), initial=0.0))
            if leak > quadrature.LEAK_RTOL * scale:
                raise SupportError(
                    f"axis {j}: field magnitude {leak:.3e} at the box boundary "
                    f"(threshold {quadrature.LEAK_RTOL * scale:.3e}); enlarge the box or shrink the support"
                )
    sums = [reference_pairwise_sum(vals * w) for vals in columns]
    return np.array(sums) if stack else sums[0]


def stack_field(factors, scales=(1.0, 1.0, 1.0)):
    """A (K, J, J) stack of random symmetric forms, scaled per column, over
    the jet of a product of ``factors`` (no separable terms: the mesh path)."""
    u = Separable(factors)
    rng = np.random.default_rng(5)
    j = 1 + len(factors) + len(factors) * (len(factors) + 1) // 2
    forms = []
    for scale in scales:
        a = rng.normal(size=(j, j))
        forms.append(scale * (a + a.T))
    return JetFormField(form=np.array(forms), coords=u.jet_coords)


@pytest.fixture(params=[None, 64], ids=["default-blocks", "blocks-64"])
def block_rows(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(quadrature, "BLOCK_ROWS", request.param)
    return request.param


def test_mesh_walk_matches_whole_mesh_single_form(block_rows):
    # 91^2 = 8281 rows: not a multiple of a 64-row block; 21^3 rows walk in
    # blocks of 63 under 64-row blocks (sub-block 1), and 96^3 in blocks of
    # one 96^2 = 2^10 * 9-row sub-mesh at the default blocks (sub-block 2^10)
    circle_line = (AxisDomain.circle(2 * np.pi), AxisDomain.line())

    def fld(p):
        return (1.5 + np.cos(p[:, 0]) * np.sin(3 * p[:, 0])) * np.exp(-(p[:, 1] ** 2)) * (p[:, 1] - 0.3)

    def fld3(p):
        return np.exp(-np.sum(p * p, axis=1)) * (p[:, 0] - 0.3) * (1.0 + 0.5 * np.sin(p[:, 1] + p[:, 2]))

    cases = [
        (fld, circle_line, GridSpec(circle_nodes=91, line_nodes=91), (None, 7.0)),
        (fld3, (AxisDomain.line(),) * 3, GridSpec(line_nodes=21), (7.0,) * 3),
        (fld3, (AxisDomain.line(),) * 3, GridSpec(line_nodes=96), (7.0,) * 3),
    ]
    for field, dom, spec, boxes in cases:
        got = integrate(field, dom, spec, boxes=boxes)
        assert isinstance(got, float)
        assert same_float(got, whole_mesh_integrate(field, dom, spec, boxes)), (spec, boxes)


@pytest.mark.parametrize("axes, nodes", [(3, 21), (2, 91)])
def test_mesh_walk_matches_whole_mesh_form_stack(block_rows, axes, nodes):
    doms = (AxisDomain.line(),) * axes
    spec = GridSpec(line_nodes=nodes)
    boxes = (8.0,) * axes
    field = stack_field([Gauss1D(1.0 + 0.2 * k, center=0.1 * k) for k in range(axes)])
    got = integrate(field, doms, spec, boxes=boxes)
    want = whole_mesh_integrate(field, doms, spec, boxes)
    assert got.shape == (3,)
    assert all(map(same_float, got, want))


# (circle nodes, line nodes, axis kinds): 2-4 axes with circle and line axes
# mixed; 91 and 70 nodes make last axes longer than a 64-row block
STACK_MESHES = [
    (91, 70, "cl"),
    (70, 91, "lc"),
    (12, 70, "lcl"),
    (70, 9, "clc"),
    (8, 12, "lccl"),
    (10, 9, "cllc"),
]


@pytest.mark.parametrize("circle, line, kinds", STACK_MESHES)
def test_form_stack_walk_matches_whole_mesh_on_mixed_axes(block_rows, circle, line, kinds):
    doms = tuple(AxisDomain.circle(2 * np.pi) if k == "c" else AxisDomain.line() for k in kinds)
    spec = GridSpec(circle_nodes=circle, line_nodes=line)
    boxes = tuple(None if k == "c" else 12.0 for k in kinds)
    factors = [Cos1D(1.0 + k % 2) if kind == "c" else Gauss1D(1.0 + 0.2 * k, center=0.1 * k) for k, kind in enumerate(kinds)]
    field = stack_field(factors)
    got = integrate(field, doms, spec, boxes=boxes)
    want = whole_mesh_integrate(field, doms, spec, boxes)
    assert all(map(same_float, got, want))
    # a non-separable probe's jet coordinates, without its Gaussian terms,
    # take the same walk
    A = np.eye(len(kinds)) + 0.3 * (np.ones((len(kinds),) * 2) - np.eye(len(kinds))) / len(kinds)
    u = AnisotropicGaussian(A)
    lines = tuple(AxisDomain.line() for _ in kinds)
    field = JetFormField(field.form, None, u.jet_coords)
    got = integrate(field, lines, spec, boxes=u.axis_boxes)
    want = whole_mesh_integrate(field, lines, spec, u.axis_boxes)
    assert all(map(same_float, got, want))


def test_mesh_walk_leak_error_matches_whole_mesh(block_rows):
    # the probe peaks at the upper edge of the second and third line axes;
    # the first two columns are scaled below the threshold, so the third
    # column raises first, on the second line axis, before the fourth does
    doms = (AxisDomain.line(), AxisDomain.circle(2 * np.pi), AxisDomain.line(), AxisDomain.line())
    spec = GridSpec(circle_nodes=8, line_nodes=14)
    boxes = (8.0, None, 3.0, 3.0)
    edge_peak = Gauss1D(0.5, center=3.0)
    field = stack_field([Gauss1D(1.0), Cos1D(1.0), edge_peak, edge_peak], scales=(1e-20, 1e-20, 1.0, 3.0))
    with pytest.raises(SupportError) as want:
        whole_mesh_integrate(field, doms, spec, boxes)
    assert str(want.value).startswith("axis 2: ")
    with pytest.raises(SupportError) as got:
        integrate(field, doms, spec, boxes=boxes)
    assert str(got.value) == str(want.value)


def test_mesh_walk_memory_is_a_few_blocks(monkeypatch):
    # 128^3 = 2.1 M points; the whole mesh alone would take 8 * 4 * 2.1 M
    # = 64 MiB for points and weights, and over 100 MiB through evaluation.
    # 64^3 walks in 16 blocks of 4 * 64^2 rows, whose per-axis node indices
    # would add 6 MiB if they were kept for every row of the mesh
    def no_mesh(grid):
        raise AssertionError("integrate built the whole mesh")

    monkeypatch.setattr(quadrature.Grid, "points_and_weights", no_mesh)
    doms = (AxisDomain.line(),) * 3
    for nodes, bound in ((128, 48), (64, 20)):
        tracemalloc.start()
        try:
            val = integrate(lambda p: np.exp(-np.sum(p * p, axis=1)), doms, GridSpec(line_nodes=nodes), boxes=(7.0,) * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert val == pytest.approx(np.pi**1.5, rel=1e-12)
        assert peak < bound * 2**20, (nodes, peak / 2**20)


@pytest.mark.parametrize("label", ["gauss4xgauss1xgauss4", "gauss1xgauss4xgauss4", "gauss4xgauss4xgauss1"])
def test_tie_walk_is_bit_identical_in_bounded_blocks(monkeypatch, label):
    # fourier_sweep on hyperbola:n=3 orders these mirror-image probes, whose
    # values tie to the last bit, by their mesh values on the 64^3 default
    # grid: 16 blocks, each value equal to the whole mesh's in one block
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    functional, spec = entry.functional, entry.default_gridspec
    u = next(p for p in analyzer.witness_library(functional.domains) if p.label == label)
    rows = []

    def spied_integrate(field, *args, **kwargs):
        # the walk hands the field each block's points and open mesh
        def spied(pts, axes):
            rows.append(len(pts))
            return field.fn(pts, axes)

        return integrate(quadrature.MeshField(spied), *args, **kwargs)

    monkeypatch.setattr(analyzer, "integrate", spied_integrate)
    tracemalloc.start()
    try:
        got = analyzer._mesh_value(functional, u, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(rows) == 64**3 and len(rows) == 16
    assert max(rows) <= quadrature.BLOCK_ROWS
    assert peak < 16 * 2**20, peak / 2**20

    def field(pts):
        return functional.integrand(pts, u.jet(pts))

    assert same_float(got, whole_mesh_integrate(field, functional.domains, spec, u.axis_boxes))
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", 64**3)
    assert same_float(got, whole_mesh_integrate(field, functional.domains, spec, u.axis_boxes))


def test_tie_walk_evaluates_each_factor_on_its_axis_nodes(monkeypatch):
    # the 64^3 walk's 16 blocks of 4 x 64 x 64 rows hand the factors 4 + 64
    # + 64 distinct nodes each, where a factor on every row would see 3 x 64^3
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    functional, spec = entry.functional, entry.default_gridspec
    u = next(p for p in analyzer.witness_library(functional.domains) if p.label == "gauss4xgauss1xgauss4")
    points = []
    for kind in {type(f) for f in u.factors}:

        def counted(f, x, jet1=kind.jet1):
            points.append(np.size(x))
            return jet1(f, x)

        monkeypatch.setattr(kind, "jet1", counted)
    analyzer._mesh_value(functional, u, spec)
    assert 0 < sum(points) <= 16 * (4 + 64 + 64)


def test_tie_walk_forms_only_the_jet_coordinates_it_reads(monkeypatch):
    # the hyperbola integrand reads du and the diagonal d2u_jj: each block
    # forms those 6 of the 13 coordinates, each once, and never u
    entry = resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+")
    functional, spec = entry.functional, entry.default_gridspec
    u = next(p for p in analyzer.witness_library(functional.domains) if p.label == "gauss4xgauss1xgauss4")
    formed = {}
    form = ProductJet._form

    def counted(jet, r, out):
        # keyed by the jet itself, which stays alive, so no key is reused
        formed.setdefault(jet, []).append(r)
        return form(jet, r, out)

    monkeypatch.setattr(ProductJet, "_form", counted)
    analyzer._mesh_value(functional, u, spec)
    # rows: u, du_0..du_2, then d2u_jk at 4 + 3 j + k
    assert len(formed) == 16
    assert all(sorted(rows) == [1, 2, 3, 4, 8, 12] for rows in formed.values())


def test_walk_on_a_point_dependent_off_diagonal_form_is_bit_identical(block_rows):
    # the minimal null graph's Laplacian 2 u_12 + cos(s_1) u_22 reads the
    # off-diagonal d2u_12 (as d2u_12 and d2u_21), with coefficients that
    # depend on the point; the open-mesh walk matches the dense jet's
    functional = SecondVariationFunctional(minimal_null_graph_chart())
    u = Separable([Gauss1D(0.7, 0.3), HermGauss1D(2, 0.8)])
    spec = GridSpec(line_nodes=40)
    got = analyzer._mesh_value(functional, u, spec)

    def field(pts):
        return functional.integrand(pts, u.jet(pts))

    assert same_float(got, whole_mesh_integrate(field, functional.domains, spec, u.axis_boxes))
    assert got != 0.0


def test_form_stack_walk_memory_is_a_few_blocks(monkeypatch):
    # a 4-axis stack of 5 forms walked on 32^4 = 1.05 M points: the whole
    # mesh's 15 jet coordinates alone would take 8 * 15 * 1.05 M = 126 MiB
    def no_mesh(grid):
        raise AssertionError("integrate built the whole mesh")

    monkeypatch.setattr(quadrature.Grid, "points_and_weights", no_mesh)
    u = AnisotropicGaussian(np.eye(4) + 0.2)
    a = np.random.default_rng(4).normal(size=(5, 15, 15))
    forms = a + a.transpose(0, 2, 1)
    # the first form is e0 e0^T, whose sum is int u^2
    forms[0] = 0.0
    forms[0, 0, 0] = 1.0
    doms = (AxisDomain.line(),) * 4
    tracemalloc.start()
    try:
        sums = integrate(JetFormField(forms, None, u.jet_coords), doms, GridSpec(line_nodes=32), boxes=u.axis_boxes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int exp(-s^T A s) = pi^2 / sqrt(det A), to what 32 nodes resolve
    assert sums[0] == pytest.approx(np.pi**2 / np.sqrt(np.linalg.det(u.A)), rel=1e-3)
    assert peak < 48 * 2**20, peak / 2**20


def test_form_only_field_is_contracted_from_its_jets_on_the_mesh():
    # a non-diagonal A has no separable terms, so the mesh path runs
    u = AnisotropicGaussian(np.array([[1.0, 0.4], [0.4, 0.7]]))
    dom = (AxisDomain.line(), AxisDomain.line())
    spec = GridSpec(line_nodes=40)
    a = np.random.default_rng(9).normal(size=(6, 6))
    form = a @ a.T

    def twin(pts):
        coords = jet_coordinates(u.jet(pts))
        return np.einsum("np,pq,nq->n", coords, form, coords)

    field = JetFormField(form, u.separable_terms(), u.jet_coords)
    got = integrate(field, dom, spec, boxes=u.axis_boxes)
    assert isinstance(got, float)
    assert got == integrate(JetFormField(form[None], None, u.jet_coords), dom, spec, boxes=u.axis_boxes)[0]
    assert got == pytest.approx(integrate(twin, dom, spec, boxes=u.axis_boxes), rel=1e-13)
    # a box too small for the support leaks on both routes, with the same report
    errors = []
    for f in (field, twin):
        with pytest.raises(SupportError) as err:
            integrate(f, dom, spec, boxes=(2.0, 2.0))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_form_only_field_with_a_separable_leak_raises_support_error():
    # the edge bound is far above 1e-10, so the sum-factorized path defers to the mesh
    u = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    form = np.eye(6)
    field = JetFormField(form, [u.separable_terms()], u.jet_coords)
    with pytest.raises(SupportError, match="box boundary"):
        integrate(field, (AxisDomain.line(), AxisDomain.line()), GridSpec(line_nodes=16), boxes=(1.5, 1.5))


@st.composite
def anisotropic_gaussians(draw):
    """A Gaussian on 2-4 axes with a random SPD ``A`` (eigenvalues in
    [0.125, 8], so condition number at most 64) and center in [-2, 2]^n."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (rotation * 8.0 ** rng.uniform(-1.0, 1.0, n)) @ rotation.T
    return AnisotropicGaussian((A + A.T) / 2, center=rng.uniform(-2.0, 2.0, n))


def assert_moments_match_the_long_double_gram(u, nodes, line_box=None):
    """Every entry of the weighted jet Gram of ``u`` from its mesh moments
    within ``2e-14`` of the rounding scale ``sum w |j_p| |j_q|`` of the Gram
    of the jet ``u [1, -y, y_i y_j - A_ij]`` summed in long double over
    every mesh point.  By Cauchy-Schwarz that scale is at most ``sqrt(G_pp
    G_qq)``.  (Moments rounded to float64 before ``K`` combines them erred
    by up to 5e-13 of that scale where ``K m(t)`` cancels.)"""
    grid = build_grid((AxisDomain.line(),) * u.n, GridSpec(line_nodes=nodes, line_box=line_box), u.axis_boxes)
    got, _ = quadrature._gaussian_moments(grid, u.gaussian_terms())
    pts, w = grid.points_and_weights()
    t = (pts.astype(np.longdouble) - u.center).T
    y = u.A.astype(np.longdouble) @ t
    rows, cols = np.triu_indices(u.n)
    jet = np.concatenate([np.ones((1, len(w)), np.longdouble), -y, y[rows] * y[cols] - u.A[rows, cols][:, None]])
    jet *= np.exp(-np.sum(t * y, axis=0) / 2)
    want = (jet * w) @ jet.T
    rounding = (np.abs(jet) * w) @ np.abs(jet).T
    assert np.all(np.abs(got - want) <= 2e-14 * rounding)


@settings(deadline=None, max_examples=30)
@given(anisotropic_gaussians())
def test_gaussian_moments_match_the_long_double_gram(u):
    # on 64^2, 32^3 or 16^4 points
    assert_moments_match_the_long_double_gram(u, {2: 64, 3: 32, 4: 16}[u.n])


@pytest.mark.parametrize("axes, nodes", [(1, 70), (2, 91), (3, 21)])
def test_gaussian_moments_match_the_long_double_gram_in_any_blocks(block_rows, axes, nodes):
    # under 64-row blocks the 70- and 91-node meshes keep no trailing
    # sub-mesh and the 21^3 mesh one axis of it; at the default blocks each
    # is a single trailing sub-mesh
    A = np.eye(axes) + 0.3 * (np.ones((axes, axes)) - np.eye(axes))
    assert_moments_match_the_long_double_gram(AnisotropicGaussian(A, center=np.linspace(-0.5, 0.5, axes)), nodes)


@pytest.mark.parametrize(
    "A, nodes",
    [
        (np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3)), 32),
        (np.array([[2.0, -0.6, 0.3], [-0.6, 1.0, 0.2], [0.3, 0.2, 0.5]]), 30),
        (np.full((4, 4), 5 / 24) + np.eye(4) / 6, 16),
    ],
)
def test_gaussian_moments_past_the_cut_match_the_long_double_gram(block_rows, A, nodes):
    # on a box three times the probe's, the leading rows far from the centre
    # lie past the cut and are not summed; the reference sums every point
    u = AnisotropicGaussian(A, center=np.linspace(-0.5, 0.5, len(A)))
    with counting_lead_rows() as walks:
        assert_moments_match_the_long_double_gram(u, nodes, line_box=3 * max(u.axis_boxes))
    _, kept, lead_rows = walks[-1]
    assert kept < lead_rows


def test_gaussian_moments_sum_every_row_when_the_kept_gram_fails_the_cut(monkeypatch):
    # a cut that the Gram of the rows it keeps does not confirm is caught
    # after the sum, and the Gram of every row replaces it
    u = AnisotropicGaussian(np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3)))
    grid = build_grid((AxisDomain.line(),) * 3, GridSpec(line_nodes=32, line_box=3 * max(u.axis_boxes)))
    cut = quadrature._moment_cut
    monkeypatch.setattr(quadrature, "_moment_cut", lambda *args: math.inf)
    want, _ = quadrature._gaussian_moments(grid, u.gaussian_terms())
    cuts = []

    def too_small_first(*args):
        cuts.append(cut(*args))
        return 0.0 if len(cuts) == 1 else cuts[-1]

    monkeypatch.setattr(quadrature, "_moment_cut", too_small_first)
    with counting_lead_rows() as walks:
        got, _ = quadrature._gaussian_moments(grid, u.gaussian_terms())
    assert len(cuts) == 2 and cuts[1] > math.log(2.0)
    # the nearest block, the rows the cut keeps, then every row
    assert len(walks) == 3 and walks[-1][1] == walks[-1][2]
    assert np.array_equal(got, want)


def test_gaussian_moments_leak_raises_the_pointwise_error(monkeypatch):
    # a box that cuts the probe fails the moments' edge bound, and the walk
    # of the mesh that follows words the error as the pointwise route does
    u = AnisotropicGaussian(np.array([[1.0, 0.4], [0.4, 0.7]]))
    dom = (AxisDomain.line(), AxisDomain.line())
    a = np.random.default_rng(9).normal(size=(6, 6))
    form = a @ a.T
    tried = []
    moments = quadrature._gaussian_moments

    def counted(grid, *args):
        tried.append(grid.size)
        return moments(grid, *args)

    monkeypatch.setattr(quadrature, "_gaussian_moments", counted)

    def pointwise(pts):
        coords = jet_coordinates(u.jet(pts))
        return np.einsum("np,pq,nq->n", coords, form, coords)

    errors = []
    for field in (jet_field(form, u), pointwise):
        with pytest.raises(SupportError) as err:
            integrate(field, dom, GridSpec(line_nodes=40), boxes=(2.0, 2.0))
        errors.append(str(err.value))
    assert tried == [40**2]
    assert errors[0] == errors[1]


def test_gaussian_moments_memory_is_a_few_blocks(monkeypatch):
    # 64^4 = 16.8 M points, one value each would take 128 MiB; the moments
    # hold one block of u^2 and its contractions at a time
    def no_walk(*args):
        raise AssertionError("integrate walked the mesh")

    monkeypatch.setattr(quadrature.Grid, "points_and_weights", no_walk)
    monkeypatch.setattr(quadrature, "_walk_mesh", no_walk)
    u = AnisotropicGaussian(np.eye(4) + 0.2)
    a = np.random.default_rng(4).normal(size=(5, 15, 15))
    forms = a + a.transpose(0, 2, 1)
    # the first form is e0 e0^T, whose sum is int u^2
    forms[0] = 0.0
    forms[0, 0, 0] = 1.0
    tracemalloc.start()
    try:
        sums = integrate(jet_field(forms, u), (AxisDomain.line(),) * 4, GridSpec(line_nodes=64), boxes=u.axis_boxes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int exp(-s^T A s) = pi^2 / sqrt(det A), to what 64 nodes resolve
    assert sums[0] == pytest.approx(np.pi**2 / np.sqrt(np.linalg.det(u.A)), rel=1e-6)
    assert peak < 12 * 2**20, peak / 2**20


@pytest.mark.xfail(
    strict=True,
    reason="K Mom K^T cancels along the wide directions of this n = 4 draw, and entry (1, 6) errs by "
    "2.107e-14 of the rounding scale; Gaussian probes in their eigenframe (ROADMAP item 3) remove the "
    "cancellation",
)
def test_gaussian_moments_match_the_long_double_gram_on_a_cancelling_draw():
    # a draw of test_gaussian_moments_match_the_long_double_gram that fails it
    A = [
        [1.7912357355329918, -2.8002736915149455, 0.6286860914273759, -1.0317535846906871],
        [-2.8002736915149455, 5.461901304892815, -0.19905038887249735, 0.2775172404604187],
        [0.6286860914273759, -0.19905038887249735, 5.720656686622017, -2.093404017658596],
        [-1.0317535846906871, 0.2775172404604187, -2.093404017658596, 4.236541858580657],
    ]
    center = [-1.5434913741911749, -0.44061940374082553, 0.8757402332577366, 0.12502535893140587]
    assert_moments_match_the_long_double_gram(AnisotropicGaussian(A, center=center), 16)
