import math
import tracemalloc

import numpy as np
import pytest

from hamstab.immersion import AxisDomain
from scipy.special import roots_legendre

from hamstab import quadrature
from hamstab.quadrature import (
    GridSpec,
    GridTooLargeError,
    SupportError,
    build_grid,
    integrate,
    pairwise_sum,
)


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

    old = q.CHUNK
    try:
        q.CHUNK = 7
        chunked = integrate(fld, dom, spec, boxes=(10.0,))
    finally:
        q.CHUNK = old
    assert chunked == direct


def test_gauss_legendre_nodes_are_cached_read_only():
    x, w = quadrature._gauss_legendre(12)
    assert quadrature._gauss_legendre(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref_x, ref_w = roots_legendre(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    doms = (AxisDomain.line(), AxisDomain.circle(2 * np.pi))
    spec = GridSpec(circle_nodes=8, line_nodes=12)
    first, second = (build_grid(doms, spec, boxes=(3.0, None)) for _ in range(2))
    for a, b in zip(first.axis_nodes + first.axis_weights, second.axis_nodes + second.axis_weights):
        assert np.array_equal(a, b)
    assert np.array_equal(first.axis_nodes[0], ref_x * 3.0)
    assert np.array_equal(first.axis_weights[0], ref_w * 3.0)


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
