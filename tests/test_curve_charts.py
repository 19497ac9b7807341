"""The flat catalog charts as products of planar curves.

The reference oracles below are the hand-written per-family oracles (and
dual-number component lists) that ``catalog._curve_product_chart``
replaced; the constructor must reproduce every array bit for bit.
"""

import numpy as np
import pytest

from hamstab.catalog import (
    CatalogIdError,
    make_hyperbola_product,
    make_lagrangian_plane,
    make_torus,
    resolve,
)
from hamstab.jets import Jet2, jcos, jcosh, jsin, jsinh


def _torus_reference(r):
    r = np.asarray(r, dtype=float)
    n = len(r)

    def oracle(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        npts = len(pts)
        theta = pts / r
        c, s = np.cos(theta), np.sin(theta)
        f = np.zeros((npts, 2 * n))
        f[:, 0::2] = r * c
        f[:, 1::2] = r * s
        df = np.zeros((npts, n, 2 * n))
        d2f = np.zeros((npts, n, n, 2 * n))
        for j in range(n):
            df[:, j, 2 * j] = -s[:, j]
            df[:, j, 2 * j + 1] = c[:, j]
            d2f[:, j, j, 2 * j] = -c[:, j] / r[j]
            d2f[:, j, j, 2 * j + 1] = -s[:, j] / r[j]
        return f, df, d2f

    def d3f(points):
        theta = np.atleast_2d(np.asarray(points, dtype=float)) / r
        out = np.zeros((len(theta), n, n, n, 2 * n))
        for j in range(n):
            out[:, j, j, j, 2 * j] = np.sin(theta[:, j]) / r[j] ** 2
            out[:, j, j, j, 2 * j + 1] = -np.cos(theta[:, j]) / r[j] ** 2
        return out

    comps = []
    for j in range(n):
        comps.append(lambda S, j=j: jcos(S[j] / r[j]) * r[j])
        comps.append(lambda S, j=j: jsin(S[j] / r[j]) * r[j])
    return oracle, d3f, comps


def _hyperbola_reference(r, eps):
    r = np.asarray(r, dtype=float)
    n = len(r)

    def oracle(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        npts = len(pts)
        theta = pts / r
        ch, sh = np.cosh(theta), np.sinh(theta)
        f = np.zeros((npts, 2 * n))
        df = np.zeros((npts, n, 2 * n))
        d2f = np.zeros((npts, n, n, 2 * n))
        for j in range(n):
            x, y = (ch, sh) if eps[j] == 1 else (sh, ch)
            f[:, 2 * j] = r[j] * x[:, j]
            f[:, 2 * j + 1] = r[j] * y[:, j]
            df[:, j, 2 * j] = y[:, j]
            df[:, j, 2 * j + 1] = x[:, j]
            d2f[:, j, j, 2 * j] = x[:, j] / r[j]
            d2f[:, j, j, 2 * j + 1] = y[:, j] / r[j]
        return f, df, d2f

    def d3f(points):
        theta = np.atleast_2d(np.asarray(points, dtype=float)) / r
        ch, sh = np.cosh(theta), np.sinh(theta)
        out = np.zeros((len(theta), n, n, n, 2 * n))
        for j in range(n):
            x, y = (ch, sh) if eps[j] == 1 else (sh, ch)
            out[:, j, j, j, 2 * j] = y[:, j] / r[j] ** 2
            out[:, j, j, j, 2 * j + 1] = x[:, j] / r[j] ** 2
        return out

    comps = []
    for j in range(n):
        if eps[j] == 1:
            comps.append(lambda S, j=j: jcosh(S[j] / r[j]) * r[j])
            comps.append(lambda S, j=j: jsinh(S[j] / r[j]) * r[j])
        else:
            comps.append(lambda S, j=j: jsinh(S[j] / r[j]) * r[j])
            comps.append(lambda S, j=j: jcosh(S[j] / r[j]) * r[j])
    return oracle, d3f, comps


def _plane_reference(n):
    def oracle(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        npts = len(pts)
        f = np.zeros((npts, 2 * n))
        f[:, 0::2] = pts
        df = np.zeros((npts, n, 2 * n))
        for j in range(n):
            df[:, j, 2 * j] = 1.0
        d2f = np.zeros((npts, n, n, 2 * n))
        return f, df, d2f

    def d3f(points):
        return np.zeros((len(np.atleast_2d(points)), n, n, n, 2 * n))

    return oracle, d3f, None


def _components_oracle(comps, points):
    """The dual-number oracle of ``chart_from_components`` on a component list."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    seeds = Jet2.variables(pts)
    jets = [comp(seeds) for comp in comps]
    return (
        np.stack([j.val for j in jets], axis=-1),
        np.stack([j.grad for j in jets], axis=-1),
        np.stack([j.hess for j in jets], axis=-1),
    )


def _same_bits(got, want):
    """Equal arrays with equal signs of zero."""
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def _points(n):
    rng = np.random.default_rng(12)
    return np.vstack([np.zeros((1, n)), rng.uniform(-3.0, 3.0, size=(40, n))])


CASES = [
    ("torus", lambda **kw: make_torus((1.0, 1.7, 3.0), 1, **kw), _torus_reference((1.0, 1.7, 3.0)), 3),
    (
        "hyperbola",
        lambda **kw: make_hyperbola_product((1.0, 3.0, 0.7), (1, -1, 1), **kw),
        _hyperbola_reference((1.0, 3.0, 0.7), (1, -1, 1)),
        3,
    ),
    ("plane-p1", lambda **kw: make_lagrangian_plane(2, p=1, **kw), _plane_reference(2), 2),
    ("plane-para", lambda **kw: make_lagrangian_plane(2, para=True, **kw), _plane_reference(2), 2),
]


@pytest.mark.parametrize("label,make,reference,n", CASES, ids=[c[0] for c in CASES])
def test_closed_form_charts_match_the_hand_written_oracles_bitwise(label, make, reference, n):
    oracle, d3f, _ = reference
    chart = make()
    pts = _points(n)
    for got, want in zip(chart.oracle(pts), oracle(pts)):
        assert _same_bits(got, want)
    assert _same_bits(chart.d3f(pts), d3f(pts))
    assert chart.geometry_is_constant


@pytest.mark.parametrize("label,make,reference,n", CASES[:2], ids=[c[0] for c in CASES[:2]])
def test_dual_number_charts_match_the_hand_written_components_bitwise(label, make, reference, n):
    _, _, comps = reference
    chart = make(oracle="dual_number")
    pts = _points(n)
    for got, want in zip(chart.oracle(pts), _components_oracle(comps, pts)):
        assert _same_bits(got, want)
    assert chart.d3f is None
    assert chart.geometry_is_constant


@pytest.mark.parametrize(
    "make",
    [
        lambda oracle: make_torus((1.0, 2.0), 1, oracle=oracle),
        lambda oracle: make_hyperbola_product((1.0, 2.0), (1, -1), oracle=oracle),
    ],
    ids=["torus", "hyperbola"],
)
@pytest.mark.parametrize("oracle", ["dual-number", "jet", "closed"])
def test_unknown_oracle_is_rejected(make, oracle):
    with pytest.raises(ValueError, match="closed_form.*dual_number"):
        make(oracle)


def test_para_plane_rejects_p():
    with pytest.raises(ValueError, match="takes no p"):
        make_lagrangian_plane(2, p=1, para=True)
    assert make_lagrangian_plane(2, p=0, para=True).name == "plane:n=2,amb=para"
    with pytest.raises(CatalogIdError):
        resolve("plane:n=2,p=1,amb=para")
