import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab import testfunctions
from hamstab.analyzer import witness_library
from hamstab.catalog import default_catalog_ids, resolve
from hamstab.immersion import AxisDomain
from hamstab.quadrature import GridSpec, build_grid
from hamstab.testfunctions import (
    AnisotropicGaussian,
    AxisScaled,
    Const1D,
    Cos1D,
    Gauss1D,
    HermGauss1D,
    LinComb,
    PlaneWaveCos,
    PolyGauss1D,
    Scaled1D,
    Separable,
    compatible_with,
    isotropic_rescale,
    jet_coordinates,
    jet_orders,
    random_bump_poly,
    random_trig_poly,
)

from helpers import reference_separable_jet, same_bits


def fd_check(u, pts, rtol=1e-6):
    """Jets against central finite differences (independent oracle)."""
    val, grad, hess = u.jet(pts)
    h = 1e-5
    n = pts.shape[1]
    for idx, pt in enumerate(pts):
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            vp = u.jet((pt + e)[None, :])[0][0]
            vm = u.jet((pt - e)[None, :])[0][0]
            assert grad[idx, i] == pytest.approx((vp - vm) / (2 * h), rel=rtol, abs=1e-7)
            assert hess[idx, i, i] == pytest.approx(
                (vp - 2 * val[idx] + vm) / h**2, rel=1e-3, abs=1e-4
            )


@pytest.mark.parametrize(
    "u",
    [
        Separable([Cos1D(2.0, 0.3), Gauss1D(1.2)]),
        Separable([HermGauss1D(2, 1.0), PolyGauss1D([0.5, -1.0, 0.2], 1.5)]),
        PlaneWaveCos([1.0, -2.0], 0.7),
        AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]]),
    ],
)
def test_jets_match_finite_differences(u):
    rng = np.random.default_rng(5)
    fd_check(u, rng.uniform(-1.0, 1.0, size=(5, 2)))


def test_separable_three_factors():
    u = Separable([Gauss1D(1.0), Cos1D(1.0), Gauss1D(2.0)])
    rng = np.random.default_rng(6)
    fd_check(u, rng.uniform(-0.8, 0.8, size=(4, 3)))


def test_axis_scaled_jets():
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    u = AxisScaled(base, [2.0, 0.5], prefactor=3.0)
    pts = np.array([[0.3, -0.6]])
    val, grad, hess = u.jet(pts)
    bv, bg, bh = base.jet(pts * [2.0, 0.5])
    assert val[0] == pytest.approx(3.0 * bv[0])
    assert np.allclose(grad[0], 3.0 * bg[0] * [2.0, 0.5])
    assert hess[0, 0, 1] == pytest.approx(3.0 * bh[0, 0, 1] * 2.0 * 0.5)
    assert u.axis_boxes[0] == pytest.approx(base.axis_boxes[0] / 2.0)


def test_isotropic_rescale_prefactor():
    base = Separable([Gauss1D(1.0), Gauss1D(1.0)])
    u = isotropic_rescale(base, 4.0)
    # n = 2: prefactor t^(n/2 - 1) = 1
    assert u.prefactor == pytest.approx(1.0)
    base3 = Separable([Gauss1D(1.0)] * 3)
    u3 = isotropic_rescale(base3, 4.0)
    assert u3.prefactor == pytest.approx(2.0)


def test_lincomb_periods_and_boxes():
    a = Separable([Cos1D(1.0), Gauss1D(1.0)])
    b = Separable([Cos1D(2.0), Gauss1D(2.0)])
    lc = LinComb([(1.0, a), (-2.0, b)])
    # common period of 2 pi and pi is 2 pi; boxes take the max
    assert lc.axis_periods[0] == pytest.approx(2 * np.pi)
    assert lc.axis_boxes[1] == pytest.approx(20.0)
    pts = np.array([[0.4, -0.2]])
    va, _, _ = a.jet(pts)
    vb, _, _ = b.jet(pts)
    vl, _, _ = lc.jet(pts)
    assert vl[0] == pytest.approx(va[0] - 2 * vb[0])


def test_compact_support_declaration():
    # at the declared box the Gaussian and its listed partials are below 1e-14
    g = Gauss1D(1.0)
    edge = np.array([[g.box]])
    val, grad, hess = Separable([g]).jet(edge)
    assert abs(val[0]) <= 1e-14
    assert abs(grad[0, 0]) <= 1e-14
    assert abs(hess[0, 0, 0]) <= 1e-14


def test_compatibility_rules():
    circle = AxisDomain.circle(2 * np.pi)
    line = AxisDomain.line(30.0)
    u = Separable([Cos1D(2.0), Gauss1D(1.0)])  # period pi divides 2 pi
    assert compatible_with(u, (circle, line))
    # a bump is not periodic: rejected on a circle axis
    assert not compatible_with(Separable([Gauss1D(1.0), Gauss1D(1.0)]), (circle, line))
    # period that does not divide the circumference
    assert not compatible_with(Separable([Cos1D(0.7), Gauss1D(1.0)]), (circle, line))
    # box exceeding the line truncation
    assert not compatible_with(Separable([Cos1D(1.0), Gauss1D(10.0)]), (circle, line))
    # constants are fine on circles but not on lines
    assert compatible_with(Separable([Const1D(), Gauss1D(1.0)]), (circle, line))
    assert not compatible_with(Separable([Cos1D(1.0), Const1D()]), (circle, line))


def test_anisotropic_gaussian_boxes_follow_marginals():
    A = np.array([[1.0, 0.0], [0.0, 1.0 / 9.0]])
    u = AnisotropicGaussian(A)
    assert u.axis_boxes[0] == pytest.approx(10.0)
    assert u.axis_boxes[1] == pytest.approx(30.0)
    with pytest.raises(ValueError):
        AnisotropicGaussian([[1.0, 2.0], [2.0, 1.0]])  # indefinite


def test_random_families_respect_domains():
    rng = np.random.default_rng(11)
    u = random_trig_poly([2 * np.pi, 4 * np.pi], rng)
    assert u.compatible_terms((AxisDomain.circle(2 * np.pi), AxisDomain.circle(4 * np.pi)))
    b = random_bump_poly(2, rng)
    assert compatible_with(b, (AxisDomain.line(), AxisDomain.line()))


def test_operator_sugar():
    a = Separable([Gauss1D(1.0)])
    b = Separable([HermGauss1D(1, 1.0)])
    pts = np.array([[0.2]])
    va = a.jet(pts)[0][0]
    vb = b.jet(pts)[0][0]
    assert (a + b).jet(pts)[0][0] == pytest.approx(va + vb)
    assert (a - b).jet(pts)[0][0] == pytest.approx(va - vb)
    assert (2.5 * a).jet(pts)[0][0] == pytest.approx(2.5 * va)


@st.composite
def plane_waves(draw):
    n = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    scale = draw(st.floats(0.5, 2.0))
    phase = draw(st.floats(-10.0, 10.0))
    return PlaneWaveCos([k * scale for k in ks], phase)


@settings(deadline=None, max_examples=200)
@given(plane_waves(), st.integers(0, 2**32 - 1))
def test_plane_wave_separable_terms_reproduce_the_jet(u, seed):
    terms = u.separable_terms()
    nonzero = int(np.count_nonzero(u.freqs))
    assert 1 <= len(terms) <= 2**nonzero
    if u.phase == 0.0 and nonzero:
        assert len(terms) == 2 ** (nonzero - 1)
    pts = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, size=(20, u.n))
    expanded = LinComb([(c, Separable(factors)) for c, factors in terms]).jet(pts)
    # rel 1e-13 of the largest value the coordinate can take: 1, |m|, |m|^2
    top = max(1.0, float(np.max(np.abs(u.freqs))))
    for order, (got, want) in enumerate(zip(expanded, u.jet(pts))):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * top**order, (order, u.freqs, u.phase)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_scaled_gaussian_terms_match_its_jet(n, seed):
    # random SPD A and center, unequal scales in [1/4, 4] and a prefactor;
    # points within two marginal widths of the scaled center
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    base = AnisotropicGaussian(m @ m.T + 0.1 * np.eye(n), center=rng.uniform(-2.0, 2.0, n))
    u = AxisScaled(base, 4.0 ** rng.uniform(-1.0, 1.0, n), rng.uniform(-3.0, 3.0))
    A, center, K = u.gaussian_terms()
    widths = np.sqrt(np.diag(np.linalg.inv(A)))
    pts = center + rng.uniform(-2.0, 2.0, size=(30, n)) * widths
    t = pts - center
    monomials = np.prod(t[:, None, :] ** jet_orders(n), axis=2)
    gauss = np.exp(-0.5 * np.einsum("ni,ij,nj->n", t, A, t))[:, None]
    got = gauss * (monomials @ K.T)
    want = jet_coordinates(u.jet(pts))
    assert got.shape == want.shape == (30, 1 + n + n * (n + 1) // 2)
    # each coordinate to 1e-14 of its largest rounding scale over the points:
    # the magnitudes u |K| |m(t)| of the polynomial's terms, times 1 plus the
    # magnitude |t|^T |A| |t| / 2 of the exponent's, whose rounding is
    # relative in u
    exponent = 0.5 * np.einsum("ni,ij,nj->n", np.abs(t), np.abs(A), np.abs(t))
    scale = np.max(gauss * (np.abs(monomials) @ np.abs(K.T)) * (1.0 + exponent[:, None]), axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_only_gaussians_and_their_dilations_report_gaussian_terms():
    gauss = AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]])
    assert AxisScaled(gauss, [2.0, 0.5]).gaussian_terms() is not None
    for u in (Separable([Gauss1D(1.0), Gauss1D(1.0)]), AxisScaled(PlaneWaveCos([1.0, 1.0]), [2.0, 1.0]), gauss + gauss):
        assert u.gaussian_terms() is None


def test_poly_gauss_jets_equal_numpy_polynomial_bit_for_bit():
    # the coefficient-array arithmetic is what np.polynomial.Polynomial
    # calls, and its evaluation maps -0.0 to +0.0 as Polynomial's domain map does
    x = np.array([-0.0, 0.0, -2.5, -0.3, 0.7, 3.0, 12.0])
    rng = np.random.default_rng(8)
    for degree in range(6):
        for coeffs in (np.polynomial.hermite_e.herme2poly([0.0] * degree + [1.0]), rng.uniform(-2, 2, degree + 1)):
            for sigma in (0.4, 1.0, 2.5):
                p = np.polynomial.Polynomial(coeffs)
                x_over = np.polynomial.Polynomial([0.0, 1.0 / sigma**2])
                p1 = p.deriv() - p * x_over
                p2 = p1.deriv() - p1 * x_over
                g = np.exp(-0.5 * x * x / sigma**2)
                want = [p(x) * g, p1(x) * g, p2(x) * g]
                first, second = PolyGauss1D(coeffs, sigma), PolyGauss1D(coeffs, sigma)
                for f in (first, second):
                    got = f.jet1(x)
                    assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (degree, coeffs, sigma)
                    for a in (f.p, f.p1, f.p2):
                        assert not a.flags.writeable
                assert second.p2 is first.p2


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0])), min_size=1, max_size=8),
    st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])), min_size=1, max_size=16),
)
def test_horner_equals_polyval_bit_for_bit(coeffs, points):
    # PolyGauss1D's inlined evaluation takes polyval's own steps: the same
    # values, the same signs of zero, the same overflows
    c, x = np.array(coeffs), np.array(points)
    with np.errstate(all="ignore"):
        got, want = testfunctions._horner(c, x), np.polynomial.polynomial.polyval(x, c)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# one factor of every Func1D kind; zeros of the factors and their
# derivatives (Gauss1D's d1 at its center, Const1D's derivatives) carry signs
FACTOR_KINDS = [
    Const1D(),
    Const1D(-0.5),
    Cos1D(2.0, 0.3),
    Gauss1D(0.8),
    Gauss1D(1.5, center=-0.25),
    PolyGauss1D([0.5, -1.0, 0.0, 2.0], 1.3),
    HermGauss1D(3, 0.9),
    Scaled1D(Gauss1D(1.0), 1.7),
    Scaled1D(Cos1D(1.0, -np.pi / 2), 0.6),
]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_separable_jet_equals_the_dense_product_loop_bit_for_bit(n):
    # points with signed zeros, the Gaussians' centers and far tails where
    # the factors underflow to zero
    rng = np.random.default_rng(n)
    pts = rng.uniform(-4.0, 4.0, (48, n))
    pts[rng.random(pts.shape) < 0.1] = 0.0
    pts[rng.random(pts.shape) < 0.1] = -0.0
    pts[rng.random(pts.shape) < 0.05] = -0.25
    pts[rng.random(pts.shape) < 0.05] = 40.0
    combos = list(itertools.product(FACTOR_KINDS, repeat=n)) if n <= 2 else [
        [FACTOR_KINDS[i] for i in rng.integers(len(FACTOR_KINDS), size=n)] for _ in range(60)
    ]
    for factors in combos:
        u = Separable(factors)
        assert same_bits(u.jet(pts), reference_separable_jet(factors, pts))
        assert same_bits(u.jet(pts[0]), reference_separable_jet(factors, pts[:1]))


def test_open_mesh_jets_equal_dense_points_for_every_library_probe():
    # every Separable probe of the catalog's witness libraries, on blocks
    # with two, one and no leading axes, and on the whole mesh in one block
    spec = GridSpec(circle_nodes=8, line_nodes=8)
    probes = 0
    for cid in default_catalog_ids():
        domains = resolve(cid).functional.domains
        for u in witness_library(domains):
            if not isinstance(u, Separable):
                continue
            probes += 1
            grid = build_grid(domains, spec, u.axis_boxes)
            for rows in (20, grid.size):
                for pts, _, _, axes in grid._slabs(rows):
                    assert same_bits(u.jet_axes(axes), reference_separable_jet(u.factors, pts)), (cid, u.label, rows)
    assert probes == 228


def test_default_open_mesh_jet_is_the_jet_of_the_mesh_points():
    u = AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]])
    axes = [np.array([[-0.5], [0.0], [1.25]]), np.array([[0.5, -2.0]])]
    # the open mesh's points in C order: the last axis fastest
    pts = np.array([[-0.5, 0.5], [-0.5, -2.0], [0.0, 0.5], [0.0, -2.0], [1.25, 0.5], [1.25, -2.0]])
    assert same_bits(u.jet_axes(axes), u.jet(pts))


def test_equal_parameters_share_a_key_and_signed_zeros_do_not():
    # every kind keys on its class and parameters, floats by their bits
    equal = [
        (Const1D(-0.5), Const1D(-0.5)),
        (Cos1D(2.0, 0.3), Cos1D(2, 0.3)),
        (Gauss1D(1.5, center=-0.25), Gauss1D(1.5, -0.25)),
        (PolyGauss1D([0.5, -1.0, 0.0, 2.0], 1.3), PolyGauss1D(np.array([0.5, -1.0, 0.0, 2.0]), 1.3)),
        (HermGauss1D(3, 0.9), PolyGauss1D([0.0, -3.0, 0.0, 1.0], 0.9)),
        (Scaled1D(Gauss1D(1.0), 1.7), Scaled1D(Gauss1D(1.0), 1.7)),
    ]
    x = np.array([-3.0, -0.25, -0.0, 0.0, 0.5, 40.0])
    for f, g in equal:
        assert f is not g and f.key == g.key and hash(f.key) == hash(g.key)
        assert same_bits(f.jet1(x), g.jet1(x))
    apart = [
        (Const1D(0.0), Const1D(-0.0)),
        (Cos1D(1.0, 0.0), Cos1D(1.0, -0.0)),
        (Gauss1D(1.0, 0.0), Gauss1D(1.0, -0.0)),
        (PolyGauss1D([0.0, 1.0]), PolyGauss1D([-0.0, 1.0])),
        (Scaled1D(Cos1D(1.0, 0.0), 2.0), Scaled1D(Cos1D(1.0, -0.0), 2.0)),
        # equal parameters of different kinds
        (Gauss1D(1.0, 0.0), Cos1D(1.0, 0.0)),
        (Gauss1D(2.0), Scaled1D(Gauss1D(1.0), 0.5)),
        (PolyGauss1D([1.0], 2.0), Gauss1D(2.0)),
    ]
    for f, g in apart:
        assert f.key != g.key
    # a factor kind without a key leaves its dilations keyed by themselves
    assert Scaled1D(testfunctions.Func1D(), 2.0).key is None
