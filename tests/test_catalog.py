import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab.catalog import (
    TUBE_ROWS,
    CatalogIdError,
    CurveData,
    default_catalog_ids,
    make_geodesic_tube,
    make_hyperbola_product,
    make_rank_one_bundle,
    make_torus,
    resolve,
)
from hamstab.immersion import check_h_minimal, induced_geometry, induced_geometry_batch, sample_grid
from hamstab.testfunctions import jet_from_coordinates
from hamstab.variation import SOS_RESIDUAL_TOL, SecondVariationFunctional, _jet_form, _sum_of_squares, sos_certificate

from helpers import hyperbola_reference_squares, plane_reference_squares


def test_unit_circle_chart():
    chart = make_torus((1.0,), 0)
    geo = induced_geometry(chart, [0.5])
    assert geo.g[0, 0] == pytest.approx(1.0)
    assert geo.nH_cov[0] == pytest.approx(1.0)
    assert chart.domains[0].kind == "circle"
    assert chart.domains[0].size == pytest.approx(2 * np.pi)


def test_torus_metric_signs():
    chart = make_torus((1.0, 2.0), 1)
    geo = induced_geometry(chart, [0.1, 0.2])
    assert np.allclose(geo.g, np.diag([-1.0, 1.0]), atol=1e-14)
    assert check_h_minimal(chart) <= 1e-10


def test_torus_validation():
    with pytest.raises(ValueError):
        make_torus((1.0, -1.0), 0)
    with pytest.raises(ValueError):
        make_torus((1.0,), 2)


def test_hyperbola_metric_signs():
    chart = make_hyperbola_product((1.0, 2.0), (1, -1))
    geo = induced_geometry(chart, [0.3, -0.7])
    assert np.allclose(geo.g, np.diag([-1.0, 1.0]), atol=1e-12)
    assert check_h_minimal(chart) <= 1e-9


def test_hyperbola_validation():
    with pytest.raises(ValueError):
        make_hyperbola_product((1.0,), (2,))
    with pytest.raises(ValueError):
        make_hyperbola_product((1.0, 1.0), (1,))


def test_catalog_charts_h_minimal_but_not_minimal():
    for cid in ("torus:n=2,r=1,2,p=1", "hyperbola:n=2,r=1,3,eps=+,+"):
        chart = resolve(cid).chart
        grid = sample_grid(chart)
        assert check_h_minimal(chart, grid) <= 1e-8
        h_cov = induced_geometry_batch(chart, grid)["nH_cov"]
        assert np.max(np.abs(h_cov)) > 0.1


# ------------------------------------------------------------ geodesic tubes

# The per-row displayed integrands, transcribed independently of the generic
# (e1..e4) encoding; these are the golden checks of that encoding.
_DISPLAYED = {
    ("S3", "closed-definite", "G"): lambda us, ut, uss, ust, utt: (uss + utt) ** 2 - 2 * (us**2 + ut**2),
    ("S3", "closed-definite", "Gprime"): lambda us, ut, uss, ust, utt: 4 * ust**2 + 2 * (us**2 + ut**2),
    ("dS3", "closed-definite", "G"): lambda us, ut, uss, ust, utt: -((-uss + utt) ** 2 - 2 * us**2 + 2 * ut**2),
    ("dS3", "closed-definite", "Gprime"): lambda us, ut, uss, ust, utt: 4 * ust**2 + 2 * us**2 - 2 * ut**2,
    ("dS3", "closed-indefinite", "G"): lambda us, ut, uss, ust, utt: (uss - utt) ** 2 - 2 * us**2 + 2 * ut**2,
    ("dS3", "closed-indefinite", "Gprime"): lambda us, ut, uss, ust, utt: -(4 * ust**2 + 2 * us**2 - 2 * ut**2),
    ("dS3", "unbounded-indefinite", "G"): lambda us, ut, uss, ust, utt: (-uss + utt) ** 2 + 2 * us**2 - 2 * ut**2,
    ("dS3", "unbounded-indefinite", "Gprime"): lambda us, ut, uss, ust, utt: -(4 * ust**2 - 2 * us**2 + 2 * ut**2),
    ("AdS3", "closed-indefinite", "G"): lambda us, ut, uss, ust, utt: -((uss + utt) ** 2 - 2 * us**2 - 2 * ut**2),
    ("AdS3", "closed-indefinite", "Gprime"): lambda us, ut, uss, ust, utt: -(4 * ust**2 + 2 * (us**2 + ut**2)),
    ("AdS3", "unbounded-indefinite", "G"): lambda us, ut, uss, ust, utt: -((uss + utt) ** 2 + 2 * (us**2 + ut**2)),
    ("AdS3", "unbounded-indefinite", "Gprime"): lambda us, ut, uss, ust, utt: -(4 * ust**2 - 2 * (us**2 + ut**2)),
    ("AdS3", "unbounded-definite", "G"): lambda us, ut, uss, ust, utt: (uss + utt) ** 2 + 2 * (us**2 + ut**2),
    ("AdS3", "unbounded-definite", "Gprime"): lambda us, ut, uss, ust, utt: 4 * ust**2 - 2 * (us**2 + ut**2),
    ("H3", "unbounded-definite", "G"): lambda us, ut, uss, ust, utt: -((uss - utt) ** 2 + 2 * us**2 - 2 * ut**2),
    ("H3", "unbounded-definite", "Gprime"): lambda us, ut, uss, ust, utt: 4 * ust**2 - 2 * us**2 + 2 * ut**2,
}


def _random_jets(rng, npts=40):
    pts = rng.uniform(-1, 1, size=(npts, 2))
    u = rng.uniform(-1, 1, size=npts)
    du = rng.uniform(-1, 1, size=(npts, 2))
    hess = rng.uniform(-1, 1, size=(npts, 2, 2))
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    return pts, (u, du, hess)


@pytest.mark.parametrize("row", TUBE_ROWS, ids=lambda t: f"{t.space}-{t.row_key}")
@pytest.mark.parametrize("metric", ["G", "Gprime"])
def test_tube_integrands_match_displayed_forms(row, metric):
    functional = make_geodesic_tube(row.space, row.row_key, metric)
    displayed = _DISPLAYED[(row.space, row.row_key, metric)]
    rng = np.random.default_rng(17)
    pts, jets = _random_jets(rng)
    got = functional.integrand(pts, jets)
    _, du, hess = jets
    want = displayed(du[:, 0], du[:, 1], hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_tube_sign_tuple_consistency():
    # e4 = e1 e2 e3 holds on every row (the two overall signs are e1*e3, e1*e2)
    for t in TUBE_ROWS:
        e1, e2, e3, e4 = t.eps_tuple
        assert e4 == e1 * e2 * e3


def test_tube_domain_topology():
    expected = {
        ("S3", "closed-definite"): ("circle", "circle"),
        ("AdS3", "closed-indefinite"): ("circle", "circle"),
        ("dS3", "closed-definite"): ("circle", "line"),
        ("dS3", "closed-indefinite"): ("circle", "line"),
        ("dS3", "unbounded-indefinite"): ("line", "circle"),
        ("H3", "unbounded-definite"): ("line", "circle"),
        ("AdS3", "unbounded-indefinite"): ("line", "line"),
        ("AdS3", "unbounded-definite"): ("line", "line"),
    }
    for t in TUBE_ROWS:
        functional = make_geodesic_tube(t.space, t.row_key, "G")
        kinds = tuple(d.kind for d in functional.domains)
        assert kinds == expected[(t.space, t.row_key)]
        assert ("torus" if kinds == ("circle", "circle") else
                "plane" if kinds == ("line", "line") else "cylinder") == t.topology


def test_tube_row_selectors():
    # numeric space forms are accepted
    f = make_geodesic_tube(0, "closed", "G")
    assert f.name == "tube:S3:closed-definite:G"
    # ambiguous selector on dS3
    with pytest.raises(CatalogIdError, match="matches 2 rows"):
        make_geodesic_tube("dS3", "closed", "G")
    with pytest.raises(CatalogIdError):
        make_geodesic_tube("dS3", "spacelike", "G")
    with pytest.raises(CatalogIdError):
        make_geodesic_tube("S3", "closed", "H")
    with pytest.raises(CatalogIdError):
        make_geodesic_tube(7, "closed", "G")


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_functional_quadratic_homogeneity(c):
    functional = make_geodesic_tube("S3", "closed", "G")
    rng = np.random.default_rng(23)
    pts, (u, du, hess) = _random_jets(rng, npts=8)
    base = functional.integrand(pts, (u, du, hess))
    scaled = functional.integrand(pts, (c * u, c * du, c * hess))
    assert np.allclose(scaled, c * c * base, rtol=1e-12, atol=1e-9)


# -------------------------------------------------------- rank-one surfaces

def test_rank_one_geodesic_hyperbolic_base():
    functional = make_rank_one_bundle(CurveData(kappa=0.0, K_along=-1.0))
    rng = np.random.default_rng(19)
    pts, jets = _random_jets(rng)
    vals = functional.integrand(pts, jets)
    _, du, hess = jets
    assert np.allclose(vals, 4 * hess[:, 0, 1] ** 2 + 2 * du[:, 1] ** 2, atol=1e-12)
    assert np.all(vals >= 0)


def test_rank_one_circle_domains():
    length = 2 * np.pi
    functional = make_rank_one_bundle(CurveData(kappa=1.0, K_along=0.0, closed=True, length=length))
    assert functional.domains[0].kind == "circle"
    assert functional.domains[0].size == pytest.approx(length)
    assert functional.domains[1].kind == "line"


def test_rank_one_nonzero_profile_warns_and_changes_integrand():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        functional = make_rank_one_bundle(CurveData(kappa=1.0, K_along=0.0, a_profile=0.5))
    assert any("tangential profile" in str(w.message) for w in caught)
    rng = np.random.default_rng(29)
    pts, jets = _random_jets(rng)
    _, du, hess = jets
    got = functional.integrand(pts, jets)
    lap = 2 * hess[:, 0, 1] - 2 * 0.5 * 1.0 * hess[:, 1, 1]
    want = lap**2 - 1.0 * du[:, 1] ** 2
    assert np.allclose(got, want, atol=1e-12)


def test_rank_one_profile_away_from_the_origin_uses_the_full_form():
    # a profile that vanishes to rounding on [-10, 10] still changes the form at s = 30
    curve = CurveData(kappa=1.0, K_along=0.0, a_profile=lambda s: np.exp(-((s - 30.0) ** 2)))
    with pytest.warns(UserWarning, match="tangential profile"):
        functional = make_rank_one_bundle(curve)
    jet = (np.zeros(1), np.array([[0.0, 1.0]]), np.array([[[0.0, 1.0], [1.0, 1.0]]]))
    # (2 u_st - 2 a kappa u_tt)^2 - (kappa^2 + 2K) u_t^2 = 0 - 1, not 4 u_st^2 - u_t^2 = 3
    assert functional.integrand(np.array([[30.0, 0.0]]), jet) == pytest.approx([-1.0])
    assert functional.jet_form is None


# Every closed-form functional whose weights and coefficients are numbers.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    CONSTANT_CLOSED_FORMS = (
        [make_geodesic_tube(t.space, t.row_key, m) for t in TUBE_ROWS for m in ("G", "Gprime")]
        + [resolve(cid).functional for cid in default_catalog_ids() if cid.startswith("tn:")]
        + [make_rank_one_bundle(CurveData(kappa=1.5, K_along=-0.5, a_profile=0.5))]
    )


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CONSTANT_CLOSED_FORMS), st.integers(0, 2**32 - 1))
def test_closed_form_integrand_is_its_jet_form(functional, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-20.0, 20.0, size=(16, 2))
    coords = rng.standard_normal((16, 6)) * rng.choice([1e-3, 1.0, 1e3], size=(16, 1))
    form = functional.jet_form
    got = functional.integrand(pts, jet_from_coordinates(coords, 2))
    want = np.einsum("np,pq,nq->n", coords, form, coords)
    scale = np.einsum("np,pq,nq->n", np.abs(coords), np.abs(form), np.abs(coords))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), functional.name


def _reference_squares(entry):
    """The closed-form squares of a hyperbola product with n <= 2 or of a
    plane, None for other entries."""
    if entry.kind == "hyperbola" and entry.params["n"] <= 2:
        return hyperbola_reference_squares(entry.params["radii"], entry.params["eps"])
    return plane_reference_squares(entry.chart) if entry.kind == "plane" else None


def _jet_form_cases():
    """(name, quadratic, jet form, domains) of every catalog functional and of
    every closed-form reference; a quadratic maps points and jets to
    values."""
    cases = []
    for cid in default_catalog_ids():
        entry = resolve(cid)
        functional, reference = entry.functional, _reference_squares(entry)
        assert functional.jet_form is not None, cid
        cases.append((cid, functional.integrand, functional.jet_form, functional.domains))
        if reference is not None:
            cases.append((f"{cid}|reference", partial(_sum_of_squares, reference), _jet_form(reference), functional.domains))
    return cases


REFERENCE_IDS = [cid for cid in default_catalog_ids() if _reference_squares(resolve(cid)) is not None]


def _assert_reference_form(functional, reference) -> None:
    form = functional.jet_form
    residual = np.max(np.abs(form - _jet_form(reference))) / max(1.0, np.max(np.abs(form)))
    assert residual <= SOS_RESIDUAL_TOL, (functional.chart.name, residual)


@pytest.mark.parametrize("cid", REFERENCE_IDS)
def test_chart_jet_form_is_the_closed_form_sum_of_squares(cid):
    # the chart pipeline (geometry, cubic term, Laplacian squares) against
    # -(e1 u_ss + e2 u_tt)^2 - (e1 u_s/r1 - e2 u_t/r2)^2 and eps (lap u)^2
    assert len(REFERENCE_IDS) == 7
    entry = resolve(cid)
    _assert_reference_form(entry.functional, _reference_squares(entry))


@settings(deadline=None, max_examples=25)
@given(
    radii=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=2),
    signs=st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2),
)
def test_hyperbola_jet_form_is_the_closed_form_sum_of_squares_for_any_radii(radii, signs):
    eps = signs[: len(radii)]
    chart = make_hyperbola_product(radii, eps)
    _assert_reference_form(SecondVariationFunctional(chart), hyperbola_reference_squares(radii, eps))


@pytest.mark.parametrize("case", _jet_form_cases(), ids=lambda case: case[0])
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_jet_form_is_the_integrand_and_its_polarization(case, seed):
    # V(j) = j^T M j and (V(j + k) - V(j - k)) / 4 = j^T M k at random points
    # and jets, to rounding of the sums |j|^T |M| |k|
    name, quadratic, form, domains = case
    rng = np.random.default_rng(seed)
    n = len(domains)
    pts = np.column_stack(
        [rng.uniform(0.0, d.size, 16) if d.kind == "circle" else rng.uniform(-20.0, 20.0, 16) for d in domains]
    )
    j, k = rng.standard_normal((2, 16, len(form)))

    def value(coords):
        return quadratic(pts, jet_from_coordinates(coords, n))

    def pair(a, b):
        return np.einsum("np,pq,nq->n", a, form, b)

    def tol(a, b):
        return 1e-12 * np.einsum("np,pq,nq->n", np.abs(a), np.abs(form), np.abs(b))

    assert np.all(np.abs(value(j) - pair(j, j)) <= tol(j, j)), name
    both = np.abs(j) + np.abs(k)
    assert np.all(np.abs((value(j + k) - value(j - k)) / 4 - pair(j, k)) <= tol(both, both)), name


def test_point_dependent_rank_one_curve_has_no_jet_form():
    for curve in (
        CurveData(kappa=lambda s: 1.0 + 0.1 * np.sin(s), K_along=0.0),
        CurveData(kappa=1.0, K_along=lambda s: -np.cos(s) ** 2),
    ):
        assert make_rank_one_bundle(curve).jet_form is None


def test_tube_and_tn_are_certified_exactly_under_their_stated_conditions():
    # a tube row when its three weights share a sign; a rank-one curve when
    # kappa^2 + 2K < 0, or = 0 on an open curve
    for t in TUBE_ROWS:
        for metric in ("G", "Gprime"):
            entry = resolve(f"tube:{t.space}:{t.row_key}:{metric}")
            same_sign = len({np.sign(term.weight) for term in entry.functional.terms}) == 1
            assert (entry.default_strategy == "sos_certificate") == same_sign, entry.catalog_id
    for closed in (False, True):
        tail = f",L={2 * np.pi:.17g}" if closed else ""
        for kappa in (0.0, 0.5, 1.0):
            for K in (-1.0, -0.5, -0.125, 0.0, 0.5):
                entry = resolve(f"tn:kappa={kappa:g},K={K:g}{tail}")
                coeff = kappa**2 + 2 * K
                certified = coeff < 0 or (coeff == 0 and not closed)
                assert (entry.default_strategy == "sos_certificate") == certified, entry.catalog_id


def test_curve_data_validation():
    with pytest.raises(ValueError, match="length"):
        CurveData(kappa=1.0, K_along=0.0, closed=True)
    with pytest.raises(ValueError, match="periodic"):
        CurveData(kappa=lambda s: s, K_along=0.0, closed=True, length=1.0)
    with pytest.raises(ValueError, match="periodic"):
        CurveData(kappa=1.0, K_along=0.0, closed=True, length=1.0, a_profile=lambda s: s)
    # periodic callables pass
    CurveData(kappa=lambda s: np.cos(2 * np.pi * s), K_along=0.0, closed=True, length=1.0)


# ------------------------------------------------------------------ registry

def test_resolve_round_trip():
    entry = resolve("torus:n=2,r=1,2,p=1")
    assert entry.kind == "torus"
    assert entry.params == {"n": 2, "radii": [1.0, 2.0], "p": 1}
    entry = resolve("hyperbola:n=2,r=1,3,eps=+,+")
    assert entry.params["eps"] == [1, 1]
    entry = resolve("tube:AdS3:closed-indefinite:Gprime")
    cert = sos_certificate(entry.functional.jet_form, entry.functional.domains)
    assert cert.definite and cert.sign == -1 and entry.certificate is None
    entry = resolve("plane:n=2,amb=para")
    assert entry.params["para"] is True


@pytest.mark.parametrize(
    "bad",
    [
        "bogus:x=1",
        "torus:n=2,r=1,p=1",            # wrong radius count
        "torus:n=2,r=1,2,p=1,q=3",      # unknown key
        "torus:n=2,r=1,2",              # missing p
        "torus:n=2,r=1,2,p=1,p=2",      # duplicate key
        "hyperbola:n=2,r=1,1,eps=+,0",  # bad sign
        "plane:n=2,p=1,amb=para",       # p with para
        "plane:n=2,amb=euclidean",      # bad amb value
        "tube:S3:closed",               # missing metric
        "tn:kappa=1",                   # missing K
        "torus:r=1,n=1,p=0,extra",      # stray value
    ],
)
def test_resolve_rejects_malformed_ids(bad):
    with pytest.raises(CatalogIdError):
        resolve(bad)


def test_default_catalog_ids_resolve():
    ids = default_catalog_ids()
    assert len(ids) >= 30
    for cid in ids:
        entry = resolve(cid)
        assert entry.functional is not None


def test_default_strategies():
    assert resolve("torus:n=2,r=1,1,p=1").default_strategy == "fourier_sweep"
    assert resolve("hyperbola:n=2,r=1,3,eps=+,+").default_strategy == "sos_certificate"
    assert resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+").default_strategy == "scaling_probe"
    assert resolve("tube:S3:closed:G").default_strategy == "spectral_criterion"
    assert resolve("tube:S3:closed:Gprime").default_strategy == "sos_certificate"
    assert resolve("tube:AdS3:unbounded-definite:Gprime").default_strategy == "scaling_probe"
    assert resolve("tn:kappa=0,K=-1").default_strategy == "sos_certificate"
    assert resolve("tn:kappa=1,K=0").default_strategy == "scaling_probe"
