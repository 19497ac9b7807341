"""Witness values and polarized forms from one block jet Gram or one mesh
walk per box set, against the per-probe and per-pair integrations they
replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab import analyzer, catalog, quadrature, variation
from hamstab.analyzer import assemble_form, classify, compute_tube_table, witness_library
from hamstab.catalog import default_catalog_ids, resolve
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
    Separable,
    random_bump_poly,
    random_trig_poly,
)
from hamstab.variation import SecondVariationFunctional, _functional_form, _pair_values, evaluate_functional, jet_field

from helpers import form_rounding_scale, gradient_graph_chart, minimal_null_graph_chart, pair_values_by_identity

SMALL = GridSpec(circle_nodes=16, line_nodes=16)
# 8 nodes per axis on three and four axes keeps every reference mesh small
TINY = GridSpec(circle_nodes=8, line_nodes=8)
CONSTANT = [cid for cid in default_catalog_ids() if resolve(cid).functional.jet_form is not None]


def polarized(functional, basis, spec):
    """The reference: ``(V(u_a + u_b) - V(u_a - u_b)) / 4``, two evaluations
    per pair, and the direct value on the diagonal."""
    k = len(basis)
    Q = np.empty((k, k))
    for a in range(k):
        Q[a, a] = evaluate_functional(functional, basis[a], spec)
        for b in range(a + 1, k):
            plus = evaluate_functional(functional, LinComb([(1.0, basis[a]), (1.0, basis[b])]), spec)
            minus = evaluate_functional(functional, LinComb([(1.0, basis[a]), (-1.0, basis[b])]), spec)
            Q[a, b] = Q[b, a] = 0.25 * (plus - minus)
    return Q


def sum_scale(functional, u, v, spec):
    """The rounding scale of ``V(u + v)`` on its own grid."""
    w = LinComb([(1.0, u), (1.0, v)])
    return form_rounding_scale(jet_field(functional.jet_form, w), functional.domains, spec, w.axis_boxes)[0]


def eigmix(Q, small):
    """The two probes the fourier sweep mixes from the polarized form."""
    _, vectors = np.linalg.eigh(Q)
    return [
        LinComb(list(zip(vectors[:, 0], small)), label="eigmix:low"),
        LinComb(list(zip(vectors[:, -1], small)), label="eigmix:high"),
    ]


def assert_pool_matches(entry, pool, spec):
    """``_sign_witnesses`` values and norms against one integration of
    ``[M, e0 e0^T]`` per probe on its own grid."""
    functional = entry.functional
    forms = np.array([functional.jet_form, analyzer._norm2_form(len(functional.domains))])
    got = _pair_values(functional.domains, pool, [(a, a, m) for a in range(len(pool)) for m in forms], spec)
    for a, u in enumerate(pool):
        field = jet_field(forms, u)
        want = quadrature.integrate(field, functional.domains, spec, boxes=u.axis_boxes)
        scale = form_rounding_scale(field, functional.domains, spec, u.axis_boxes)
        for value, ref, s in zip(got[2 * a : 2 * a + 2], want, scale):
            assert abs(value - ref) <= 1e-12 * s, (entry.catalog_id, u.label)
    assert analyzer._sign_witnesses(entry, pool, spec)[2] == got[::2]


@pytest.mark.parametrize("cid", CONSTANT)
def test_block_gram_matches_per_probe_and_per_pair_integrations(cid):
    entry = resolve(cid)
    functional = entry.functional
    spec = SMALL if len(functional.domains) <= 2 else TINY
    library = witness_library(functional.domains)
    assert_pool_matches(entry, library, spec)
    assert_pool_matches(entry, library[:3], spec)
    small = library[:8]
    Q = assemble_form(functional, small, spec)
    assert np.array_equal(Q, Q.T)
    ref = polarized(functional, small, spec)
    for a in range(len(small)):
        for b in range(a, len(small)):
            scale = sum_scale(functional, small[a], small[b], spec)
            assert abs(Q[a, b] - ref[a, b]) <= 1e-12 * scale, (cid, a, b)
    mix = eigmix(Q, small)
    assert_pool_matches(entry, mix, spec)
    Q2 = assemble_form(functional, mix, spec)
    assert abs(Q2[0, 1] - polarized(functional, mix, spec)[0, 1]) <= 1e-12 * sum_scale(functional, *mix, spec)


def _grouping_probes(periodic: bool, rng, picks) -> tuple:
    """Probes on two circles of length 2 pi (``periodic``) or two lines, one
    per pick: 0 a random trig or bump polynomial, 1 a library probe, 2 a
    dilation of the previous probe, 3 a product of new factors equal in
    value to factors of other probes."""
    domains = (AxisDomain.circle(2 * np.pi) if periodic else AxisDomain.line(),) * 2
    library = witness_library(domains)
    out = []
    for pick in picks:
        if pick == 0:
            u = random_trig_poly([2 * np.pi] * 2, rng) if periodic else random_bump_poly(2, rng)
        elif pick == 1:
            u = library[rng.integers(len(library))]
        elif pick == 2:
            # whole scales keep a dilation periodic on the circles
            scales = rng.integers(1, 3, size=2) if periodic else rng.uniform(0.5, 2.0, size=2)
            u = AxisScaled(out[-1] if out else library[0], scales, rng.uniform(-1.0, 1.0))
        elif periodic:
            u = Separable([Cos1D(float(rng.integers(1, 3))) if rng.random() < 0.7 else Const1D() for _ in range(2)])
        else:
            u = Separable([HermGauss1D(int(rng.integers(0, 4))) if rng.random() < 0.7 else Gauss1D(1.0) for _ in range(2)])
        out.append(u)
    return domains, out


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_value_keys_give_the_bits_of_identity_grouping(periodic, seed, picks):
    # one row per distinct value of a 1-D factor in the per-axis Grams gives
    # the same values, norms and polarized entries to the bit as one row
    # per factor object
    domains, probes = _grouping_probes(periodic, np.random.default_rng(seed), picks)
    form = resolve("torus:n=2,r=1,1,p=1" if periodic else "plane:n=2,p=1").functional.jet_form
    requests = [(a, a, m) for a in range(len(probes)) for m in (form, analyzer._norm2_form(2))]
    requests += [(a, a + 1, form) for a in range(len(probes) - 1)]
    got = _pair_values(domains, probes, requests, SMALL)
    want = pair_values_by_identity(domains, probes, requests, SMALL)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_a_group_without_a_closed_route_walks_each_pair(monkeypatch):
    # two non-diagonal Gaussians have no separable terms, and moments
    # integrate one probe only: the group walks the mesh once, and each form
    # sums its own j_a^T M j_b
    counts = CountingRoutes(monkeypatch)
    functional = resolve("plane:n=2,p=1").functional
    probes = [AnisotropicGaussian([[1.0, 0.3], [0.3, 0.8]]), AnisotropicGaussian([[0.7, -0.2], [-0.2, 1.2]], [0.3, 0.0])]
    boxes = tuple(max(x, y) for x, y in zip(*(u.axis_boxes for u in probes)))
    pairs = [(0, 0), (0, 1), (1, 1), (1, 0)]
    forms = np.array([functional.jet_form, functional.jet_form, analyzer._norm2_form(2), analyzer._norm2_form(2)])
    got = quadrature.integrate(jet_field(forms, *probes, pairs=pairs), functional.domains, SMALL, boxes=boxes)
    assert counts.calls == {"integrate": 1, "_sum_factorized": 0, "_walk_mesh": 1}
    for value, form, (a, b) in zip(got, forms, pairs):
        ref, scale = (
            quadrature.integrate(
                lambda pts: np.einsum("np,pq,nq->n", f(probes[a].jet_coords(pts)), f(form), f(probes[b].jet_coords(pts))),
                functional.domains,
                SMALL,
                boxes=boxes,
            )
            for f in (np.asarray, np.abs)
        )
        assert abs(value - ref) <= 1e-13 * scale, (a, b)


def _first_error(thunk) -> str:
    with pytest.raises(SupportError) as err:
        thunk()
    return str(err.value)


@pytest.mark.parametrize("cid", ["plane:n=2,p=0", "tube:AdS3:unbounded-definite:G", "hyperbola:n=3,r=1,1,1,eps=+,+,+"])
def test_a_cut_support_raises_the_same_error_as_one_probe_at_a_time(cid):
    entry = resolve(cid)
    functional = entry.functional
    pool = witness_library(functional.domains)
    # gauss1 fits a box of 6; the wider gauss4 does not
    for spec in (GridSpec(line_nodes=16, line_box=3.0), GridSpec(line_nodes=16, line_box=6.0)):
        forms = (functional.jet_form, analyzer._norm2_form(len(functional.domains)))
        want = _first_error(lambda: [_pair_values(functional.domains, [u], [(0, 0, m) for m in forms], spec) for u in pool])
        assert _first_error(lambda: analyzer._sign_witnesses(entry, pool, spec)) == want
        assert _first_error(lambda: classify(entry, "fourier_sweep", spec)) == want
        # the polarized form walks each pair's own field j_a^T M j_b, where
        # the old path walked u_a + u_b: the first probe that leaks raises
        # on the same axis
        got = _first_error(lambda: assemble_form(functional, pool[:8], spec))
        assert got.split(":")[0] == want.split(":")[0]


class CountingRoutes:
    """Counts ``integrate`` calls and the routes that finish them."""

    def __init__(self, monkeypatch):
        self.calls = {"integrate": 0, "_sum_factorized": 0, "_walk_mesh": 0}
        for name in self.calls:
            original = getattr(quadrature, name)
            monkeypatch.setattr(quadrature, name, self._counted(name, original))
        monkeypatch.setattr(analyzer, "integrate", quadrature.integrate)

    def _counted(self, name, original):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return counted


def test_fourier_sweep_integrates_once_per_box_set(monkeypatch):
    # 8 library probes with 8 box sets; the 8 x 8 polarized form's pairs take
    # the larger box per axis, another probe's box set, so they ride in the
    # same 8 sum factorizations; then the reference mesh for 3 tied values.
    # Probe by probe and pair by pair this took 8 + 8 + 2 * 28 sum
    # factorizations.
    counts = CountingRoutes(monkeypatch)
    verdict = classify(resolve("hyperbola:n=3,r=1,1,1,eps=+,+,+"), "fourier_sweep")
    assert verdict.witness_neg.probe_id == "gauss4xgauss1xgauss4"
    assert counts.calls == {"integrate": 11, "_sum_factorized": 8, "_walk_mesh": 3}


def test_catalog_verdicts_integrate_once_per_box_set(monkeypatch):
    # the benchmark's catalog loop: every entry with at most 2 axes under its
    # default strategy and the fourier sweep, then the tube table.  One
    # integration per probe and two per polarized pair took 568 sum
    # factorizations.
    counts = CountingRoutes(monkeypatch)
    for cid in default_catalog_ids():
        entry = resolve(cid)
        if len(entry.functional.domains) <= 2:
            for strategy in dict.fromkeys((entry.default_strategy, "fourier_sweep")):
                classify(entry, strategy)
    compute_tube_table()
    assert counts.calls == {"integrate": 171, "_sum_factorized": 137, "_walk_mesh": 34}


def test_a_derived_certificate_reads_the_functionals_jet_form(monkeypatch):
    # the certificate comes from the jet form built with the functional: no
    # jet form is built again
    built = []

    def counted(terms, points=None):
        built.append(terms)
        return original(terms, points)

    original = variation._jet_form
    entry = resolve("hyperbola:n=2,r=1,3,eps=+,+")
    monkeypatch.setattr(variation, "_jet_form", counted)
    monkeypatch.setattr(catalog, "_jet_form", counted)
    monkeypatch.setattr(analyzer, "_jet_form", counted)
    verdict = classify(entry, "sos_certificate")
    assert verdict.label == "negative_definite"
    assert built == []


def integrand_value(functional, u, spec):
    """``V(u)`` with the integrand evaluated point by point on the mesh."""
    return quadrature.integrate(
        lambda pts: functional.integrand(pts, u.jet(pts)), functional.domains, spec, boxes=u.axis_boxes
    )


def pointwise_polarized(functional, basis, spec):
    """The point-dependent reference: ``(V(u_a + u_b) - V(u_a - u_b)) / 4``
    and the direct value on the diagonal, each ``V`` its integrand walked
    point by point."""
    k = len(basis)
    Q = np.empty((k, k))
    for a in range(k):
        Q[a, a] = integrand_value(functional, basis[a], spec)
        for b in range(a + 1, k):
            plus = integrand_value(functional, LinComb([(1.0, basis[a]), (1.0, basis[b])]), spec)
            minus = integrand_value(functional, LinComb([(1.0, basis[a]), (-1.0, basis[b])]), spec)
            Q[a, b] = Q[b, a] = 0.25 * (plus - minus)
    return Q


# the fourier sweep at 32 nodes: (label, positive witness, negative witness)
POINT_DEPENDENT = [
    (minimal_null_graph_chart, ("inconclusive", None, "gauss1xgauss1")),
    (gradient_graph_chart, ("indefinite", "gauss1xgauss4", "gauss4xgauss4")),
]


@pytest.mark.parametrize("make_chart, verdict", POINT_DEPENDENT)
def test_point_dependent_polarized_form_matches_two_evaluations_per_pair(make_chart, verdict):
    functional = SecondVariationFunctional(make_chart())
    assert functional.jet_form is None
    spec = GridSpec(line_nodes=32)
    basis = witness_library(functional.domains)
    Q = assemble_form(functional, basis, spec)
    assert np.array_equal(Q, Q.T)
    ref = pointwise_polarized(functional, basis, spec)
    form = _functional_form(functional)
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            w = basis[a] if a == b else LinComb([(1.0, basis[a]), (1.0, basis[b])])
            scale = form_rounding_scale(jet_field(form, w, pairs=[(0, 0)]), functional.domains, spec, w.axis_boxes)[0]
            assert abs(Q[a, b] - ref[a, b]) <= 1e-12 * scale, (make_chart.__name__, a, b)
    got = classify(make_chart(), "fourier_sweep", spec)
    witnesses = [w and w.probe_id for w in (got.witness_pos, got.witness_neg)]
    assert (got.label, *witnesses) == verdict


class CountingWork(CountingRoutes):
    """Counts ``integrate`` calls and the functional's geometry evaluations."""

    def __init__(self, monkeypatch):
        super().__init__(monkeypatch)
        self.calls["induced_geometry_batch"] = 0
        geometry = variation.induced_geometry_batch
        monkeypatch.setattr(variation, "induced_geometry_batch", self._counted("induced_geometry_batch", geometry))

    def work(self) -> tuple[int, int]:
        return self.calls["integrate"], self.calls["induced_geometry_batch"]


def test_point_dependent_values_take_one_walk_per_box_set(monkeypatch):
    # four Gaussian products with four box sets: one walk each, evaluating
    # the geometry once per walk (5 calls with the metric drift's central
    # differences).  Two evaluations per pair took 16 walks and 80 calls.
    # The sweep's probe values and polarized form share those four walks,
    # and the norms take four more integrations; pair by pair they took 24
    # and 100.
    spec = GridSpec(line_nodes=32)
    functional = SecondVariationFunctional(minimal_null_graph_chart())
    basis = [Separable([Gauss1D(s), Gauss1D(t)]) for s in (0.6, 1.0) for t in (0.6, 1.0)]
    counts = CountingWork(monkeypatch)
    assemble_form(functional, basis, spec)
    assert counts.work() == (4, 20)
    counts.calls = dict.fromkeys(counts.calls, 0)
    classify(minimal_null_graph_chart(), "fourier_sweep", spec)
    assert counts.work() == (8, 20)
