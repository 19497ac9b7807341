"""Sum-factorized quadrature against the reference mesh path on the same grid."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab import analyzer, quadrature
from hamstab.catalog import ClosedFormFunctional, CurveData, default_catalog_ids, make_rank_one_bundle, resolve
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
    random_bump_poly,
)
from hamstab.variation import SecondVariationFunctional, evaluate_functional, polarized_form

from helpers import gradient_graph_chart

SMALL = GridSpec(circle_nodes=16, line_nodes=16)
CATALOG = {cid: resolve(cid) for cid in default_catalog_ids()}


@contextmanager
def counting_meshes():
    """Record the size of every quadrature mesh built inside the block."""
    calls = []
    original = quadrature.Grid.points_and_weights

    def counted(self):
        calls.append(self.size)
        return original(self)

    quadrature.Grid.points_and_weights = counted
    try:
        yield calls
    finally:
        quadrature.Grid.points_and_weights = original


def mesh_value(functional, u, spec):
    """The reference path: a plain field is always integrated on the mesh."""
    return quadrature.integrate(
        lambda pts: functional.integrand(pts, u.jet(pts)), functional.domains, spec, boxes=u.axis_boxes
    )


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
        fast_norm = analyzer._witness_norm2(functional, u, SMALL)
    assert calls == [], cid
    ref = mesh_value(functional, u, SMALL)
    assert abs(fast - ref) <= 1e-12 * max(1.0, abs(ref)), (cid, fast, ref)
    ref_norm = quadrature.integrate(lambda pts: u.jet(pts)[0] ** 2, functional.domains, SMALL, boxes=u.axis_boxes)
    assert abs(fast_norm - ref_norm) <= 1e-12 * max(1.0, abs(ref_norm))


@pytest.mark.parametrize(
    "cid, u",
    [
        ("plane:n=2,p=0", AnisotropicGaussian(np.diag([1.0, 2.0]))),
        ("torus:n=2,r=1,1,p=1", PlaneWaveCos([1.0, 1.0])),
        ("torus:n=2,r=1,1,p=1", LinComb([(1.0, PlaneWaveCos([1.0, 0.0])), (1.0, Separable([Cos1D(1.0), Const1D()]))])),
    ],
)
def test_non_separable_probes_use_the_mesh(cid, u):
    functional = CATALOG[cid].functional
    assert u.separable_terms() is None
    with counting_meshes() as calls:
        val = evaluate_functional(functional, u, SMALL)
    assert len(calls) == 1
    assert val == mesh_value(functional, u, SMALL)


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
    with counting_meshes() as calls, pytest.raises(SupportError, match="boundary"):
        evaluate_functional(functional, u, GridSpec(line_nodes=16, line_box=3.0))
    assert len(calls) == 1


def test_wrong_constant_declaration_raises():
    def integrand(points, jet):
        _, du, _ = jet
        return (1.0 + points[:, 0] ** 2) * du[:, 1] ** 2

    with pytest.raises(ValueError, match="constant quadratic form"):
        ClosedFormFunctional(
            domains=(AxisDomain.line(), AxisDomain.line()), integrand=integrand, constant_coefficients=True
        )


def test_polarized_form_of_the_flat_laplacian_square():
    # jet coordinates (u, u_0, u_1, u_00, u_01, u_11); (u_00 + u_11)^2
    form = polarized_form(lambda pts, jet: (jet[2][:, 0, 0] + jet[2][:, 1, 1]) ** 2, 2)
    expect = np.zeros((6, 6))
    expect[np.ix_([3, 5], [3, 5])] = 1.0
    assert np.array_equal(form, expect)


def test_tied_witnesses_follow_the_reference_path():
    entry = CATALOG["plane:n=2,p=0"]
    verdict = analyzer.classify(entry, strategy="fourier_sweep")
    tied = [u for u in analyzer.witness_library(entry.functional.domains) if u.label in ("gauss1xgauss4", "gauss4xgauss1")]
    ref = [mesh_value(entry.functional, u, entry.default_gridspec) for u in tied]
    assert verdict.witness_pos.probe_id == tied[ref.index(max(ref))].label
