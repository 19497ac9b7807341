"""Shared chart builders and quadrature helpers for the test modules."""

import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from dataclasses import replace

from hamstab import quadrature
from hamstab.catalog import _curve_product_chart
from hamstab.geometry import AmbientFlat
from hamstab.immersion import AxisDomain, LagrangianChart, central_divergence, chart_from_components
from hamstab.jets import jcos, jsin
from hamstab.quadrature import build_grid
from hamstab.testfunctions import Func1D
from hamstab.variation import JetSquareTerm, _pair_values


def hyperbola_reference_squares(radii, eps) -> tuple[JetSquareTerm, ...]:
    """The second-variation integrand of a hyperbola product with one or
    two factors as the closed-form negative sum of squares
    ``-(e1 u_ss + e2 u_tt)^2 - (e1 u_s / r1 - e2 u_t / r2)^2``, and its
    first-axis part ``-(u_ss)^2 - (u_s / r)^2`` for n = 1: a reference
    independent of the chart geometry."""
    n = len(radii)
    assert n <= 2, "the closed form holds for n <= 2"
    hess = tuple(tuple(float(eps[i]) if i == j else 0.0 for j in range(n)) for i in range(n))
    grad = tuple(sign * e / float(r) for sign, e, r in zip((1, -1), eps, radii))
    return (JetSquareTerm(-1.0, (0.0,) * n, hess), JetSquareTerm(-1.0, grad, ((0.0,) * n,) * n))


def plane_reference_squares(chart) -> tuple[JetSquareTerm, ...]:
    """``eps (lap u)^2`` of a flat Lagrangian plane, whose induced metric is
    ``diag(axis_signs)``, so ``lap u = sum_j ginv_jj u_jj``."""
    n, ginv = chart.dim, chart.ambient.axis_signs
    lap = tuple(tuple(float(ginv[i]) if i == j else 0.0 for j in range(n)) for i in range(n))
    return (JetSquareTerm(float(chart.ambient.eps), (0.0,) * n, lap),)


def gradient_graph_chart():
    """Gradient graph (s, grad phi(s)) in C^2: Lagrangian for any potential,
    with a genuinely non-constant induced metric."""
    amb = AmbientFlat.pseudo_kahler(2, 0)

    def phi1(S):
        # d phi / d s1 for phi = 0.3 cos(s1) sin(2 s2) + 0.1 s1^2 s2
        return jsin(S[0]) * jsin(S[1] * 2.0) * (-0.3) + S[0] * S[1] * 0.2

    def phi2(S):
        return jcos(S[0]) * jcos(S[1] * 2.0) * 0.6 + (S[0] ** 2) * 0.1

    comps = [lambda S: S[0], phi1, lambda S: S[1], phi2]
    return chart_from_components(
        amb, (AxisDomain.line(), AxisDomain.line()), comps, name="gradient-graph"
    )


def polynomial_graph_chart():
    """Gradient graph (s, grad phi(s)) in C^2 of the quartic potential
    phi = 0.1 s1^4 + 0.2 s1^2 s2 + 0.05 s1 s2^3 + 0.15 s2^2, as a closed-form
    chart that supplies third derivatives.  Lagrangian, not H-minimal."""
    amb = AmbientFlat.pseudo_kahler(2, 0)
    phi = {(4, 0): 0.1, (2, 1): 0.2, (1, 3): 0.05, (0, 2): 0.15}

    def partial(*axes):
        """Values of the partial derivative of phi along ``axes`` at points."""
        poly = phi
        for axis in axes:
            poly = {
                tuple(e - (k == axis) for k, e in enumerate(m)): c * m[axis]
                for m, c in poly.items()
                if m[axis]
            }
        return lambda pts: sum(
            (c * pts[:, 0] ** m[0] * pts[:, 1] ** m[1] for m, c in poly.items()), np.zeros(len(pts))
        )

    def oracle(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        f = np.zeros((len(pts), 4))
        df = np.zeros((len(pts), 2, 4))
        d2f = np.zeros((len(pts), 2, 2, 4))
        for k in range(2):
            f[:, 2 * k] = pts[:, k]
            f[:, 2 * k + 1] = partial(k)(pts)
            df[:, k, 2 * k] = 1.0
            for i in range(2):
                df[:, i, 2 * k + 1] = partial(k, i)(pts)
                for j in range(2):
                    d2f[:, i, j, 2 * k + 1] = partial(k, i, j)(pts)
        return f, df, d2f

    def d3f(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(pts), 2, 2, 2, 4))
        for k, i, j, l in itertools.product(range(2), repeat=4):
            out[:, i, j, l, 2 * k + 1] = partial(k, i, j, l)(pts)
        return out

    return LagrangianChart(
        amb, (AxisDomain.line(), AxisDomain.line()), oracle, name="polynomial-graph", d3f=d3f
    )


def cubic_curve_product_chart(coeffs):
    """Product in ``C^n`` of the curves ``(s, a s^2 + b s^3)``, one ``(a, b)``
    per axis, with closed-form derivatives up to the third.  Lagrangian and
    a curve product, but neither of constant curvature nor H-minimal: on
    axis l, ``div X`` is the arc-length derivative of the curve's
    curvature."""

    def curve(j, s):
        a, b = coeffs[j]
        return (s, a * s**2 + b * s**3), (1.0, 2 * a * s + 3 * b * s**2), (0.0, 2 * a + 6 * b * s), (0.0, 6 * b)

    chart = _curve_product_chart(
        AmbientFlat.pseudo_kahler(len(coeffs), 0),
        tuple(AxisDomain.line() for _ in coeffs),
        f"cubic-curves:{coeffs}",
        curve,
    )
    return replace(chart, geometry_is_constant=False)


def minimal_null_graph_chart():
    """Gradient graph ``b = grad f(a)`` in ``D^2`` of ``f = a_1 a_2 + cos(a_1)``,
    in the null coordinates ``a = x + y``, ``b = x - y`` of each coordinate
    pair, with chart point ``s = a``.  ``det D^2 f = -1``, so the graph is a
    minimal Lagrangian; its induced metric is ``D^2 f = [[-cos s_1, 1], [1, 0]]``,
    Lorentzian and varying, with ``sqrt|g| = 1`` and Laplacian
    ``2 u_12 + cos(s_1) u_22``."""

    def b1(S):
        return S[1] - jsin(S[0])

    comps = [
        lambda S: (S[0] + b1(S)) * 0.5,
        lambda S: (S[0] - b1(S)) * 0.5,
        lambda S: (S[1] + S[0]) * 0.5,
        lambda S: (S[1] - S[0]) * 0.5,
    ]
    return chart_from_components(
        AmbientFlat.para_kahler(2), (AxisDomain.line(), AxisDomain.line()), comps, name="minimal-null-graph"
    )


def form_rounding_scale(field, domains, spec, boxes):
    """``sum_x w(x) |j(x)|^T |M_k| |j(x)|`` per form of a jet-form field
    (one per-point form ``M(x)``, or constant forms): the magnitude against
    which a pointwise sum and a contraction of the jet Gram both round."""
    pts, w = build_grid(domains, spec, boxes).points_and_weights()
    coords = np.abs(field.coords(pts))
    if callable(field.form):
        forms = np.abs(np.broadcast_to(field.form(pts), (len(pts),) + (coords.shape[1],) * 2))
        return np.array([np.sum(w * np.einsum("np,npq,nq->n", coords, forms, coords))])
    forms = field.form.reshape((-1,) + field.form.shape[-2:])
    return np.array([np.sum(w * np.einsum("np,pq,nq->n", coords, np.abs(m), coords)) for m in forms])


def reference_separable_jet(factors, points):
    """The jet of the product of one-variable ``factors`` at (N, n) points by
    the dense loop :class:`hamstab.testfunctions.Separable` once ran: every
    factor on every point, then products seeded with ones."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts, n = pts.shape
    v = np.empty((n, npts))
    d1 = np.empty((n, npts))
    d2 = np.empty((n, npts))
    for j, f in enumerate(factors):
        v[j], d1[j], d2[j] = f.jet1(pts[:, j])
    u = np.prod(v, axis=0)
    du = np.empty((npts, n))
    hess = np.empty((npts, n, n))
    for j in range(n):
        pj = np.ones(npts)
        for k in range(n):
            if k != j:
                pj = pj * v[k]
        du[:, j] = d1[j] * pj
        hess[:, j, j] = d2[j] * pj
        for k in range(j + 1, n):
            pjk = np.ones(npts)
            for l in range(n):
                if l != j and l != k:
                    pjk = pjk * v[l]
            hess[:, j, k] = hess[:, k, j] = d1[j] * d1[k] * pjk
    return u, du, hess


def same_bits(got, want) -> bool:
    """Equal arrays with equal signs of zero, piece by piece of a jet."""
    return all(
        np.shape(a) == np.shape(b) and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        for a, b in zip(got, want, strict=True)
    )


def reference_bochner_residual(u, m, s) -> float:
    """The Bochner residual of :func:`hamstab.variation.bochner_residual` by
    the per-shift route it once took: one ``u.jet`` at the point, then one
    per shifted point of each :func:`central_divergence` (17 calls on two
    axes)."""
    pt = np.atleast_2d(np.asarray(s, dtype=float))
    ginv = m.g_inv(pt)[0]
    _, du0, d2u0 = u.jet(pt)
    grad_up = ginv @ du0[0]

    def grad_w(pts):
        _, du, d2u = u.jet(pts)
        return 2.0 * np.einsum("ij,nik,nj->nk", ginv, d2u, du) @ ginv

    def lap_flux(pts):
        _, _, d2u = u.jet(pts)
        return np.einsum("ij,nij->n", ginv, d2u)[:, None] * grad_up

    def divergence(weighted) -> float:
        coarse, fine = (central_divergence(weighted, pt, [h] * len(grad_up))[0] for h in (1e-3, 5e-4))
        return float((4.0 * fine - coarse) / 3.0)

    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, d2u0[0], d2u0[0]))
    return 0.5 * divergence(grad_w) - divergence(lap_flux) - hess_sq


def q_direct(w, radii, eps) -> float:
    """The direct expansion of ``Q(w, w)``, a term at a time: the scalar
    reference for criterion 5's column expansion
    (:func:`hamstab.verification._q_columns`).  It squares by products, as
    that does: on Python floats ``r ** 2`` calls libm's ``pow``, which at
    criterion 5's seed 7 draws rounds one radius's square an ulp away from
    ``r * r``."""
    total = 0.0
    n = len(w)
    for j in range(n):
        total += w[j] * w[j] / (radii[j] * radii[j])
    for j in range(n):
        for k in range(j + 1, n):
            total -= 2.0 * eps[j] * eps[k] * w[j] * w[k] / (radii[j] * radii[k])
    return total


class _Unkeyed(Func1D):
    """A stand-in for the factor ``f`` that has no value key, so sum
    factorization groups it by identity."""

    def __init__(self, f: Func1D):
        self.f = f

    def jet1(self, x):
        return self.f.jet1(x)


def pair_values_by_identity(domains, probes, requests, gridspec=None) -> list[float]:
    """:func:`hamstab.variation._pair_values` with the 1-D factors of each
    sum factorization grouped as they were before value keys: by the
    factors' own equality, which is identity for every kind but the
    :class:`~hamstab.testfunctions.Const1D` dataclass.  Each call gives the
    factors that compare equal one keyless stand-in."""
    factorized = quadrature._sum_factorized

    def by_identity(grid, terms):
        stand_ins: dict = {}
        return factorized(
            grid,
            [[(c, [stand_ins.setdefault(f, _Unkeyed(f)) for f in factors]) for c, factors in probe] for probe in terms],
        )

    with mock.patch.object(quadrature, "_sum_factorized", by_identity):
        return _pair_values(domains, probes, requests, gridspec)


@contextmanager
def counting_lead_rows():
    """Record ``(mesh shape, rows, lead rows)`` for every walk of a
    selection of a mesh's leading rows inside the block: the ``rows``
    selected for :meth:`hamstab.quadrature.Grid._blocks` out of the mesh's
    ``lead rows``, the copies of its trailing sub-mesh."""
    walks = []
    blocks = quadrature.Grid._blocks

    def counted(grid, size, selected=None):
        split, step, leads = blocks(grid, size, selected)
        if selected is not None:
            walks.append((grid.shape, len(selected), math.prod(grid.shape[:split])))
        return split, step, leads

    with mock.patch.object(quadrature.Grid, "_blocks", counted):
        yield walks
