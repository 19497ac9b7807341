"""The Hamiltonian second-variation functional and its identity checks.

For a chart with induced metric ``g``, cubic form ``C`` and mean-curvature
covector ``H_k`` (see :mod:`hamstab.immersion`), the second variation of
volume along the Hamiltonian field ``J grad u`` is

    integral of  eps * ((lap u)^2 - 2 * g(nH, h(grad u, grad u)))
                 + g(nH, J grad u)^2   dv,

where ``eps`` is the ambient sign (+1 complex, -1 split-complex), the
ambient Ricci term drops because the ambients here are flat,
``dv = sqrt|det g| ds`` (the integrand includes the density), and

    g(nH, h(grad u, grad u)) = eps * C_ijk (grad u)^i (grad u)^j (g^{kl} H_l),
    g(nH, J grad u)          = H_k (grad u)^k.

The intermediate (pre-trace-identity) form differs only in its
second-order term: it replaces ``(lap u)^2`` by the squared Hessian
``g^{ik} g^{jl} u_ij u_kl``; for compactly supported or
periodic ``u`` over a flat induced metric the two integrals agree, which is
exactly the content of the integral trace identity checked by
:func:`reilly_residual`, itself a corollary of the pointwise identity
checked by :func:`bochner_residual`.

Sign convention: ``lap = div grad``, so on the flat unit torus
``-lap cos(s_1) = cos(s_1)`` (eigenvalue +1).

A functional whose integrand is a constant quadratic form ``j^T M j`` in the
jet ``j = (u, du, d2u)`` carries ``M`` as ``jet_form``.  Every such ``M``
is summed by one builder from a list of weighted squares
``w (L . jet)^2`` (:class:`JetSquareTerm`): a chart functional on a chart
with ``geometry_is_constant`` writes its integrand at the origin geometry as
squares (after checking that the geometry is constant on a sample grid), and
the closed-form functionals and certificates of :mod:`hamstab.catalog` are
such lists; point-dependent functionals carry None.
:func:`evaluate_functional` and :func:`reilly_residual` integrate ``M`` as
a :func:`jet_field`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from . import quadrature
from .immersion import REL_STEP, AxisDomain, LagrangianChart, central_divergence, induced_geometry_batch, sample_grid
from .quadrature import GridSpec
from .testfunctions import LinComb, TestFunction, compatible_with, jet_coordinates

__all__ = [
    "MetricField",
    "gradient",
    "laplacian",
    "SecondVariationFunctional",
    "RawHessianFunctional",
    "as_functional",
    "JetSquareTerm",
    "jet_field",
    "evaluate_functional",
    "second_variation",
    "second_variation_raw",
    "bochner_residual",
    "reilly_residual",
]


# ------------------------------------------------------------- metric fields

@dataclass
class MetricField:
    """Metric data as a function of the chart point.

    ``constant`` marks coordinate systems in which the matrix is constant;
    non-constant metrics get their first derivatives by central differences
    inside :func:`laplacian`.
    """

    dim: int
    g_fn: Callable[[np.ndarray], np.ndarray]
    constant: bool = False
    name: str = ""

    @classmethod
    def flat(cls, signs) -> "MetricField":
        m = np.diag(np.asarray(signs, dtype=float))

        def g_fn(pts):
            return np.broadcast_to(m, (len(np.atleast_2d(pts)),) + m.shape).copy()

        return cls(dim=m.shape[0], g_fn=g_fn, constant=True, name=f"flat{tuple(int(s) for s in signs)}")

    def g(self, pts) -> np.ndarray:
        return self.g_fn(np.atleast_2d(np.asarray(pts, dtype=float)))

    def g_inv(self, pts) -> np.ndarray:
        return np.linalg.inv(self.g(pts))

    def vol_density(self, pts) -> np.ndarray:
        return np.sqrt(np.abs(np.linalg.det(self.g(pts))))


def gradient(u: TestFunction, m: MetricField, s) -> np.ndarray:
    """Raised gradient ``(grad u)^j = g^{ij} u_i`` at one point."""
    pt = np.atleast_2d(np.asarray(s, dtype=float))
    _, du, _ = u.jet(pt)
    return (np.einsum("nij,nj->ni", m.g_inv(pt), du))[0]


def _laplacian_batch(u: TestFunction, m: MetricField, pts: np.ndarray):
    _, du, d2u = u.jet(pts)
    ginv = m.g_inv(pts)
    lap = np.einsum("nij,nij->n", ginv, d2u)
    if not m.constant:
        drift = _metric_drift(
            lambda p: (m.vol_density(p), m.g_inv(p)), pts, [REL_STEP] * m.dim, m.vol_density(pts)
        )
        lap += np.einsum("nj,nj->n", drift, du)
    return lap


def _metric_drift(metric, pts: np.ndarray, steps, vol: np.ndarray) -> np.ndarray:
    """Central-difference ``b^j = (1/sqrt|g|) d_i (sqrt|g| g^{ij})`` for
    ``metric: p -> (sqrt|g|, g^{-1})``, with ``vol = sqrt|g|`` at ``pts``."""

    def weighted(p):
        density, g_inv = metric(p)
        return density[:, None, None] * g_inv

    return central_divergence(weighted, pts, steps) / vol[:, None]


def laplacian(u: TestFunction, m: MetricField, s) -> float:
    """Laplace-Beltrami ``(1/sqrt|g|) d_i (sqrt|g| g^{ij} d_j u)`` at one point."""
    return float(_laplacian_batch(u, m, np.atleast_2d(np.asarray(s, dtype=float)))[0])


# ------------------------------------------------------------ jet forms

def _at(value, points: np.ndarray):
    """A number, or a function of the points evaluated at them."""
    return np.asarray(value(points), dtype=float) if callable(value) else float(value)


@dataclass(frozen=True)
class JetSquareTerm:
    """One ``weight * L(jet)^2`` term with ``L(jet) = g . du + h : d2u``.

    The weight and each coefficient of ``g`` (``grad_coeffs``) and ``h``
    (``hess_coeffs``) is a number or a function of the points.
    """

    weight: float | Callable[[np.ndarray], np.ndarray]
    grad_coeffs: tuple
    hess_coeffs: tuple

    @property
    def is_constant(self) -> bool:
        """Whether the weight and every coefficient are numbers."""
        return not any(map(callable, (self.weight, *self.grad_coeffs, *chain.from_iterable(self.hess_coeffs))))

    def linear_value(self, points: np.ndarray, jet) -> np.ndarray:
        _, du, d2u = jet
        parts = [(c, du[:, i]) for i, c in enumerate(self.grad_coeffs)]
        parts += [(c, d2u[:, i, j]) for i, row in enumerate(self.hess_coeffs) for j, c in enumerate(row)]
        out = np.zeros(len(du))
        for c, x in parts:
            if callable(c) or c != 0:
                out += _at(c, points) * x
        return out

    def weight_values(self, points: np.ndarray):
        """The weight at the points: a number when it is constant."""
        return _at(self.weight, points)


def _sum_of_squares(terms: tuple[JetSquareTerm, ...], points: np.ndarray, jet) -> np.ndarray:
    out = np.zeros(len(points))
    for term in terms:
        out += term.weight_values(points) * term.linear_value(points, jet) ** 2
    return out


def _jet_form(terms: tuple[JetSquareTerm, ...]) -> np.ndarray | None:
    """The matrix ``M = sum_i w_i L_i L_i^T`` of the sum of squares ``j^T M j``
    (jet coordinates of :func:`hamstab.testfunctions.jet_orders`), or None
    when a weight or coefficient is a function of the points."""
    if not all(t.is_constant for t in terms):
        return None
    h = np.array([t.hess_coeffs for t in terms], dtype=float)
    hess = h + h.swapaxes(1, 2) - h * np.eye(h.shape[1])  # on the u_ij coordinate: h_ij + h_ji, or h_ii
    vectors = jet_coordinates((np.zeros(len(terms)), np.array([t.grad_coeffs for t in terms], dtype=float), hess))
    return sum(t.weight * np.outer(v, v) for t, v in zip(terms, vectors))


def _quadratic_squares(A: np.ndarray, rows: np.ndarray, n: int) -> list[JetSquareTerm]:
    """``sum_pq A_pq L_p L_q`` over jet-linear ``L_p`` (rows of ``n``
    coefficients on ``du``, then ``n * n`` on ``d2u``) as weighted squares:
    ``A_pp L_p^2``, and ``a ((L_p + L_q)^2 - (L_p - L_q)^2)`` with
    ``a = (A_pq + A_qp) / 4`` for each ``p < q``; zero weights are dropped."""
    p, q = np.triu_indices(len(A), k=1)
    a = 0.25 * (A[p, q] + A[q, p])
    terms = zip(np.concatenate([np.diag(A), a, -a]), np.concatenate([rows, rows[p] + rows[q], rows[p] - rows[q]]))
    return [JetSquareTerm(float(w), tuple(v[:n]), tuple(map(tuple, v[n:].reshape(n, n)))) for w, v in terms if w]


def _lap_squares(weight: float, ginv: np.ndarray) -> list[JetSquareTerm]:
    """``weight (g^{ij} u_ij)^2`` for a constant ``g^{-1}``."""
    return [JetSquareTerm(weight, (0.0,) * len(ginv), tuple(map(tuple, ginv)))]


def _hessian_squares(weight: float, ginv: np.ndarray) -> list[JetSquareTerm]:
    """``weight g^{ik} g^{jl} u_ij u_kl`` for a constant ``g^{-1}``, a
    quadratic form in the ``u_ij``."""
    n = len(ginv)
    return _quadratic_squares(weight * np.kron(ginv, ginv), np.eye(n * n, n + n * n, k=n), n)


# --------------------------------------------------------------- functionals

# Largest _constancy_deviation of a chart flagged geometry_is_constant.
CONSTANT_GEOMETRY_RTOL = 1e-12


def _constancy_deviation(chart: LagrangianChart, origin: dict, points: np.ndarray) -> float:
    """Worst ``|x - x_0| / max(1, |x_0|)`` of ``g``, ``C``, ``nH_cov`` and
    ``vol`` at the points against their values ``x_0`` at the origin."""
    geo = induced_geometry_batch(chart, points)
    keys = ("g", "C", "nH_cov", "vol")
    return max(float(np.max(np.abs(geo[k] - origin[k]) / np.maximum(1.0, np.abs(origin[k])))) for k in keys)


class SecondVariationFunctional:
    """Pointwise second-variation integrand of a chart, quadratic in the jet.

    The geometry arrays carry a leading point axis: the induced geometry at
    each point, or on charts with ``geometry_is_constant`` the geometry at
    the origin with a length-1 point axis that broadcasts against the jets.
    That declaration is checked on a 3-per-axis sample grid, and such a
    chart's ``jet_form`` is summed from the origin geometry's weighted squares
    (:meth:`_jet_terms`).  Subclasses replace :meth:`second_order_term` and
    :meth:`second_order_squares`.
    """

    def __init__(self, chart: LagrangianChart):
        self.chart = chart
        self.domains = chart.domains
        self._origin = self.jet_form = None
        if chart.geometry_is_constant:
            self._origin = induced_geometry_batch(chart, np.zeros((1, chart.dim)))
            deviation = _constancy_deviation(chart, self._origin, sample_grid(chart, per_axis=3, line_window=1.0))
            if deviation > CONSTANT_GEOMETRY_RTOL:
                raise ValueError(
                    f"chart {chart.name!r} is declared geometry_is_constant, but its geometry "
                    f"deviates from the origin's by {deviation:.3e} (relative)"
                )
            self.jet_form = _jet_form(self._jet_terms())

    def _jet_terms(self) -> list[JetSquareTerm]:
        """The integrand at the origin geometry as weighted squares: ``eps vol``
        times the second-order squares, ``vol (H_k g^{kl} u_l)^2``, and the
        cubic term ``-2 vol C_ijk (g du)^i (g du)^j (g H)^k`` as a quadratic
        form in ``du``."""
        n = self.chart.dim
        ginv, C, vol = self._origin["g_inv"][0], self._origin["C"][0], float(self._origin["vol"][0])
        c_up = ginv @ self._origin["nH_cov"][0]
        cubic = -2.0 * vol * ginv @ np.einsum("ijk,k->ij", C, c_up) @ ginv
        pair = JetSquareTerm(vol, tuple(c_up), ((0.0,) * n,) * n)
        second = self.second_order_squares(self.chart.ambient.eps * vol, ginv)
        return second + [pair] + _quadratic_squares(cubic, np.eye(n, n + n * n), n)

    def integrand(self, points: np.ndarray, jet) -> np.ndarray:
        _, du, d2u = jet
        eps = self.chart.ambient.eps
        geo = self._origin if self._origin is not None else induced_geometry_batch(self.chart, points)
        ginv, H = geo["g_inv"], geo["nH_cov"]
        grad_up = np.einsum("...ij,...j->...i", ginv, du)
        c_up = (ginv @ H[..., None])[..., 0]
        hterm = eps * np.einsum("...ijk,...i,...j,...k->...", geo["C"], grad_up, grad_up, c_up)
        pair = np.einsum("...k,...k->...", H, grad_up)
        second = self.second_order_term(geo, du, d2u)
        return (eps * (second - 2.0 * hterm) + pair * pair) * geo["vol"]

    def second_order_term(self, geo, du, d2u) -> np.ndarray:
        """``(lap u)^2``, with the finite-difference metric-derivative
        correction of the Laplacian on charts whose geometry varies."""
        lap = np.einsum("...ij,...ij->...", geo["g_inv"], d2u)
        if not self.chart.geometry_is_constant:
            steps = [REL_STEP * dom.scale for dom in self.domains]
            lap += np.einsum("nj,nj->n", _metric_drift(self._metric, geo["points"], steps, geo["vol"]), du)
        return lap * lap

    second_order_squares = staticmethod(_lap_squares)

    def _metric(self, points: np.ndarray):
        geo = induced_geometry_batch(self.chart, points)
        return geo["vol"], geo["g_inv"]


class RawHessianFunctional(SecondVariationFunctional):
    """Intermediate form with the squared Hessian in place of ``(lap u)^2``.

    Restricted to charts with ``geometry_is_constant``, whose induced metric
    is constant in the chart coordinates, where the covariant Hessian
    reduces to raw second partials.
    """

    def __init__(self, chart: LagrangianChart):
        if not chart.geometry_is_constant:
            raise ValueError("raw-Hessian form needs a chart with constant induced metric coefficients")
        super().__init__(chart)

    second_order_squares = staticmethod(_hessian_squares)

    def second_order_term(self, geo, du, d2u) -> np.ndarray:
        """``g^{ik} g^{jl} u_ij u_kl``."""
        ginv = geo["g_inv"]
        return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, d2u, d2u)


def as_functional(target):
    """Coerce a chart or integrand-bearing object to the functional protocol."""
    if isinstance(target, LagrangianChart):
        return SecondVariationFunctional(target)
    if hasattr(target, "integrand") and hasattr(target, "domains"):
        return target
    raise TypeError(f"cannot interpret {target!r} as a quadratic functional")


def _check_compatible(u: TestFunction, domains) -> None:
    if compatible_with(u, domains):
        return
    if isinstance(u, LinComb) and u.compatible_terms(domains):
        return
    raise ValueError(
        f"test function {u.label or u!r} is incompatible with the domains {domains}"
    )


def jet_field(form: np.ndarray, u: TestFunction) -> quadrature.JetFormField:
    """The field ``j^T M j`` over the jet ``j`` of ``u``, for a constant jet
    form ``M`` or a (K, J, J) stack of them, with the separable terms,
    jet coordinates and Gaussian terms of ``u``."""
    return quadrature.JetFormField(form, u.separable_terms(), u.jet_coords, u.gaussian_terms())


def evaluate_functional(functional, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Quadrature value of a quadratic functional on a test function.

    The grid uses the functional's domains; line boxes default to the test
    function's declared support boxes.  A constant ``jet_form`` is
    integrated as its :func:`jet_field`, any other integrand point by point.
    """
    functional = as_functional(functional)
    _check_compatible(u, functional.domains)
    form = getattr(functional, "jet_form", None)
    field = jet_field(form, u) if form is not None else lambda pts: functional.integrand(pts, u.jet(pts))
    return quadrature.integrate(field, functional.domains, gridspec, boxes=u.axis_boxes)


def second_variation(target, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Second variation of volume along ``J grad u`` (chart targets), or the
    value of a closed-form quadratic functional."""
    return evaluate_functional(target, u, gridspec)


def second_variation_raw(chart: LagrangianChart, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Intermediate squared-Hessian form; agrees with
    :func:`second_variation` after integration on flat charts."""
    return evaluate_functional(RawHessianFunctional(chart), u, gridspec)


# ---------------------------------------------------------- identity checks

def bochner_residual(u: TestFunction, m: MetricField, s, step: float = 1e-3) -> float:
    """Pointwise residual of the curvature identity

    ``(1/2) lap g(grad u, grad u) = Ric(grad u, grad u)
      + g(grad u, grad lap u) + g(hess u, hess u)``

    with exact first-level quantities and the outer derivatives as
    divergences ``(4 D(h/2) - D(h)) / 3`` of :func:`central_divergence`:
    ``lap w = d_l (g^{lk} d_k w)`` for ``w = g(grad u, grad u)`` and
    ``g(grad u, grad lap u) = d_l (lap u (grad u)^l)``, ``grad u`` fixed at
    the point.  Restricted to constant metrics, whose Ricci term vanishes.
    """
    if not m.constant:
        raise NotImplementedError("pointwise identity check needs flat-coordinate metrics")
    pt = np.atleast_2d(np.asarray(s, dtype=float))
    ginv = m.g_inv(pt)[0]
    _, du0, d2u0 = u.jet(pt)
    grad_up = ginv @ du0[0]

    def grad_w(pts):
        # g^{lk} d_k w, with the exact d_k w = 2 g^{ij} u_{ik} u_j
        _, du, d2u = u.jet(pts)
        return 2.0 * np.einsum("ij,nik,nj->nk", ginv, d2u, du) @ ginv

    def lap_flux(pts):
        _, _, d2u = u.jet(pts)
        return np.einsum("ij,nij->n", ginv, d2u)[:, None] * grad_up

    def divergence(weighted) -> float:
        coarse, fine = (central_divergence(weighted, pt, [h] * len(grad_up))[0] for h in (step, step / 2))
        return float((4.0 * fine - coarse) / 3.0)

    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, d2u0[0], d2u0[0]))
    return 0.5 * divergence(grad_w) - divergence(lap_flux) - hess_sq


def _domains_from_support(u: TestFunction) -> tuple[AxisDomain, ...]:
    domains = []
    for j in range(u.n):
        p = u.axis_periods[j]
        b = u.axis_boxes[j]
        if p not in (None, 0.0):
            domains.append(AxisDomain.circle(p))
        elif b is not None:
            domains.append(AxisDomain.line(b))
        else:
            raise ValueError(f"axis {j}: cannot infer an integration domain for {u.label or u!r}")
    return tuple(domains)


def reilly_residual(
    u: TestFunction,
    m: MetricField,
    domains=None,
    gridspec: GridSpec | None = None,
) -> float:
    """Integral residual ``int (lap u)^2 - g(hess u, hess u) - Ric(grad u, grad u) dv``.

    Vanishes for periodic or compactly supported ``u``; the integration
    domain defaults to one period per periodic axis and the declared
    support box per line axis.  Restricted to constant metrics, whose Ricci
    term vanishes, so the integrand is the constant jet form
    ``vol (M_lap - M_hess)`` of :func:`_lap_squares` and
    :func:`_hessian_squares`, integrated as a :func:`jet_field`.
    """
    if not m.constant:
        raise NotImplementedError("integral trace identity implemented for constant metrics")
    doms = tuple(domains) if domains is not None else _domains_from_support(u)
    vol = float(m.vol_density(np.zeros((1, m.dim)))[0])
    ginv0 = m.g_inv(np.zeros((1, m.dim)))[0]
    form = _jet_form(_lap_squares(vol, ginv0) + _hessian_squares(-vol, ginv0))
    return quadrature.integrate(jet_field(form, u), doms, gridspec, boxes=u.axis_boxes)
