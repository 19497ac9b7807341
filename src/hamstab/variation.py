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

The intermediate (pre-trace-identity) form replaces ``(lap u)^2`` by the
squared Hessian ``g^{ik} g^{jl} u_ij u_kl``; for compactly supported or
periodic ``u`` over a flat induced metric the two integrals agree, which is
exactly the content of the integral trace identity checked by
:func:`reilly_residual`, itself a corollary of the pointwise identity
checked by :func:`bochner_residual`.

Sign convention: ``lap = div grad``, so on the flat unit torus
``-lap cos(s_1) = cos(s_1)`` (eigenvalue +1).

Every quadratic functional is stated once, as weighted squares
``w (L . jet)^2`` (:class:`JetSquareTerm`) in the jet ``j = (u, du, d2u)``:
a chart functional's come from its geometry (the cubic term as a quadratic
form in ``du``, the Laplacian's metric drift as ``du`` coefficients), and
the closed-form functionals of :mod:`hamstab.catalog` and caller-supplied
certificates are such lists.  The integrand is the sum of the squares, and one builder sums
them to the jet form ``M = sum w L L^T`` with ``integrand = j^T M j``: a
constant matrix when every weight and coefficient is a number (carried as
``jet_form``), one matrix per point otherwise (:func:`_point_forms`).
One routine, :func:`_pair_values`, integrates every request ``(a, b, F)``,
``int j_a^T F j_b`` over the jets of test functions for a constant or
per-point form ``F``; :func:`evaluate_functional` makes one such request
per test function.

A constant jet form ``M`` has the Fourier symbol ``P(xi) = Re v^* M v``
(:func:`symbol`), ``v = a + i b`` the jet of ``exp(i xi . s)`` at 0, so
``P = a^T M a + b^T M b`` with ``a = (1, 0, -xi_i xi_j)``, ``b = (0, xi, 0)``.
Plane waves of distinct frequencies are orthogonal for the form, and
``cos(xi . s)`` on a torus of volume ``Vol`` has value ``Vol/2 * P(xi)``
(Plancherel; Hormander, *The Analysis of Linear Partial Differential
Operators* I): on circle axes the lattice ``xi = 2 pi k / L`` carries the
functional's sign pattern.  :func:`sos_certificate` reads a constant jet
form's sum-of-squares certificate, and whether its kernel is trivial, off
``M`` and this symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .immersion import (
    REL_STEP,
    AxisDomain,
    LagrangianChart,
    axis_lines,
    central_difference,
    central_divergence,
    central_stencil,
    check_curve_product,
    induced_geometry_batch,
    sample_axes,
    sample_grid,
)
from .quadrature import GridSpec
from .testfunctions import LinComb, ProductJet, TestFunction, compatible_with, jet_coordinates, jet_orders

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
    "symbol",
    "FormCertificate",
    "sos_certificate",
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
    """A number or an array as it is; a function of the points, at them."""
    return np.asarray(value(points), dtype=float) if callable(value) else value


@dataclass(frozen=True)
class JetSquareTerm:
    """One ``weight * L(jet)^2`` term with ``L(jet) = g . du + h : d2u``.

    The weight and each coefficient of ``g`` (``grad_coeffs``) and ``h``
    (``hess_coeffs``) is a number, an array with a leading point axis (of
    length 1 when it broadcasts), or a function of the points.
    """

    weight: float | np.ndarray | Callable[[np.ndarray], np.ndarray]
    grad_coeffs: tuple
    hess_coeffs: tuple

    @property
    def coeffs(self) -> tuple:
        """``grad_coeffs``, then ``hess_coeffs`` row by row."""
        return (*self.grad_coeffs, *chain.from_iterable(self.hess_coeffs))

    @cached_property
    def live_coeffs(self) -> tuple:
        """``(i, coeffs[i])`` for each coefficient that is a function of the
        points or nonzero somewhere, in order: decided once per term."""
        return tuple((i, c) for i, c in enumerate(self.coeffs) if callable(c) or np.any(c))

    def weight_values(self, points: np.ndarray):
        """The weight at the points: a number when it is constant."""
        return _at(self.weight, points)


def _sum_of_squares(terms: tuple[JetSquareTerm, ...], points: np.ndarray, jet) -> np.ndarray:
    """``sum_i w_i (L_i . jet)^2`` at the points, reading only the jet
    coordinates of the terms' live coefficients: of a :class:`ProductJet`,
    only those are formed.  The sums accumulate in place."""
    if isinstance(jet, ProductJet):
        n = jet.n
        coordinate = lambda i: jet.grad(i) if i < n else jet.hess(*divmod(i - n, n))
    else:
        _, du, d2u = jet
        coordinate = [*du.T, *d2u.reshape(len(d2u), -1).T].__getitem__
    out = np.zeros(len(points))
    linear, product = np.empty(len(points)), np.empty(len(points))
    for term in terms:
        linear.fill(0.0)
        for i, c in term.live_coeffs:
            linear += np.multiply(_at(c, points), coordinate(i), out=product)
        out += np.multiply(term.weight_values(points), np.square(linear, out=linear), out=linear)
    return out


def _jet_form(terms: tuple[JetSquareTerm, ...], points: np.ndarray | None = None) -> np.ndarray | None:
    """The matrix ``M = sum_i w_i L_i L_i^T`` of the sum of squares ``j^T M j``
    (jet coordinates of :func:`hamstab.testfunctions.jet_orders`): ``(J, J)``
    when every weight and coefficient is a number, otherwise ``(P, J, J)``
    over the point axis of the arrays and of the functions evaluated at the
    points; None when a function of the points is given no points."""
    if points is None and any(callable(x) for t in terms for x in (t.weight, *t.coeffs)):
        return None
    flat = [_at(x, points) for t in terms for x in (t.weight, *t.coeffs)]
    pointwise = any(getattr(x, "ndim", 0) for x in flat)
    # weight and coefficients by term and point (one point when all are numbers)
    c = np.array(np.broadcast_arrays(*flat) if pointwise else flat, dtype=float)
    c = np.moveaxis(c.reshape(len(terms), len(flat) // len(terms), -1), 1, -1)
    n = len(terms[0].grad_coeffs)
    h = c[..., n + 1 :].reshape(-1, n, n)
    hess = h + h.swapaxes(1, 2) - h * np.eye(n)  # on the u_ij coordinate: h_ij + h_ji, or h_ii
    vectors = jet_coordinates((np.zeros(len(h)), c[..., 1 : n + 1].reshape(-1, n), hess)).reshape(c.shape[:2] + (-1,))
    form = 0
    for w, v in zip(c[..., 0], vectors):
        form = form + w[:, None, None] * (v[:, :, None] * v[:, None, :])
    return form if pointwise else form[0]


def symbol(form: np.ndarray, xi) -> np.ndarray:
    """The (N,) values of the Fourier symbol ``a^T M a + b^T M b`` of the
    constant jet form ``M`` (module docstring) at (N, n) frequencies."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    n = xi.shape[1]
    out = np.empty(len(xi))
    # blocks of rows bound the (rows, J) temporaries
    for i in range(0, len(xi), quadrature.BLOCK_ROWS):
        x = xi[i : i + quadrature.BLOCK_ROWS]
        a = jet_coordinates((np.ones(len(x)), np.zeros_like(x), -x[:, :, None] * x[:, None, :]))
        # b^T M b reads only the gradient block
        out[i : i + len(x)] = np.sum((a @ form) * a, axis=1) + np.sum((x @ form[1 : n + 1, 1 : n + 1]) * x, axis=1)
    return out


# Largest relative defect max(0, -lambda_min(sign * M)) / max(1, max|M|) of
# a certified jet form; the blocks of sign * M count as zero or definite
# with the same margin.
SOS_RESIDUAL_TOL = 1e-10


class FormCertificate(NamedTuple):
    """:func:`sos_certificate`'s reading of a constant jet form ``M``."""

    sign: int
    residual: float
    kernel_trivial: bool
    kernel: str  # the kernel rule's conditions evaluated, each with whether it held

    @property
    def definite(self) -> bool:
        return self.residual <= SOS_RESIDUAL_TOL and self.kernel_trivial


def sos_certificate(form: np.ndarray, domains) -> FormCertificate:
    """The sum-of-squares certificate of the constant jet form ``M`` on
    ``domains``, read off ``M`` alone.

    ``sign`` is that of the larger-magnitude eigenvalue of ``M``; when
    ``S = sign * M`` is positive semidefinite, ``j^T S j`` is a sum of
    squares, and value 0 forces ``S j = 0``, so the Fourier transform of
    ``u`` vanishes wherever the symbol of ``S`` is positive.  The admissible
    class: periodic on circle axes, compactly supported (so analytic in the
    line frequencies) on line axes, constants excluded only when every axis
    is a circle (the zero Hamiltonian variation).  With ``G`` the gradient
    block of ``S`` (the symbol is at least ``xi^T G xi``) the kernel is
    trivial if ``G`` on the circle axes is definite (every mode ``k != 0``)
    and ``S`` on the jet coordinates of the line axes alone (mode 0) is
    nonzero, or if ``G`` on the line axes is definite; a block on no axes
    counts as definite, and with no line axes mode 0 is the excluded
    constants.  So with no circle axes the kernel is trivial iff ``S !=
    0``, and with no line axes iff ``G`` is definite.  ``kernel`` lists the
    conditions evaluated, in this order until one decides, each with
    whether it held.  A form that is not semidefinite gets no kernel
    reading.
    """
    circles = [j for j, dom in enumerate(domains) if dom.kind == "circle"]
    lines = [j for j, dom in enumerate(domains) if dom.kind == "line"]
    eig = np.linalg.eigvalsh(form)
    sign = 1 if eig[-1] >= -eig[0] else -1
    scale = max(1.0, float(np.max(np.abs(form))))
    residual = max(0.0, -float(eig[0] if sign > 0 else -eig[-1])) / scale
    if residual > SOS_RESIDUAL_TOL:
        return FormCertificate(sign, residual, False, "the signed jet form is not semidefinite")
    margin = SOS_RESIDUAL_TOL * scale
    S = sign * form
    held: dict[str, bool] = {}  # each condition of the rule evaluated, in order

    def check(condition: str, value) -> bool:
        held[condition] = bool(value)
        return held[condition]

    def definite(axes, kind: str) -> bool:
        grad = [1 + j for j in axes]
        return not axes or check(f"{kind} gradient block definite", np.linalg.eigvalsh(S[grad][:, grad])[0] > margin)

    def line_part() -> bool:
        # the symbol at mode 0: S on the jet coordinates no circle axis differentiates
        jets = ~jet_orders(len(domains))[:, circles].any(axis=1)
        return check("line-jet part nonzero", np.max(np.abs(S[jets][:, jets])) > margin)

    trivial = (definite(circles, "circle") and (not lines or line_part())) or (bool(lines) and definite(lines, "line"))
    conditions = "; ".join(f"{condition}: {value}" for condition, value in held.items())
    return FormCertificate(sign, residual, trivial, f"{'trivial' if trivial else 'not shown trivial'} ({conditions})")


def _quadratic_squares(A: np.ndarray, rows: np.ndarray, n: int) -> list[JetSquareTerm]:
    """``sum_pq A_pq L_p L_q`` over jet-linear ``L_p`` (rows of ``n``
    coefficients on ``du``, then ``n * n`` on ``d2u``) as weighted squares:
    ``A_pp L_p^2``, and ``a ((L_p + L_q)^2 - (L_p - L_q)^2)`` with
    ``a = (A_pq + A_qp) / 4`` for each ``p < q``; ``A`` may carry leading
    point axes, which the weights keep, and squares whose weight is zero
    everywhere are dropped."""
    p, q = np.triu_indices(A.shape[-1], k=1)
    a = 0.25 * (A[..., p, q] + A[..., q, p])
    weights = np.concatenate([np.diagonal(A, axis1=-2, axis2=-1), a, -a], axis=-1)
    vectors = np.concatenate([rows, rows[p] + rows[q], rows[p] - rows[q]])
    terms = zip(np.moveaxis(weights, -1, 0), vectors)
    return [JetSquareTerm(w, tuple(v[:n]), tuple(map(tuple, v[n:].reshape(n, n)))) for w, v in terms if np.any(w)]


def _lap_squares(weight, ginv: np.ndarray, drift: np.ndarray | None = None) -> list[JetSquareTerm]:
    """``weight (b^j u_j + g^{ij} u_ij)^2`` with the metric drift ``b``
    (zero when None); ``ginv`` and ``drift`` may carry leading point axes."""
    n = ginv.shape[-1]
    grad = (0.0,) * n if drift is None else tuple(np.moveaxis(drift, -1, 0))
    return [JetSquareTerm(weight, grad, tuple(map(tuple, np.moveaxis(ginv, (-2, -1), (0, 1)))))]


def _hessian_squares(weight, ginv: np.ndarray) -> list[JetSquareTerm]:
    """``weight g^{ik} g^{jl} u_ij u_kl``, a quadratic form in the ``u_ij``;
    ``ginv`` may carry leading point axes, as may ``weight``."""
    n = ginv.shape[-1]
    kron = np.einsum("...ik,...jl->...ijkl", ginv, ginv).reshape(ginv.shape[:-2] + (n * n, n * n))
    return _quadratic_squares(np.reshape(weight, np.shape(weight) + (1, 1)) * kron, np.eye(n * n, n + n * n, k=n), n)


# --------------------------------------------------------------- functionals

# Largest _constancy_deviation of a chart flagged geometry_is_constant.
CONSTANT_GEOMETRY_RTOL = 1e-12


def _constancy_deviation(origin: dict, geo: dict) -> float:
    """Worst ``|x - x_0| / max(1, |x_0|)`` of ``g``, ``C``, ``nH_cov`` and
    ``vol`` of a geometry pass against their values ``x_0`` at the origin."""
    keys = ("g", "C", "nH_cov", "vol")
    return max(float(np.max(np.abs(geo[k] - origin[k]) / np.maximum(1.0, np.abs(origin[k])))) for k in keys)


def _sample_constancy_deviation(chart: LagrangianChart, origin: dict) -> float:
    """:func:`_constancy_deviation` over the 3-per-axis sample grid.

    On a ``curve_product`` chart one pass over the ``2n`` points of the
    axis lines through the origin stands for the ``3^n`` grid points: with
    the block diagonal checked there, entry ``(j, j)`` of ``g``, ``(j, j,
    j)`` of ``C`` and ``j`` of ``nH_cov`` depend on ``s_j`` alone and every
    other entry is zero, so the lines hold every value those take on the
    grid; ``vol`` is ``vol_0`` times the product of per-axis ratios, so its
    grid extremes are ``vol_0`` times the products of the lines' least and
    greatest ratios.
    """
    if not chart.curve_product:
        grid = sample_grid(chart, per_axis=3, line_window=1.0)
        return _constancy_deviation(origin, induced_geometry_batch(chart, grid))
    lines = axis_lines(np.zeros(chart.dim), sample_axes(chart, per_axis=3, line_window=1.0))
    geo = induced_geometry_batch(chart, np.concatenate(lines))
    check_curve_product(chart, geo)
    vol = float(origin["vol"][0])
    ratios = np.split(geo["vol"] / vol, np.cumsum([len(line) for line in lines])[:-1])
    extremes = (np.prod([r.max(initial=1.0) for r in ratios]), np.prod([r.min(initial=1.0) for r in ratios]))
    return max(_constancy_deviation(origin, geo), *(abs(x - 1.0) * vol / max(1.0, vol) for x in extremes))


class SecondVariationFunctional:
    """The second-variation integrand of a chart as weighted squares.

    :meth:`squares` takes them from a geometry with a leading point axis: on
    charts with ``geometry_is_constant`` (checked on a 3-per-axis sample
    grid by :func:`_sample_constancy_deviation`) the origin's with a
    length-1 axis, once, which also give ``jet_form``; on other charts the induced geometry at the points, with
    the finite-difference metric drift as the ``du`` coefficients of the
    Laplacian square.  Subclasses replace :meth:`second_order_squares`.
    """

    def __init__(self, chart: LagrangianChart):
        self.chart = chart
        self.domains = chart.domains
        self._origin_squares = self.jet_form = None
        if chart.geometry_is_constant:
            origin = induced_geometry_batch(chart, np.zeros((1, chart.dim)))
            deviation = _sample_constancy_deviation(chart, origin)
            if deviation > CONSTANT_GEOMETRY_RTOL:
                raise ValueError(
                    f"chart {chart.name!r} is declared geometry_is_constant, but its geometry "
                    f"deviates from the origin's by {deviation:.3e} (relative)"
                )
            self._origin_squares = self._jet_terms(origin)
            self.jet_form = _jet_form(self._origin_squares)[0]

    def squares(self, points: np.ndarray) -> list[JetSquareTerm]:
        """The integrand's weighted squares, valid at the points."""
        if self._origin_squares is not None:
            return self._origin_squares
        geo = induced_geometry_batch(self.chart, points)
        steps = [REL_STEP * dom.scale for dom in self.domains]
        metric = lambda p: itemgetter("vol", "g_inv")(induced_geometry_batch(self.chart, p))
        return self._jet_terms(geo, _metric_drift(metric, geo["points"], steps, geo["vol"]))

    def _jet_terms(self, geo: dict, drift: np.ndarray | None = None) -> list[JetSquareTerm]:
        """The integrand at a geometry with a leading point axis as weighted
        squares: ``eps vol`` times the second-order squares (the Laplacian's
        with the ``drift`` coefficients when given), ``vol (H_k g^{kl} u_l)^2``,
        and the cubic term ``-2 vol C_ijk (g du)^i (g du)^j (g H)^k`` as a
        quadratic form in ``du``."""
        n = self.chart.dim
        ginv, C, vol = geo["g_inv"], geo["C"], geo["vol"]
        c_up = (ginv @ geo["nH_cov"][..., None])[..., 0]
        cubic = (-2.0 * vol)[:, None, None] * ginv @ np.einsum("pijk,pk->pij", C, c_up) @ ginv
        pair = JetSquareTerm(vol, tuple(c_up.T), ((0.0,) * n,) * n)
        weight = self.chart.ambient.eps * vol
        # only charts whose geometry varies have a drift; their form is the Laplacian's
        second = self.second_order_squares(weight, ginv) if drift is None else _lap_squares(weight, ginv, drift)
        return second + [pair] + _quadratic_squares(cubic, np.eye(n, n + n * n), n)

    def integrand(self, points: np.ndarray, jet) -> np.ndarray:
        return _sum_of_squares(self.squares(points), points, jet)

    second_order_squares = staticmethod(_lap_squares)


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


def as_functional(target):
    """Coerce a chart or a functional stated as weighted squares (``squares``,
    ``integrand`` and ``domains``) to the functional protocol."""
    if isinstance(target, LagrangianChart):
        return SecondVariationFunctional(target)
    if all(hasattr(target, a) for a in ("squares", "integrand", "domains")):
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


def jet_field(form, *probes: TestFunction, pairs=None) -> quadrature.JetFormField:
    """The field ``j^T M j`` over the jet ``j`` of a test function, for a
    constant jet form ``M`` or a (K, J, J) stack of them, with its separable
    terms, jet coordinates and Gaussian terms.  Given several test
    functions, the fields ``j_a^T M_k j_b`` over their concatenated jets,
    ``(a, b)`` being each form's entry of ``pairs``, with each one's
    separable terms.  ``form`` may also be a per-point form ``points -> (N,
    J, J)`` shared by every entry of ``pairs``."""
    terms = [u.separable_terms() for u in probes]
    return quadrature.JetFormField(
        form,
        None if any(t is None for t in terms) else terms,
        lambda pts: np.concatenate([u.jet_coords(pts) for u in probes], axis=1),
        probes[0].gaussian_terms() if len(probes) == 1 else None,
        pairs,
    )


def _point_forms(functional, points: np.ndarray) -> np.ndarray:
    """The functional's jet form at the points: (N, J, J), or (J, J)."""
    return _jet_form(functional.squares(points), points)


def _functional_form(functional):
    """The functional's constant ``jet_form``, else its per-point form."""
    form = getattr(functional, "jet_form", None)
    return form if form is not None else partial(_point_forms, functional)


def _grid_boxes(domains, gridspec: GridSpec | None, u: TestFunction, v: TestFunction) -> tuple:
    """The line boxes of the grid that integrates ``u + v`` (``u`` when
    ``v`` is ``u``): ``gridspec.line_box`` when set, else per line axis the
    larger declared box, None if either has none; None on circle axes."""
    if gridspec is not None and gridspec.line_box is not None:
        return tuple(None if dom.kind == "circle" else gridspec.line_box for dom in domains)
    return tuple(
        None if dom.kind == "circle" or x is None or y is None else max(x, y)
        for dom, x, y in zip(domains, u.axis_boxes, v.axis_boxes)
    )


def _pair_values(domains, probes, requests, gridspec: GridSpec | None = None) -> list[float]:
    """``int j_a^T F j_b`` over the jets of ``probes`` for each request
    ``(a, b, F)``, ``F`` a constant symmetric (J, J) jet form or a per-point
    form ``points -> (N, J, J)``: ``(a, a, F)`` is the value on ``u_a`` and
    ``(a, b, F)`` the polarized entry of ``u_a`` and ``u_b``.

    A value takes the grid of ``u_a``, or of ``u_a + u_b`` when ``a != b``.
    The requests that share a grid's boxes and kind of form are one
    :func:`jet_field` integration over the probes they involve: constant
    forms on their block jet Gram, a per-point form by one walk that
    evaluates it once per block.  Mesh moments integrate one probe only, so
    a constant form on a Gaussian probe is grouped alone.
    """
    for u in probes:
        _check_compatible(u, domains)
    gaussian = [u.gaussian_terms() is not None for u in probes]
    groups: dict[tuple, list[int]] = {}
    for i, (a, b, form) in enumerate(requests):
        pointwise = form if callable(form) else None
        lone = (a, b) if not pointwise and (gaussian[a] or gaussian[b]) else None
        groups.setdefault((_grid_boxes(domains, gridspec, probes[a], probes[b]), pointwise, lone), []).append(i)
    values = [0.0] * len(requests)
    for (boxes, pointwise, _), members in groups.items():
        involved = list(dict.fromkeys(x for i in members for x in requests[i][:2]))
        index = {x: k for k, x in enumerate(involved)}
        field = jet_field(
            pointwise or np.array([requests[i][2] for i in members]),
            *(probes[x] for x in involved),
            pairs=[(index[requests[i][0]], index[requests[i][1]]) for i in members],
        )
        for i, value in zip(members, quadrature.integrate(field, domains, gridspec, boxes=boxes)):
            values[i] = float(value)
    return values


def evaluate_functional(
    functional, u: TestFunction | Sequence[TestFunction], gridspec: GridSpec | None = None
) -> float | list[float]:
    """Quadrature value of a quadratic functional on a test function ``u``,
    the request ``(u, u, F)`` of its jet form ``F`` (:func:`_pair_values`);
    given a list of test functions, the list of their values, one request
    each in one :func:`_pair_values` call, so test functions on the same
    grid share its integration.

    The grid uses the functional's domains; line boxes default to the test
    function's declared support boxes.
    """
    functional = as_functional(functional)
    single = isinstance(u, TestFunction)
    probes = [u] if single else list(u)
    form = _functional_form(functional)
    values = _pair_values(functional.domains, probes, [(a, a, form) for a in range(len(probes))], gridspec)
    return values[0] if single else values


def second_variation(target, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Second variation of volume along ``J grad u`` (chart targets), or the
    value of a closed-form quadratic functional."""
    return evaluate_functional(target, u, gridspec)


def second_variation_raw(chart: LagrangianChart, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Intermediate squared-Hessian form; agrees with
    :func:`second_variation` after integration on flat charts."""
    return evaluate_functional(RawHessianFunctional(chart), u, gridspec)


# ---------------------------------------------------------- identity checks

def bochner_residual(u: TestFunction, m: MetricField, s) -> float:
    """Pointwise residual of the curvature identity

    ``(1/2) lap g(grad u, grad u) = Ric(grad u, grad u)
      + g(grad u, grad lap u) + g(hess u, hess u)``

    with exact first-level quantities and the outer derivatives as
    divergences ``(4 D(h/2) - D(h)) / 3``, ``h = 1e-3``:
    ``lap w = d_l (g^{lk} d_k w)`` for ``w = g(grad u, grad u)`` and
    ``g(grad u, grad lap u) = d_l (lap u (grad u)^l)``, ``grad u`` fixed at
    the point.  One ``u.jet`` call values the point and both steps'
    :func:`central_stencil` (``1 + 4n`` points); the two fluxes are rows of
    it, and each ``D`` is :func:`central_difference` of its stencil's rows,
    the rule of :func:`central_divergence`.  Restricted to constant metrics,
    whose Ricci term vanishes.
    """
    if not m.constant:
        raise NotImplementedError("pointwise identity check needs flat-coordinate metrics")
    pt = np.atleast_2d(np.asarray(s, dtype=float))
    ginv = m.g_inv(pt)[0]
    steps = [[h] * pt.shape[1] for h in (1e-3, 5e-4)]
    _, du, d2u = u.jet(np.concatenate([pt, *chain.from_iterable(central_stencil(pt, hs) for hs in steps)]))
    grad_up = ginv @ du[0]
    # g^{lk} d_k w, with the exact d_k w = 2 g^{ij} u_{ik} u_j
    grad_w = 2.0 * np.einsum("ij,nik,nj->nk", ginv, d2u, du) @ ginv
    lap_flux = np.einsum("ij,nij->n", ginv, d2u)[:, None] * grad_up

    def divergence(flux) -> float:
        # rows 1 + 2n k .. 2n (k + 1) hold step k's stencil, one point each
        stencils = np.split(flux[1:, None], len(steps))
        coarse, fine = (central_difference(rows, hs)[0] for rows, hs in zip(stencils, steps))
        return float((4.0 * fine - coarse) / 3.0)

    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, d2u[0], d2u[0]))
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
    :func:`_reilly_form`, one request of :func:`_pair_values`.
    """
    form = _reilly_form(m)
    doms = tuple(domains) if domains is not None else _domains_from_support(u)
    return _pair_values(doms, [u], [(0, 0, form)], gridspec)[0]


def _reilly_form(m: MetricField) -> np.ndarray:
    """The constant jet form ``vol (M_lap - M_hess)`` of the integral trace
    identity's integrand over the constant metric ``m``, from
    :func:`_lap_squares` and :func:`_hessian_squares`."""
    if not m.constant:
        raise NotImplementedError("integral trace identity implemented for constant metrics")
    vol = float(m.vol_density(np.zeros((1, m.dim)))[0])
    ginv0 = m.g_inv(np.zeros((1, m.dim)))[0]
    return _jet_form(_lap_squares(vol, ginv0) + _hessian_squares(-vol, ginv0))
