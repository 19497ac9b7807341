"""Parametrized Lagrangian charts in flat ambients.

A chart is an immersion oracle ``s -> (f, f_s, f_ss)`` into the real
interleaved coordinates of a flat ambient, together with per-axis domains
(circles or truncated lines).  From the oracle we assemble the induced
metric ``g_ij``, the cubic form ``C_ijk = g(f_ij, J f_k)`` (the second
fundamental form contracted against the normal frame ``J f_k``), and the
mean-curvature covector ``H_k = g(nH, J f_k) = g^{ij} C_ijk``.

Structural checks (Lagrangian, divergence-free mean curvature, full
symmetry of ``C``) are report-style: they return worst-case residuals over
a sample grid and leave the accept/reject decision to the caller.  One walk,
:func:`structural_residuals`, computes all three from one geometry pass per
slice of :data:`SLICE` points and takes the max, which gives the same result
as one pass because every operation is per point; :func:`check_lagrangian`,
:func:`check_h_minimal` and :func:`trisymmetry_residual` are its entries.  A
chart may also supply third derivatives (``d3f``); the mean-curvature
divergence is then exact instead of a central difference.

On a chart marked ``curve_product`` the default sample grid is not walked:
each residual is a function of one axis at a time, and ``div X`` is a sum
``sum_l phi_l(s_l)`` of per-axis functions, so one geometry pass over the
axis lines through the grid's first node gives the grid's extremes
(``1 + 16 n`` points instead of ``17^n``).  An explicit grid, any other
chart, and a one-axis chart are walked.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import AmbientFlat
from .jets import Jet2

__all__ = [
    "AxisDomain",
    "LagrangianChart",
    "InducedGeometry",
    "DegenerateMetricError",
    "chart_from_components",
    "induced_geometry",
    "induced_geometry_batch",
    "structural_residuals",
    "check_lagrangian",
    "check_h_minimal",
    "central_stencil",
    "central_difference",
    "central_divergence",
    "trisymmetry_residual",
    "sample_axes",
    "sample_grid",
]

# Oracle signature: points (N, n) -> (f (N, 2n), df (N, n, 2n), d2f (N, n, n, 2n))
ImmersionOracle = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# Third-derivative signature: points (N, n) -> d3f (N, n, n, n, 2n)
ThirdDerivatives = Callable[[np.ndarray], np.ndarray]

# Sample points per slice in the structural walk.  One slice's geometry
# and divergence arrays are alive at a time (``d3f`` alone is 4 KB a point on
# n = 4), so the slice size bounds the walk's peak memory: a 17^4-point walk
# on ``hyperbola:n=4`` (an explicit grid; the default grid of that curve
# product reads its 65 axis-line points instead) peaks under 10 MB at 1024
# points, about 52 MB at 8192.  Slices of 512 to 2048 points walk it in
# about the same time, 8192 more slowly; below that numpy's per-call
# overhead grows.
SLICE = 1024

# Central-difference step, relative to the axis scale, of the H-minimal
# divergence and of metric derivatives in the Laplacian.
REL_STEP = 1e-4


class DegenerateMetricError(ValueError):
    """Induced metric is singular (or nearly so) at a sample point."""


@dataclass(frozen=True)
class AxisDomain:
    """One chart axis: a circle of given circumference, or a line with a
    truncation half-width beyond which test functions must vanish."""

    kind: str
    size: float

    def __post_init__(self) -> None:
        if self.kind not in ("circle", "line"):
            raise ValueError(f"unknown axis kind {self.kind!r}")
        if not self.size > 0:
            raise ValueError(f"axis size must be positive, got {self.size}")

    @classmethod
    def circle(cls, circumference: float) -> "AxisDomain":
        return cls("circle", float(circumference))

    @classmethod
    def line(cls, truncation: float = 1e4) -> "AxisDomain":
        return cls("line", float(truncation))

    @property
    def scale(self) -> float:
        """Natural length unit of the axis (radius for a circle)."""
        return self.size / (2 * np.pi) if self.kind == "circle" else 1.0


@dataclass(frozen=True)
class LagrangianChart:
    """Immersed chart with derivative oracle; the chart does not record how
    the oracle computes (closed form, or dual numbers as in
    :func:`chart_from_components`).

    ``geometry_is_constant`` marks charts whose induced metric, cubic form,
    mean-curvature covector and volume density are constant in these
    coordinates (all the curve-product catalog charts).  The
    second-variation functional then skips finite-difference metric
    derivatives and assembles its integrand and constant jet form from the
    geometry at the origin (this also keeps far-out probe evaluations away
    from overflowing oracle factors; the structural checks still sample the
    oracle itself).  The functional checks the declaration against a sample
    grid and raises ``ValueError`` when it does not hold.  ``d3f``, when
    given, returns the third partials ``f_ijk``; :func:`structural_residuals`
    then takes the exact divergence.

    ``curve_product`` marks a product of planar curves, axis j's curve in the
    coordinate pair ``(2j, 2j + 1)``: every derivative is zero off the block
    diagonal.  :func:`structural_residuals` then reads the default sample
    grid's residuals from its axis lines, and raises ``ValueError`` when a
    derivative on them couples two axes.
    """

    ambient: AmbientFlat
    domains: tuple[AxisDomain, ...]
    oracle: ImmersionOracle = field(repr=False)
    name: str = ""
    geometry_is_constant: bool = False
    d3f: ThirdDerivatives | None = field(default=None, repr=False)
    curve_product: bool = False

    def __post_init__(self) -> None:
        if len(self.domains) != self.ambient.n:
            raise ValueError(
                f"chart has {len(self.domains)} axes but the ambient expects {self.ambient.n}"
            )

    @property
    def dim(self) -> int:
        return len(self.domains)


def chart_from_components(
    ambient: AmbientFlat,
    domains: Sequence[AxisDomain],
    components: Sequence[Callable[[list[Jet2]], Jet2]],
    name: str = "",
    geometry_is_constant: bool = False,
) -> LagrangianChart:
    """Build a dual-number chart from scalar component functions.

    Each entry of ``components`` maps the list of coordinate jets to the jet
    of one real ambient coordinate; first and second partials come out of
    the jet algebra exactly.
    """
    if len(components) != ambient.real_dim:
        raise ValueError(
            f"need {ambient.real_dim} component functions, got {len(components)}"
        )

    def oracle(points: np.ndarray):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        npts, n = pts.shape
        seeds = Jet2.variables(pts)
        f = np.empty((npts, 2 * n))
        df = np.empty((npts, n, 2 * n))
        d2f = np.empty((npts, n, n, 2 * n))
        for a, comp in enumerate(components):
            jet = comp(seeds)
            f[:, a] = jet.val
            df[:, :, a] = jet.grad
            d2f[:, :, :, a] = jet.hess
        return f, df, d2f

    return LagrangianChart(
        ambient=ambient,
        domains=tuple(domains),
        oracle=oracle,
        name=name,
        geometry_is_constant=geometry_is_constant,
    )


@dataclass(frozen=True)
class InducedGeometry:
    """Induced data at a single chart point.

    ``nH_cov[k] = g(nH, J f_k)`` is the mean-curvature covector in the
    normal frame ``J f_k``; raising an index with ``g_inv`` gives the
    coefficients of ``g(nH, J grad u)`` on the partials of ``u``.
    """

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    vol_density: float
    C: np.ndarray
    nH_cov: np.ndarray


def induced_geometry_batch(chart: LagrangianChart, points) -> dict[str, np.ndarray]:
    """Vectorized induced geometry over points of shape (N, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    f, df, d2f = chart.oracle(pts)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(df)) and np.all(np.isfinite(d2f))):
        raise ValueError("immersion oracle returned non-finite values")
    sgn = chart.ambient.signature.as_array()
    npts, n = pts.shape
    # sigma(f_i, f_j) and C_ijk = sigma(f_ij, J f_k) as batched matrix
    # products, the signature folded into one factor
    g = (df * sgn) @ df.swapaxes(1, 2)
    det = np.linalg.det(g)
    scale = np.max(np.abs(g), axis=(1, 2))
    bad = np.abs(det) < 1e-10 * np.maximum(scale, 1e-300) ** n
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateMetricError(
            f"induced metric degenerate at chart point {pts[idx]} (det={det[idx]:.3e})"
        )
    g_inv = np.linalg.inv(g)
    jdf = chart.ambient.j_apply(df)
    C = (d2f.reshape(npts, n * n, 2 * n) @ (jdf * sgn).swapaxes(1, 2)).reshape(npts, n, n, n)
    nH_cov = (g_inv.reshape(npts, 1, n * n) @ C.reshape(npts, n * n, n))[:, 0]
    return {
        "points": pts,
        "f": f,
        "df": df,
        "d2f": d2f,
        "g": g,
        "g_inv": g_inv,
        "det": det,
        "vol": np.sqrt(np.abs(det)),
        "C": C,
        "nH_cov": nH_cov,
    }


def induced_geometry(chart: LagrangianChart, s) -> InducedGeometry:
    """Induced geometry at one chart point."""
    geo = induced_geometry_batch(chart, np.atleast_2d(np.asarray(s, dtype=float)))
    return InducedGeometry(
        point=geo["points"][0],
        g=geo["g"][0],
        g_inv=geo["g_inv"][0],
        vol_density=float(geo["vol"][0]),
        C=geo["C"][0],
        nH_cov=geo["nH_cov"][0],
    )


def sample_axes(chart: LagrangianChart, per_axis: int = 17, line_window: float = 4.0) -> list[np.ndarray]:
    """Per-axis nodes of the structural checks: equispaced around circles,
    symmetric window on line axes."""
    axes = []
    for dom in chart.domains:
        if dom.kind == "circle":
            axes.append(np.linspace(0.0, dom.size, per_axis, endpoint=False))
        else:
            w = min(dom.size, line_window)
            axes.append(np.linspace(-w, w, per_axis))
    return axes


def sample_grid(chart: LagrangianChart, per_axis: int = 17, line_window: float = 4.0) -> np.ndarray:
    """Evaluation points for structural checks: the tensor grid of
    :func:`sample_axes`, last axis fastest."""
    mesh = np.meshgrid(*sample_axes(chart, per_axis, line_window), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def structural_residuals(chart: LagrangianChart, grid: np.ndarray | None = None) -> dict[str, float]:
    """Worst Lagrangian, H-minimal and trisymmetry residuals over the grid.

    ``lagrangian`` is the worst symplectic pairing ``|omega(f_i, f_j)|``.
    ``hminimal`` is the worst ``|div X|`` for ``X^l = g^{lk} H_k``, the
    tangent field of ``n J H`` (sign conventions drop out of the zero
    test): exact by the product rule when the chart has
    ``d3f`` (:func:`_exact_divergence`), else a central difference of step
    :data:`REL_STEP` times the axis scale, ``2n`` more passes.
    ``trisymmetry`` is the worst deviation of ``C_ijk`` from full symmetry.
    A degenerate induced metric at a sample point raises
    :class:`DegenerateMetricError`.

    With no grid, a ``curve_product`` chart of two or more axes makes one
    geometry pass over the "cross" of axis lines through the first node
    ``b`` of :func:`sample_axes` (:func:`_curve_product_residuals`).  Every
    other call walks the grid (by default :func:`sample_grid`) in slices of
    :data:`SLICE` points with one geometry pass each, which all three read;
    only one slice's arrays are alive at a time, so the slice size, not the
    grid, bounds the walk's peak memory.
    """
    if grid is None and chart.curve_product and chart.dim > 1:
        worst = _curve_product_residuals(chart, sample_axes(chart))
    else:
        pts = sample_grid(chart) if grid is None else np.atleast_2d(grid)
        if len(pts) == 0:
            raise ValueError("empty sample grid")
        worst = np.max([_slice_residuals(chart, pts[i : i + SLICE]) for i in range(0, len(pts), SLICE)], axis=0)
    return {"lagrangian": float(worst[0]), "hminimal": float(worst[1]), "trisymmetry": float(worst[2])}


def _slice_residuals(chart: LagrangianChart, pts: np.ndarray) -> list:
    """``max |omega|``, ``max |div X|`` and the largest ``|C - C^T|`` over
    the transposes of ``C`` on one slice; the slice's geometry is freed on
    return."""
    lagrangian, div, trisymmetry = _residuals(chart, induced_geometry_batch(chart, pts))
    return [lagrangian, np.max(np.abs(div)), trisymmetry]


def _residuals(chart: LagrangianChart, geo: dict[str, np.ndarray], d3f: np.ndarray | None = None) -> tuple:
    """``max |omega|``, ``div X`` at each point and the largest
    ``|C - C^T|`` of one geometry pass; ``d3f``, when given, is the chart's
    third derivatives at its points."""
    amb = chart.ambient
    # omega stays an einsum: it sums each product in turn, so a Lagrangian
    # pairing x*y - y*x is exactly 0, where a BLAS product's fused
    # multiply-add leaves rounding noise
    omega = amb.eps * np.einsum("nia,nja,a->nij", amb.j_apply(geo["df"]), geo["df"], amb.signature.as_array())
    if chart.d3f is not None:
        div = _exact_divergence(chart, geo, d3f)
    else:
        div = _central_h_divergence(chart, [REL_STEP * dom.scale for dom in chart.domains], geo)
    return np.max(np.abs(omega)), div, _trisymmetry(geo["C"])


def _curve_product_residuals(chart: LagrangianChart, axes: list[np.ndarray]) -> list:
    """The residuals over the tensor grid of ``axes`` on a curve product,
    from one geometry pass over the ``1 + sum_l (m_l - 1)`` points of the
    axis lines through ``b = (axes[0][0], ..., axes[n-1][0])``.

    The pass first checks the declaration: ``df``, ``d2f`` and ``d3f`` must
    be exactly zero off the block diagonal, else ``ValueError``.  Then
    ``omega`` and ``C - C^sigma`` are per-axis (off-block entries are sums
    of exact zeros), so their extremes lie on the lines.  ``D = div X`` is
    ``sum_l phi_l(s_l)``, and on line ``l`` it reads ``D_l(t) = D(b) +
    phi_l(t) - phi_l(b_l)``; so over the grid ``max D = D(b) + sum_l max_t
    (D_l(t) - D(b))``, ``min D`` likewise, and ``hminimal = max(max D, -min
    D)``, the grid's ``max |D|`` in exact arithmetic.
    """
    base = np.array([nodes[0] for nodes in axes])
    lines = []
    for l, nodes in enumerate(axes):
        line = np.repeat(base[None], len(nodes) - 1, axis=0)
        line[:, l] = nodes[1:]
        lines.append(line)
    pts = np.concatenate([base[None]] + lines)
    geo = induced_geometry_batch(chart, pts)
    d3f = None if chart.d3f is None else chart.d3f(pts)
    for k, arr in enumerate((geo["df"], geo["d2f"], d3f), start=1):
        if arr is not None and np.any(arr[:, _off_block(chart.dim, k)]):
            raise ValueError(
                f"chart {chart.name!r} is declared curve_product, but its order-{k} "
                "derivatives couple two axes"
            )
    lagrangian, div, trisymmetry = _residuals(chart, geo, d3f)
    offsets = np.split(div[1:] - div[0], np.cumsum([len(line) for line in lines])[:-1])
    top = div[0] + sum(d.max(initial=0.0) for d in offsets)
    bottom = div[0] + sum(d.min(initial=0.0) for d in offsets)
    return [lagrangian, max(top, -bottom), trisymmetry]


@functools.cache
def _off_block(n: int, order: int) -> np.ndarray:
    """Mask of the entries ``[i_1, ..., i_order, a]`` of an order-``order``
    derivative array of an ``n``-axis chart that are off the block
    diagonal: not ``i_1 = ... = i_order = a // 2``."""
    idx = np.indices((n,) * order + (2 * n,))
    return ~np.all(idx[:-1] == idx[-1] // 2, axis=0)


def _trisymmetry(C: np.ndarray) -> float:
    """The largest ``|C - C^sigma|`` over the index permutations ``sigma`` of
    an (N, n, n, n) array: the largest spread ``max - min`` of ``C`` over an
    index orbit.  Rounding is monotone, so the two agree bit for bit."""
    orbits = C.reshape(len(C), -1)[:, _index_orbits(C.shape[1])]
    return np.max(orbits.max(axis=2) - orbits.min(axis=2))


@functools.cache
def _index_orbits(n: int) -> np.ndarray:
    """One row per sorted triple ``i <= j <= k``: the flat indices into an
    ``(n, n, n)`` array of its six permutations."""
    return np.array([
        [np.ravel_multi_index(p, (n,) * 3) for p in itertools.permutations(triple)]
        for triple in itertools.combinations_with_replacement(range(n), 3)
    ])


def check_lagrangian(chart: LagrangianChart, grid: np.ndarray | None = None) -> float:
    """The ``lagrangian`` entry of :func:`structural_residuals`; it shares the
    geometry pass, so a degenerate induced metric raises."""
    return structural_residuals(chart, grid)["lagrangian"]


def check_h_minimal(chart: LagrangianChart, grid: np.ndarray | None = None) -> float:
    """The ``hminimal`` entry of :func:`structural_residuals`."""
    return structural_residuals(chart, grid)["hminimal"]


def trisymmetry_residual(chart: LagrangianChart, grid: np.ndarray | None = None) -> float:
    """The ``trisymmetry`` entry of :func:`structural_residuals`."""
    return structural_residuals(chart, grid)["trisymmetry"]


def _central_h_divergence(chart: LagrangianChart, steps, geo: dict[str, np.ndarray]) -> np.ndarray:
    def weighted_components(p: np.ndarray) -> np.ndarray:
        shifted = induced_geometry_batch(chart, p)
        xl = (shifted["g_inv"] @ shifted["nH_cov"][:, :, None])[:, :, 0]
        return shifted["vol"][:, None] * xl

    return central_divergence(weighted_components, geo["points"], steps) / geo["vol"]


def _exact_divergence(chart: LagrangianChart, geo: dict[str, np.ndarray], d3f: np.ndarray | None = None) -> np.ndarray:
    """``div X`` for ``X^l = g^{lk} H_k`` from the geometry pass ``geo`` and
    the third derivatives ``d3f`` at its points (by default the chart's).

    With ``sigma`` the ambient inner product and ``C_ijk = sigma(f_ij, J f_k)``,
    the product rule gives

        div X = d_l g^{lk} H_k + g^{lk} (d_l g^{ij}) C_ijk
                + sigma(T_l, J E_l) + sigma(A, J A) + 1/2 tr(g^{-1} d_l g) X^l

    where ``d_l g_ij = sigma(f_il, f_j) + sigma(f_i, f_jl)``,
    ``d_l g^{ij} = -(g^{-1} d_l g g^{-1})^{ij}``, ``T_l = g^{ij} f_ijl``,
    ``E_l = g^{lk} f_k`` and ``A = g^{ij} f_ij``; the two ``sigma`` terms
    are ``g^{lk} g^{ij} d_l C_ijk``.  The second one vanishes identically,
    since ``sigma(A, J A) = eps omega(A, A)``, and is not computed.
    ``g^{ij}`` is contracted into the third derivatives first, so no rank-5
    array beyond ``d3f`` itself is formed.  The contractions are batched
    matrix products, with the signature folded into one factor; ``dg`` is
    symmetric in its last two indices, so ``tr(g^{-1} d_l g)`` pairs it
    with ``g^{-1}`` unflipped.
    """
    amb = chart.ambient
    sgn = amb.signature.as_array()
    df, d2f, g_inv, H = geo["df"], geo["d2f"], geo["g_inv"], geo["nH_cov"]
    npts, n = geo["points"].shape
    m = n * n
    # the chart's d3f is a temporary, freed once T is formed
    d3f = chart.d3f(geo["points"]) if d3f is None else d3f
    T = (g_inv.reshape(npts, 1, m) @ d3f.reshape(npts, m, 2 * m)).reshape(npts, n, 2 * n)
    del d3f
    half = (d2f.reshape(npts, m, 2 * n) @ (df * sgn).swapaxes(1, 2)).reshape(npts, n, n, n).swapaxes(1, 2)
    dg = half + half.swapaxes(2, 3)
    dg_inv = -(g_inv[:, None] @ dg @ g_inv[:, None])
    C_raised = (g_inv @ geo["C"].reshape(npts, m, n).swapaxes(1, 2)).reshape(npts, n, n, n)
    X = g_inv @ H[:, :, None]
    E = g_inv @ df
    trace = dg.reshape(npts, n, m) @ g_inv.reshape(npts, m, 1)
    return (
        np.einsum("nllk,nk->n", dg_inv, H)
        + np.einsum("nlij,nlij->n", dg_inv, C_raised)
        + ((T * sgn).reshape(npts, 1, 2 * m) @ amb.j_apply(E).reshape(npts, 2 * m, 1))[:, 0, 0]
        + 0.5 * (X.swapaxes(1, 2) @ trace)[:, 0, 0]
    )


def central_stencil(pts: np.ndarray, steps):
    """Yield the shifted copies ``p + h_0 e_0, p - h_0 e_0, p + h_1 e_1, ...``
    of the (N, n) points that :func:`central_difference` reads, ``h_i = steps[i]``."""
    pts = np.atleast_2d(pts)
    for i, h in enumerate(steps):
        shift = np.zeros(pts.shape[1])
        shift[i] = h
        yield pts + shift
        yield pts - shift


def central_difference(values, steps) -> np.ndarray:
    """``sum_i (w_{2i}[:, i] - w_{2i+1}[:, i]) / (2 h_i)``, accumulated in
    axis order, of the (N, n, ...) values ``w_k`` of a field on the shifted
    points of :func:`central_stencil`, read in that order from an iterable."""
    values = iter(values)
    out = 0.0
    for i, h in enumerate(steps):
        plus, minus = next(values), next(values)
        out = out + (plus[:, i] - minus[:, i]) / (2 * h)
    return out


def central_divergence(weighted, pts: np.ndarray, steps) -> np.ndarray:
    """Central-difference divergence ``sum_i d_i w[:, i]`` of a batched field.

    ``weighted`` maps (N, n) points to (N, n, ...) values (a vector or
    matrix field), evaluated once per shifted point set of
    :func:`central_stencil`, one set at a time; the result is
    :func:`central_difference` of those values, of shape (N, ...).
    """
    return central_difference((weighted(p) for p in central_stencil(pts, steps)), steps)
