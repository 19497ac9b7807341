"""Tensor-product quadrature over mixed circle/line domains.

Circle axes use the periodic trapezoidal rule on equispaced nodes with the
endpoint excluded (spectrally accurate, exact for trigonometric polynomials
of degree below the node count).  Line axes use Gauss-Legendre nodes on a
truncation box outside which every admissible field must vanish.  Sums are
reduced pairwise so results are deterministic and independent of how the
work is scheduled.

A :class:`JetFormField`, ``j^T M j`` for a constant matrix ``M`` over the
jet ``j`` of a test function, integrates to ``<M, G>`` for the weighted jet
Gram ``G = sum_x w(x) j(x) j(x)^T`` of the mesh.  Over the concatenated
jets ``(j_1, ..., j_k)`` of k test functions that share a grid, ``G`` is a
block Gram, and a form ``M`` on the pair ``(a, b)`` integrates to
``int j_a^T M j_b = <M, (G_ab + G_ba) / 2>``: one block Gram per box set
gives every value ``V(u_a)``, every norm ``int u_a^2`` and every polarized
entry ``Q_ab`` of those test functions.  :func:`integrate` tries two closed
routes to ``G``, in order:

1. Sum factorization, for test functions that are sums of products of
   one-variable factors (bumps, cosine products and plane waves, and sums
   and dilations of them): each entry of ``G`` is a sum of products of
   per-axis 1-D Gram matrices of the factor jets on the same nodes and
   weights, one table over the distinct factors of the k test functions
   (equal by value, not only by identity), at a cost linear in the node
   counts.
2. Mesh moments, for an anisotropic Gaussian ``u = exp(-t^T A t / 2)``,
   ``t = s - c``, and its dilations: its jet is ``u K m(t)`` for the
   monomials ``m`` of degree at most 2, so ``G = K Mom K^T`` with
   ``Mom[a, b] = sum_x w(x) u(x)^2 t^(a + b)``.  ``u^2`` is evaluated once
   per point of the mesh's leading rows that can reach the last bit of
   ``G`` (rows where ``t^T A t`` stays past a cut derived from the Gram
   are not summed), and each node axis is contracted in turn against its
   table ``w_k t_k^g``; nothing else is formed per point.  ``K m(t)``
   cancels along the Gaussian's wide directions, so the moments are
   carried in ``np.longdouble`` until ``G`` is formed.

Each gives the mesh's discrete sum up to rounding and a bound ``B_a`` on
``|j_a|`` over every line axis's edge layer (per-axis maxima of the factor
jets, or the Gaussian's largest value on the edge hyperplane times its
monomials' maxima); one leak rule accepts it if ``B^T |M| B <= 1e-10`` for
every form, with ``B = B_a`` for a form on one test function and ``B_a +
B_b``, the bound of ``u_a + u_b``, for a form on a pair.  Otherwise the
field is walked on the mesh, and the walk decides the leak of each
``j_a^T M j_b`` exactly, raising :class:`SupportError`, and gives the
value.  A per-point form ``M(x)``, of a functional whose coefficients
depend on the point, has no closed route and is always walked.

Mesh path: every field, a plain callable, a :class:`MeshField` or a jet
form field, walks the grid in the blocks of :meth:`Grid._slabs`, runs of
whole trailing sub-meshes of up to :data:`BLOCK_ROWS` rows, and only one
block of points, weights and values exists at a time.  A
:class:`MeshField` also receives the block's open mesh, one coordinate
array per axis, on which a separable jet evaluates each factor once per
distinct node.  Each block folds its magnitudes into
running maxima for the leak check and reduces its ``values * weights`` to
one partial sum per aligned sub-block, whose length is the largest power of
two dividing the first block's length.  Because every block starts at a
multiple of that length, no pair of :func:`pairwise_sum`'s tree crosses a
sub-block boundary below that level, so the pairwise sum of the partial
sums is bit-identical to :func:`pairwise_sum` over the whole mesh, and a
field that is computed point by point gives the same value in blocks of
any size.  Memory is O(block + N / sub-block).

A mesh is capped at :data:`MAX_MESH_POINTS` points: a larger one raises
:class:`GridTooLargeError` before any block is built.

A :class:`JetFormField` may carry a ``(K, J, J)`` stack of forms, as a
dilation family does (see :func:`hamstab.analyzer.scaling_probe`) and as
a witness pool or a polarized form does over the jets of several test
functions, or K pairs on one per-point form; :func:`integrate` then
returns the K sums of one ``G`` (or of one walk), and the leak rule holds
for every form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .immersion import AxisDomain
from .testfunctions import jet_orders

__all__ = [
    "GridSpec",
    "Grid",
    "GridTooLargeError",
    "JetFormField",
    "MeshField",
    "SupportError",
    "build_grid",
    "check_line_boxes",
    "integrate",
    "pairwise_sum",
]

MIN_NODES = 8

# Most mesh points in one block of a mesh walk or of the Gaussian moments
# (so also in the trailing sub-mesh whose node indices the moments keep): a
# block's temporaries (128 KiB per float column, 2 MB for J = 15 jet
# coordinates) stay in cache through the field's evaluation and contraction.
BLOCK_ROWS = 16384

# Largest mesh :func:`integrate` walks or :meth:`Grid.points_and_weights`
# builds.  The walk holds one block of :data:`BLOCK_ROWS` rows at a time, so
# the cap bounds run time and the O(N / sub-block) partial sums rather than
# memory.  The largest default mesh has 40^4 = 2.56 M points and 64 nodes
# per axis give 16.8 M; 96 nodes per axis give 85 M.
MAX_MESH_POINTS = 2**25

# A field must vanish on the line-axis edge layers to this fraction of
# 1 + its largest magnitude on the grid.
LEAK_RTOL = 1e-10


class SupportError(ValueError):
    """A field fails to vanish at (or fit inside) a line-axis truncation box."""


class GridTooLargeError(ValueError):
    """A mesh has more than :data:`MAX_MESH_POINTS` points."""


@dataclass(frozen=True)
class GridSpec:
    """Node counts and line truncation for a tensor-product grid.

    ``line_box`` of None defers the truncation half-width to the test
    function's declared support box, per axis.
    """

    circle_nodes: int = 64
    line_nodes: int = 96
    line_box: float | None = None

    def __post_init__(self) -> None:
        if self.circle_nodes < MIN_NODES or self.line_nodes < MIN_NODES:
            raise ValueError(f"node counts must be >= {MIN_NODES}")
        if self.line_box is not None and self.line_box <= 0:
            raise ValueError("line_box must be positive")


@dataclass(frozen=True)
class Grid:
    domains: tuple[AxisDomain, ...]
    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]
    boxes: tuple[float | None, ...]

    @property
    def dim(self) -> int:
        return len(self.domains)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.axis_nodes)

    def _check_size(self) -> None:
        """Raise :class:`GridTooLargeError` when the mesh has more than
        :data:`MAX_MESH_POINTS` points."""
        if self.size > MAX_MESH_POINTS:
            # points and weights with their per-axis index and product temporaries
            mesh_bytes = 8 * (3 * self.dim + 1) * self.size
            raise GridTooLargeError(
                f"a {' x '.join(str(n) for n in self.shape)} quadrature mesh has "
                f"{self.size} points, more than the {MAX_MESH_POINTS} allowed; building its "
                f"points and weights alone would take about {mesh_bytes / 2**30:.1f} GiB"
            )

    def points_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Full mesh as (size, dim) points and (size,) weights: the one slab
        of :meth:`_slabs` that covers the mesh.

        Raises :class:`GridTooLargeError` before allocating anything when the
        mesh has more than :data:`MAX_MESH_POINTS` points.
        """
        self._check_size()
        pts, w, _, _ = next(self._slabs(self.size))
        return pts, w

    def points_at(self, flat_indices) -> np.ndarray:
        """The mesh points at the given flat indices (the row order of
        :meth:`points_and_weights`), as (len, dim), without the full mesh."""
        idx = np.unravel_index(flat_indices, self.shape)
        return np.stack([nodes[i] for nodes, i in zip(self.axis_nodes, idx)], axis=-1)

    def _blocks(self, rows: int, selected=None):
        """``(split, step, leads)`` for the mesh in blocks of up to ``rows``
        consecutive rows.  A block is ``step`` whole copies of the trailing
        sub-mesh of the axes from ``split`` on, with at most ``min(rows,
        BLOCK_ROWS)`` points; ``leads`` yields each block's per-axis node
        indices (axes, copies) on the leading axes.  All but the last block
        have one length.  ``selected``, flat indices into the leading axes'
        mesh, restricts the blocks to those copies, in that order."""
        split = next(s for s in range(self.dim + 1) if math.prod(self.shape[s:]) <= min(rows, BLOCK_ROWS))
        lead, tail = self.shape[:split], self.shape[split:]
        step = max(1, rows // math.prod(tail))
        selected = np.arange(math.prod(lead)) if selected is None else selected
        return split, step, (_unravel(selected[start : start + step], lead) for start in range(0, len(selected), step))

    def _slabs(self, rows: int):
        """The mesh in the blocks of :meth:`_blocks` as ``(points, weights,
        edges, axes)``: (P, dim) points (a view of a (dim, P) array), weights
        ``((1 * w0) * w1) * ...``, per line axis the index of its outermost
        node layers in the block's shape, and the block's open mesh
        ``axes``.  On a trailing axis the index takes the first and last
        entry of its dimension, on a leading axis the copies at its first
        and last node (often none).  ``axes[k]`` holds
        axis k's nodes: a ``(copies, 1, ..., 1)`` array on a leading axis,
        and on a trailing axis its distinct nodes along its own dimension of
        the sub-mesh.  They broadcast against each other to the block's
        shape ``(copies, *trailing shape)``, whose C order is the row order
        of the points.  A product over axes formed on them, left to right
        in axis order as the weights are, gives every row the value the
        dense columns would, to the bit; only the products across the
        lead/tail split are full size."""
        split, _, leads = self._blocks(rows)
        tail = self.shape[split:]
        trailing = [i[None] for i in np.ix_(*map(np.arange, tail))]
        lines = [k for k, dom in enumerate(self.domains) if dom.kind == "line"]
        for lead in leads:
            idx = [i.reshape((-1,) + (1,) * len(tail)) for i in lead] + trailing
            axes = [nodes[i] for nodes, i in zip(self.axis_nodes, idx)]
            pts = np.empty((self.dim, lead.shape[1]) + tail)
            w = np.ones(1)
            for k, (weights, i) in enumerate(zip(self.axis_weights, idx)):
                pts[k] = axes[k]
                w = w * weights[i]
            edges = [
                (slice(None),) * (1 + k - split) + ([0, -1],) if k >= split
                else (np.flatnonzero((lead[k] == 0) | (lead[k] == self.shape[k] - 1)),)
                for k in lines
            ]
            yield pts.reshape(self.dim, -1).T, np.broadcast_to(w, pts.shape[1:]).ravel(), edges, axes


@dataclass(frozen=True)
class MeshField:
    """The field ``points -> fn(points, axes)`` that also reads each block's
    open mesh ``axes`` (see :meth:`Grid._slabs`), so that a separable
    factor is evaluated once per distinct node of its axis.  It has no
    closed route and is always walked."""

    fn: Callable[[np.ndarray, list], np.ndarray]


@dataclass(frozen=True)
class JetFormField:
    """The field ``points -> j_a^T M j_b`` over the jets ``j_a`` of a group
    of test functions; for one test function, ``j^T M j``.

    ``form`` is the constant (J, J) matrix ``M`` over the jet coordinates of
    :func:`hamstab.testfunctions.jet_orders`, a (K, J, J) stack of such
    matrices, symmetric where ``a != b``, or a per-point form: a function
    ``points -> (N, J, J)`` of symmetric matrices that every pair shares.
    ``pairs`` gives each form's test functions ``(a, b)`` (None: one test
    function, every constant form on ``(0, 0)``).  ``coords`` gives the
    (N, kJ) concatenated jet coordinates of the k test functions, ``terms``
    each one's separable terms (None if one has none) and ``gaussian`` the
    Gaussian terms ``(A, center, K)`` of a single test function (None if it
    has none).  :func:`integrate` sum-factorizes a constant form with
    ``terms``, then takes the mesh moments of ``gaussian``, and otherwise
    walks ``coords`` on the mesh.
    """

    form: np.ndarray | Callable[[np.ndarray], np.ndarray]
    terms: list | None = None
    coords: Callable[[np.ndarray], np.ndarray] | None = None
    gaussian: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    pairs: list[tuple[int, int]] | None = None

    @property
    def single(self) -> bool:
        """One constant (J, J) form, whose integral is a float."""
        return not callable(self.form) and self.form.ndim == 2

    def pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (K,) test-function indices ``a`` and ``b`` of the forms."""
        pairs = np.array(self.pairs or [(0, 0)] * (1 if self.single else len(self.form)), dtype=int)
        return pairs[:, 0], pairs[:, 1]


def build_grid(
    domains,
    spec: GridSpec | None = None,
    boxes=None,
) -> Grid:
    """Build the tensor grid for ``domains``.

    ``boxes`` supplies per-axis truncation half-widths for line axes (taken
    from the test function being integrated); ``spec.line_box`` overrides
    them uniformly.  A box larger than the domain's own truncation is a
    support error.
    """
    spec = spec or GridSpec()
    domains = tuple(domains)
    nodes: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    used_boxes: list[float | None] = []
    for j, dom in enumerate(domains):
        if dom.kind == "circle":
            m = spec.circle_nodes
            h = dom.size / m
            nodes.append(np.arange(m) * h)
            weights.append(np.full(m, h))
            used_boxes.append(None)
        else:
            box = _line_box(j, dom, spec, boxes)
            x, w = _gauss_legendre(spec.line_nodes)
            nodes.append(x * box)
            weights.append(w * box)
            used_boxes.append(box)
    return Grid(domains, tuple(nodes), tuple(weights), tuple(used_boxes))


def _line_box(j: int, dom: AxisDomain, spec: GridSpec, boxes) -> float:
    box = spec.line_box
    if box is None and boxes is not None and boxes[j] is not None:
        box = float(boxes[j])
    if box is None:
        raise ValueError(f"line axis {j} needs a truncation box")
    if box > dom.size * (1 + 1e-12):
        raise SupportError(f"axis {j}: requested box {box} exceeds the domain truncation {dom.size}")
    return box


def check_line_boxes(domains, spec: GridSpec | None = None, boxes=None) -> None:
    """Raise exactly as :func:`build_grid` would for these line boxes,
    without building the grid."""
    spec = spec or GridSpec()
    for j, dom in enumerate(domains):
        if dom.kind == "line":
            _line_box(j, dom, spec, boxes)


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], shared by every
    grid with ``m`` line nodes.

    The steps and their order of operations are those of
    ``scipy.special.roots_legendre``: Golub-Welsch eigenvalues of the Jacobi
    matrix, one Newton step, and weights ``1 / (P_{m-1} P_m')``
    log-normalized, symmetrized and scaled to sum to 2.  Both eigenvalue
    solvers end in LAPACK's ``dsterf`` on the same tridiagonal matrix, so for
    even ``m`` the rule is bit-identical to scipy's.  For odd ``m`` the nodes
    are too; the weights differ in the last bits, because scipy evaluates
    ``P_n`` at the middle node by a power series instead of the recurrence.
    Witness probe IDs that rounding decides depend on the last bits of the
    weights, so the rule keeps scipy's steps rather than a more accurate one.
    """
    k = np.arange(1, m, dtype=float)
    off = k * np.sqrt(1.0 / (4 * k * k - 1))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    y = _legendre(m, x)
    dy = (-m * x * y + m * _legendre(m - 1, x)) / (1 - x**2)
    x -= y / dy
    # P_{m-1} and P_m' span many orders of magnitude: normalize each by the
    # geometric mean of its extremes before the product
    fm = _legendre(m - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    """The Legendre polynomial ``P_n``, ``n >= 1``, at ``x`` by the
    recurrence for ``d = P_k - P_{k-1}`` that ``scipy.special.eval_legendre``
    runs."""
    d = x - 1
    p = x.copy()
    for kk in range(1, n):
        k = float(kk)
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p += d
    return p


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise reduction of a 1-d array."""
    v = np.asarray(values, dtype=float).ravel()
    while v.size > 1:
        v = _pair_level(v)
    return float(v[0]) if v.size else 0.0


def _pair_level(v: np.ndarray) -> np.ndarray:
    """One level of :func:`pairwise_sum` along the last axis: adjacent pairs
    summed, an odd last element carried to the end."""
    even = v.shape[-1] - v.shape[-1] % 2
    head = v[..., 0:even:2] + v[..., 1:even:2]
    # the sum numpy's reduction gives a pair, which starts from +0.0: a pair
    # of -0.0 sums to +0.0
    head += 0.0
    return head if even == v.shape[-1] else np.concatenate([head, v[..., even:]], axis=-1)


def _block_sums(values: np.ndarray, block: int) -> np.ndarray:
    """Partial pairwise sums along the last axis of ``values``, a part of a
    longer sequence that starts at a multiple of the power of two ``block``:
    each full block becomes its pairwise sum and a shorter tail one element.
    No pair of :func:`pairwise_sum`'s tree crosses a block boundary below
    the blocks' own level, so the pairwise sum of the partial sums of all
    parts, in order, equals the pairwise sum of the whole sequence."""
    full = values.shape[-1] - values.shape[-1] % block
    sums = []
    if full:
        head = values[..., :full].reshape(values.shape[:-1] + (-1, block))
        while head.shape[-1] > 1:
            head = _pair_level(head)
        sums.append(head[..., 0])
    tail = values[..., full:]
    while tail.shape[-1] > 1:
        tail = _pair_level(tail)
    return np.concatenate([*sums, tail], axis=-1)


def integrate(field, domains, spec: GridSpec | None = None, boxes=None):
    """Integrate a field over the tensor grid.

    Raises :class:`SupportError` if the field fails to vanish (relative to
    its own scale, threshold 1e-10) on the outermost line-axis node layers.
    A :class:`JetFormField` with a constant form is sum-factorized when it
    has separable terms, else integrated from mesh moments when it has
    Gaussian terms, where the route's edge bound passes :func:`_form_sums`;
    a (K, J, J) stack of forms, or K pairs on a per-point form, returns a
    (K,) array.  Any other field is walked on the mesh.
    """
    grid = build_grid(domains, spec, boxes)
    if isinstance(field, JetFormField) and not callable(field.form):
        for data, route in ((field.terms, _sum_factorized), (field.gaussian, _gaussian_moments)):
            if data is not None:
                sums = _form_sums(field, *route(grid, data))
                if sums is not None:
                    return sums
    return _walk_mesh(grid, field)


def _walk_mesh(grid: Grid, field):
    """The mesh sum of ``field(points)``, one :meth:`Grid._slabs` block of
    up to :data:`BLOCK_ROWS` rows at a time, with the support-leak check.  A
    :class:`JetFormField` forms each block's jet coordinates once: the
    coordinates ``c_a`` of each test function times every constant form
    ``M_k`` on its left, in one product ``c_a @ [M_k | ...]``, give every
    ``c_a M_k``, or, on a per-point form, ``c_a M(x)`` from the block's one
    evaluation of ``M(x)``; each form's ``c_a M_k c_b`` is summed and
    leak-checked on its own."""
    grid._check_size()
    stack = isinstance(field, JetFormField)
    if stack:
        size = len(jet_orders(grid.dim))
        left, right = field.pair_indices()
        pointwise = callable(field.form)
        # the forms on each left test function, and their side-by-side matrix
        by_left = {a: np.flatnonzero(left == a) for a in dict.fromkeys(left.tolist())}
        if not pointwise:
            forms = field.form.reshape(-1, size, size)
            wide = {a: np.concatenate(forms[ks], axis=1) for a, ks in by_left.items()}

    def values(pts, axes):
        if not stack:
            return np.asarray(field.fn(pts, axes) if isinstance(field, MeshField) else field(pts), dtype=float)[None]
        c = field.coords(pts)
        jets = [c[:, a * size : (a + 1) * size] for a in range(c.shape[1] // size)]
        point_form = np.broadcast_to(field.form(pts), (len(c), size, size)) if pointwise else None
        out = np.empty((len(left), len(c)))
        for a, ks in by_left.items():
            if pointwise:
                cm = np.broadcast_to(np.einsum("np,npq->nq", jets[a], point_form)[:, None], (len(c), len(ks), size))
            else:
                cm = (jets[a] @ wide[a]).reshape(len(c), len(ks), size)
            # one contraction per form: each value rounds as a lone form's would
            for i, k in enumerate(ks):
                out[k] = np.einsum("np,np->n", cm[:, i], jets[right[k]])
        return out

    lines = [j for j, dom in enumerate(grid.domains) if dom.kind == "line"]
    peaks = 0.0
    leaks = [0.0] * len(lines)
    parts = []
    block = 0
    for pts, w, edges, axes in grid._slabs(BLOCK_ROWS):
        # the largest power of two dividing the first block's length: every
        # block starts at a multiple of it
        block = block or len(w) & -len(w)
        vals = values(pts, axes)
        mags = np.abs(vals)
        peaks = np.maximum(peaks, np.max(mags, axis=1, initial=0.0))
        # each form's values in the block's shape (copies, *trailing shape)
        shaped = mags.reshape(len(mags), *np.broadcast_shapes(*(x.shape for x in axes)))
        rest = tuple(range(1, shaped.ndim))
        for a, edge in enumerate(edges):
            leaks[a] = np.maximum(leaks[a], np.max(shaped[(slice(None), *edge)], axis=rest, initial=0.0))
        parts.append(_block_sums(vals * w, block))
    for k, peak in enumerate(peaks):
        threshold = LEAK_RTOL * (1.0 + float(peak))
        for j, leak in zip(lines, leaks):
            if leak[k] > threshold:
                raise SupportError(
                    f"axis {j}: field magnitude {leak[k]:.3e} at the box boundary "
                    f"(threshold {threshold:.3e}); enlarge the box or shrink the support"
                )
    sums = np.array([pairwise_sum(p) for p in np.concatenate(parts, axis=1)])
    return float(sums[0]) if not stack or field.single else sums


def _form_sums(field: JetFormField, gram: np.ndarray, bounds):
    """``<M_k, (G_ab + G_ba) / 2>`` for each form ``M_k`` of the field and
    its pair ``(a, b)``, from the (k, k, J, J) block Gram ``G`` (``<M, G_aa>``
    when ``a == b``): a float for a (J, J) form, a (K,) array for a stack.
    None when ``B^T |M_k| B > 1e-10`` for a form and a line axis's bound
    ``B`` on ``|j_a|``, or on ``|j_a + j_b|`` (``B_a + B_b``) when ``a !=
    b``, over its edge layer (the closed routes' leak rule: for a pair, the
    rule on the ``u_a + u_b`` whose value the pair polarizes)."""
    forms = field.form.reshape((-1,) + field.form.shape[-2:])
    a, b = field.pair_indices()
    magnitudes = np.abs(forms)
    for B in bounds:
        edge = np.where((a != b)[:, None], B[a] + B[b], B[a])
        if np.any(np.einsum("kp,kpq,kq->k", edge, magnitudes, edge) > LEAK_RTOL):
            return None
    values = np.einsum("kpq,kpq->k", forms, (gram[a, b] + gram[b, a]) / 2)
    return float(values[0]) if field.single else values


def _sum_factorized(grid: Grid, terms):
    """``(G, bounds)`` for the (k, k, J, J) block Gram ``G_ab = sum_x w(x)
    j_a(x) j_b(x)^T`` of k test functions given as lists of separable
    terms, from one table of per-axis Gram matrices of all their factor
    terms, with (k, J) edge bounds per line axis from per-axis maxima.

    With ``j_ap = sum_{t in a} c_t prod_k f_tk^(o_pk)`` for the orders
    ``o_p`` of coordinate ``p``, ``G_ab[p, q] = sum_{t in a, s in b} c_t c_s
    prod_k G_k[f_tk, f_sk, o_pk, o_qk]`` where ``G_k[f, g, o, o'] = sum_i
    w_ki f^(o)(x_ki) g^(o')(x_ki)`` over the distinct axis-k factors, which
    the test functions of a witness pool share.  A single test function is
    ``k = 1``.

    Factors are distinct by value: those with equal
    :attr:`~hamstab.testfunctions.Func1D.key` have the same jet to the bit,
    so each key takes one ``jet1`` call and one row of ``G_k``.  An entry of
    ``G_k`` does not depend on the other rows it is computed with, so the
    grouping changes no bit of ``G``.  Nothing is kept between calls.
    """
    flat = [term for probe in terms for term in probe]
    # each test function's first term
    starts = np.cumsum([0] + [len(probe) for probe in terms[:-1]])
    coefs = np.array([c for c, _ in flat], dtype=float)
    orders = jet_orders(grid.dim)
    # per axis k: jets[k] (factor, derivative order, nodes) of the distinct
    # factors, and which[k] each term's factor among them
    jets, which = [], []
    for k, nodes in enumerate(grid.axis_nodes):
        distinct: dict = {}  # each key's row and its first factor
        rows = []
        for _, factors in flat:
            f = factors[k]
            rows.append(distinct.setdefault(f if f.key is None else f.key, (len(distinct), f))[0])
        which.append(np.array(rows))
        jets.append(np.array([f.jet1(nodes) for _, f in distinct.values()]))
    # per axis, each term's largest |f^(o)| over the nodes at the orders o
    # of the coordinates (T, J); an edge bound takes its axis's edge nodes
    magnitudes = [np.abs(jk) for jk in jets]
    peaks = [m.max(axis=2)[i[:, None], o] for m, i, o in zip(magnitudes, which, orders.T)]
    bounds = []
    for j, dom in enumerate(grid.domains):
        if dom.kind == "line":
            edge = np.maximum(magnitudes[j][:, :, 0], magnitudes[j][:, :, -1])[which[j][:, None], orders[:, j]]
            term_bounds = np.abs(coefs)[:, None] * edge
            for k in range(grid.dim):
                if k != j:
                    term_bounds = term_bounds * peaks[k]
            bounds.append(np.add.reduceat(term_bounds, starts))
    prod = 1.0
    for k, (jk, i) in enumerate(zip(jets, which)):
        gram = np.einsum("tai,i,sbi->tsab", jk, grid.axis_weights[k], jk)
        o = orders[:, k]
        prod = prod * gram[i[:, None, None, None], i[None, :, None, None], o[:, None], o[None, :]]
    pairs = np.multiply.outer(coefs, coefs)[:, :, None, None] * prod
    return np.add.reduceat(np.add.reduceat(pairs, starts, axis=0), starts, axis=1), bounds


def _gaussian_moments(grid: Grid, gaussian):
    """``(G, bounds)`` for the weighted jet Gram ``G`` of the Gaussian
    ``u = exp(-t^T A t / 2)``, ``t = s - c``, from mesh moments, as a
    (1, 1, J, J) block Gram with (1, J) bounds.

    With ``(A, c, K)`` of
    :meth:`~hamstab.testfunctions.TestFunction.gaussian_terms` the jet is
    ``u K m(t)`` for the monomials ``m(t) = t^a``, ``|a| <= 2``, so
    ``G = K Mom K^T`` with ``Mom[a, b] = S[a + b]`` and
    ``S[g] = sum_x w(x) u(x)^2 t^g``, ``g`` of degree at most 4 per axis.
    Only ``u^2`` does not separate: it is evaluated once per point of the
    leading rows summed, in the blocks of :meth:`Grid._blocks`, as
    ``exp(-(q_lead + q_tail + 2 t_lead^T A t_tail))`` over a block's leading
    rows and its trailing sub-mesh, and each node axis is contracted in turn
    against its table ``w_k t_k^g``.  A line axis k bounds ``|j|`` on its
    edge layers by ``exp(-t_edge^2 / (2 (A^-1)_kk))``, the largest ``u`` on
    the hyperplane of the edge node nearer to ``c``, times ``B = |K| T^a``
    for ``T_l = max |t_l|``.

    A leading row whose ``u^2`` cannot reach the last bit of ``G`` is not
    summed.  Over its trailing sub-mesh, ``t^T A t`` is at least ``t_lead^T
    S t_lead`` for the Schur complement ``S = A_ll - A_lt A_tt^-1 A_tl``, so
    the rows past a cut ``L`` add at most ``e^-L W B_p B_q`` to ``G_pq``,
    with ``W = prod_k sum_i w_ki``.  :func:`_moment_cut` gives the least
    ``L`` that keeps this within ``2^-64 sqrt(G_pp G_qq)``.  It is derived
    first from the one block of rows nearest ``c``, with a factor 2 to
    spare, and checked on the Gram of the rows kept.  Both diagonals are
    lower bounds of the full one, so the check is conservative; when it
    fails, every row is summed.  A mesh of one block is summed whole.

    ``K m(t)`` cancels where ``|t|`` is large along a wide direction of
    ``u``: ``y = A t`` is then much smaller than its terms ``A_kl t_l``, and
    a product of two Hessian coordinates ``y_i y_j - A_ij`` much smaller
    than the moments ``K`` combines (about 1300 times for ``dirgauss:w`` on
    ``n = 4``, whose ``A`` has eigenvalues 1/6 and 1).  So the tables, the
    contractions and ``K Mom K^T`` are carried in ``np.longdouble`` (11 more
    bits on x86), and only ``G`` is rounded to float64.  ``u^2`` stays
    float64: its rounding scales a whole point's ``j j^T`` and does not
    cancel.
    """
    grid._check_size()
    A, center, K = gaussian
    n = grid.dim
    orders = jet_orders(n)
    t = [nodes - c for nodes, c in zip(grid.axis_nodes, center)]
    tables = [
        w.astype(np.longdouble)[:, None] * (nodes.astype(np.longdouble) - c)[:, None] ** np.arange(5)
        for nodes, w, c in zip(grid.axis_nodes, grid.axis_weights, center)
    ]
    split, step, _ = grid._blocks(BLOCK_ROWS)
    tail = grid.shape[split:]
    sub = _unravel(np.arange(math.prod(tail)), tail)
    t_tail = np.reshape([t[k][i] for k, i in enumerate(sub, split)], sub.shape)
    # -q over the trailing sub-mesh, and -2 A t_tail for the cross term
    q_tail = -np.einsum("kx,kl,lx->x", t_tail, A[split:, split:], t_tail)
    cross = -2.0 * A[:split, split:] @ t_tail
    K_ext = K.astype(np.longdouble)
    monomials = tuple(np.moveaxis(orders[:, None] + orders[None], -1, 0))

    def gram(rows):
        # G summed over the given leading rows (flat indices, in order)
        moments = np.longdouble(0.0)
        for lead in grid._blocks(BLOCK_ROWS, rows)[2]:
            t_lead = np.reshape([t[k][i] for k, i in enumerate(lead)], lead.shape)
            u2 = t_lead.T @ cross
            u2 -= np.einsum("kx,kl,lx->x", t_lead, A[:split, :split], t_lead)[:, None]
            u2 += q_tail
            np.exp(u2, out=u2)
            # contract the trailing axes from the last: their powers come out in
            # reverse axis order
            y = u2.astype(np.longdouble).reshape(u2.shape[:1] + tail)
            for k in reversed(range(split, n)):
                y = np.tensordot(y, tables[k], axes=([k - split + 1], [0]))
            lead_table = np.ones((len(u2), 1), dtype=np.longdouble)
            for k, i in enumerate(lead):
                lead_table = (lead_table[:, :, None] * tables[k][i][:, None, :]).reshape(len(u2), -1)
            moments = moments + lead_table.T @ y.reshape(len(u2), -1)
        moments = np.reshape(moments, (5,) * n).transpose(list(range(split)) + list(range(n - 1, split - 1, -1)))
        return (K_ext @ moments[monomials] @ K_ext.T).astype(float)

    peaks = np.prod(np.array([np.max(np.abs(tk)) for tk in t]) ** orders, axis=1)
    jet_bound = np.abs(K) @ peaks
    variances = np.diag(np.linalg.inv(A))
    bounds = [
        np.exp(-min(abs(t[k][0]), abs(t[k][-1])) ** 2 / (2.0 * variances[k])) * jet_bound[None]
        for k, dom in enumerate(grid.domains)
        if dom.kind == "line"
    ]
    volume = math.prod(float(np.sum(w)) for w in grid.axis_weights)
    lead_shape = grid.shape[:split]
    lead_rows = _unravel(np.arange(math.prod(lead_shape)), lead_shape)
    t_rows = np.reshape([t[k][i] for k, i in enumerate(lead_rows)], lead_rows.shape)
    schur = A[:split, :split] - A[:split, split:] @ np.linalg.solve(A[split:, split:], A[split:, :split])
    # each leading row's least t^T A t over every t_tail
    least = np.einsum("kx,kl,lx->x", t_rows, schur, t_rows)
    every = np.arange(len(least))
    if len(least) <= step:
        return gram(every)[None, None], bounds
    # the block nearest c bounds G_pp from below and is always kept
    nearest = np.sort(np.argsort(least, kind="stable")[:step])
    cut = _moment_cut(np.diag(gram(nearest)), jet_bound, volume) + math.log(2.0)
    kept = np.flatnonzero(least <= max(cut, least[nearest].max()))
    G = gram(kept)
    if len(kept) < len(least) and _moment_cut(np.diag(G), jet_bound, volume) > cut:
        G = gram(every)
    return G[None, None], bounds


def _moment_cut(diagonal: np.ndarray, jet_bound: np.ndarray, volume: float) -> float:
    """The least ``L`` with ``e^-L W B_p B_q <= 2^-64 sqrt(G_pp G_qq)`` for
    every ``p, q`` (see :func:`_gaussian_moments`), given the diagonal
    ``G_pp``, the jet bounds ``B`` and the mesh volume ``W``; infinite when
    some ``G_pp <= 0`` has ``B_p > 0``."""
    live = jet_bound > 0
    if np.any(diagonal[live] <= 0):
        return math.inf
    return 64 * math.log(2.0) + math.log(volume) + float(np.max(np.log(jet_bound[live] ** 2 / diagonal[live])))


def _unravel(flat: np.ndarray, shape) -> np.ndarray:
    """The (len(shape), len(flat)) per-axis indices of flat indices into a
    mesh of the given shape."""
    return np.reshape(np.unravel_index(flat, shape) if shape else (), (len(shape), len(flat)))
