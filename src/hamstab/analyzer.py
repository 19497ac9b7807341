"""Definiteness analysis of the second-variation quadratic forms.

A verdict label is never certified from finitely many eigenvalues alone:
``indefinite`` requires explicit test functions of both signs (re-evaluated
through the quadrature path), while ``positive_definite`` and
``negative_definite`` require an analytic certificate, either a signed
pointwise sum-of-squares rewriting of the integrand (derived from a
constant jet form, supplied for a point-dependent one) or a
first-eigenvalue criterion.  Everything else is ``inconclusive``, with the
evidence used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import quadrature
from .catalog import CatalogEntry, SumOfSquares
from .immersion import AxisDomain, LagrangianChart
from .quadrature import MAX_MESH_POINTS, GridSpec, GridTooLargeError, MeshField, build_grid, check_line_boxes, integrate
from .testfunctions import (
    AnisotropicGaussian,
    AxisScaled,
    Const1D,
    Cos1D,
    Gauss1D,
    LinComb,
    PlaneWaveCos,
    Separable,
    TestFunction,
    compatible_with,
    jet_orders,
)
from .variation import (
    SOS_RESIDUAL_TOL,
    _check_compatible,
    _functional_form,
    _jet_form,
    _pair_values,
    _point_forms,
    as_functional,
    sos_certificate,
    symbol,
)

__all__ = [
    "ModeVector",
    "Witness",
    "EvidenceRecord",
    "StabilityVerdict",
    "torus_mode_value",
    "assemble_form",
    "classify",
    "scaling_probe",
    "ScalingReport",
    "spectral_criterion",
    "SpectralReport",
    "hyperbola_matrix_analysis",
    "HyperbolaMatrixReport",
    "hyperbola_direction_probes",
    "gradient_form_value",
    "verify_certificate",
    "wirtinger_bound",
    "WirtingerReport",
    "witness_library",
    "compute_tube_table",
]

WITNESS_RTOL = 1e-8
# Note of the evidence record carrying (Q(u_w), Q(u_e1)) as (min, max).
GRADIENT_FORM_NOTE = "gradient-form values Q(u_w), Q(u_e1) of the direction probes"
# Relative gap below which two probe values are a rounding-level tie.
TIE_RTOL = 1e-12
# Grid rows at which a point-dependent certificate's jet form is compared.
CERTIFICATE_ROWS = 20000
# Largest |k_j| of the modes k of a lattice scan.
MODE_BOUND = 4

LABEL_POSITIVE = "positive_definite"
LABEL_NEGATIVE = "negative_definite"
LABEL_INDEFINITE = "indefinite"
LABEL_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ModeVector:
    """Integer Fourier mode on torus axes; not all components zero."""

    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.k):
            raise ValueError("mode vector must be nonzero")


@dataclass
class Witness:
    probe_id: str
    value: float

    def to_json_dict(self) -> dict:
        return {"probe_id": self.probe_id, "value": self.value}


@dataclass
class EvidenceRecord:
    basis_size: int
    min_eig: float
    max_eig: float
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "basis_size": self.basis_size,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "note": self.note,
        }


@dataclass
class StabilityVerdict:
    label: str
    witness_pos: Witness | None = None
    witness_neg: Witness | None = None
    evidence: list[EvidenceRecord] = field(default_factory=list)
    strategy: str = ""
    catalog_id: str = ""
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "catalog_id": self.catalog_id,
            "label": self.label,
            "strategy": self.strategy,
            "witnesses": [
                w.to_json_dict() for w in (self.witness_pos, self.witness_neg) if w is not None
            ],
            "evidence": [e.to_json_dict() for e in self.evidence],
            "grid": self.grid,
            "tolerances": self.tolerances,
            "notes": self.notes,
        }


# ------------------------------------------------------------- closed forms

def torus_mode_value(radii, p: int, k) -> float:
    """Closed-form second variation of ``cos(sum_j k_j s_j / r_j)`` on the
    circle product with Hermitian signs from ``p``.

    With ``m_j = k_j / r_j`` and ``Vol = prod 2 pi r_j`` the value is
    ``(Vol/2) * ((sum eps_j m_j^2)^2 + (sum eps_j m_j / r_j)^2
    - 2 sum m_j^2 / r_j^2)``.
    """
    r = np.asarray(radii, dtype=float)
    kk = k.k if isinstance(k, ModeVector) else tuple(int(x) for x in k)
    if not any(kk):
        raise ValueError("zero mode")
    if not 0 <= p <= len(r):
        raise ValueError(f"p out of range for n={len(r)}")
    if min(radii) <= 0:  # once per row of a mode sweep: the builtin is the cheapest test
        raise ValueError("radii must be positive")
    eps = np.array([-1.0] * p + [1.0] * (len(r) - p))
    m = np.asarray(kk, dtype=float) / r
    vol = float(np.prod(2 * np.pi * r))
    a = float(np.sum(eps * m * m))
    b = float(np.sum(eps * m / r))
    return 0.5 * vol * (a * a + b * b - 2.0 * float(np.sum(m * m / r / r)))


def torus_mode_function(radii, k) -> PlaneWaveCos:
    """The torus mode ``cos(sum_j k_j s_j / r_j)`` as a labeled plane wave."""
    r = np.asarray(radii, dtype=float)
    kk = np.asarray(k.k if isinstance(k, ModeVector) else k, dtype=float)
    return PlaneWaveCos(kk / r, label=f"mode:k={','.join(f'{int(x)}' for x in kk)}")


# ------------------------------------------------------------ form assembly

def assemble_form(functional, basis, gridspec: GridSpec | None = None) -> np.ndarray:
    """Polarized Gram matrix ``Q_ab = (V(u_a + u_b) - V(u_a - u_b)) / 4``.

    This is ``int j_a^T F j_b`` for the functional's jet form ``F``,
    constant or per point: the request ``(a, b, F)`` of
    :func:`_pair_values` for each ``a <= b``, on the grid of ``u_a`` for a
    diagonal entry and that of ``u_a + u_b`` for the others, one
    integration per box set and no evaluation of ``u_a + u_b`` or ``u_a -
    u_b``.  Symmetric by construction; the diagonal is the direct value on
    each basis function.
    """
    functional = as_functional(functional)
    k = len(basis)
    Q = np.empty((k, k))
    form = _functional_form(functional)
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    values = _pair_values(functional.domains, basis, [(a, b, form) for a, b in pairs], gridspec)
    for (a, b), value in zip(pairs, values):
        Q[a, b] = Q[b, a] = value
    return Q


# --------------------------------------------------------------- mode scans

def _canonical_modes(n: int, bound: int) -> np.ndarray:
    """The (N, n) ``int8`` nonzero integer modes with ``|k_j| <= bound``
    whose first nonzero entry is positive, one of each pair ``k, -k``, in
    lexicographic order: the flat indices above the centre of the ``(2
    bound + 1)^n`` box, unravelled axis by axis into ``int8`` columns.
    Raises :class:`~hamstab.quadrature.GridTooLargeError` before allocating
    when N exceeds :data:`~hamstab.quadrature.MAX_MESH_POINTS`."""
    side = 2 * bound + 1
    count = (side**n - 1) // 2
    if count > MAX_MESH_POINTS:
        raise GridTooLargeError(
            f"a lattice scan of {n} axes with |k_j| <= {bound} has {count} modes, "
            f"more than the {MAX_MESH_POINTS} allowed"
        )
    # the cap keeps side**n = 2 count + 1 within int32
    flat = np.arange(count + 1, side**n, dtype=np.int32)
    out = np.empty((count, n), dtype=np.int8)
    for j in reversed(range(n)):
        np.remainder(flat, side, out=out[:, j], casting="unsafe")
        flat //= side
    out -= bound
    return out


@dataclass
class SpectralReport:
    lam1: float
    c: float
    verdict: str
    mode_table: list[tuple[tuple[int, ...], float, float]]


def spectral_criterion(lattice_radii, c: float) -> SpectralReport:
    """First-eigenvalue criterion on a flat torus with the given radii.

    ``lam_k = sum (k_j / r_j)^2`` over the nonzero integer modes with
    ``|k_j| <= MODE_BOUND``; the form
    ``sum a_i^2 lam_i (lam_i - c)`` is definite iff ``lam_1 >= c``.
    """
    r = np.asarray(lattice_radii, dtype=float)
    rows = []
    for k in map(tuple, _canonical_modes(len(r), MODE_BOUND).tolist()):
        lam = float(np.sum((np.asarray(k) / r) ** 2))
        rows.append((k, lam, lam * (lam - c)))
    rows.sort(key=lambda row: (row[1], row[0]))
    lam1 = rows[0][1]
    return SpectralReport(lam1=lam1, c=float(c), verdict="stable" if lam1 >= c else "unstable", mode_table=rows)


# --------------------------------------------------- hyperbola gradient form

@dataclass
class HyperbolaMatrixReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inertia: tuple[int, int, int]
    w_direction: np.ndarray
    w_value: float
    e1_value: float


def hyperbola_matrix_analysis(radii, branch_signs) -> HyperbolaMatrixReport:
    """Representing matrix of the gradient form
    ``Q(du, du) = sum u_j^2 / r_j^2 - 2 sum_{j<k} e_j e_k u_j u_k / (r_j r_k)``,

    namely ``M_Q = 2 diag(1/r_j^2) - v v^T`` with ``v_j = e_j / r_j``, its
    inertia, and the explicit sign directions: ``w_j = e_j r_j`` with
    ``w^T M_Q w = 2n - n^2`` (negative for n >= 3) and ``e_1`` with value
    ``1 / r_1^2``.
    """
    mq = _mq_matrix(radii, branch_signs)
    eigvals, eigvecs = np.linalg.eigh(mq)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(eigvals))))
    inertia = (
        int(np.sum(eigvals > tol)),
        int(np.sum(eigvals < -tol)),
        int(np.sum(np.abs(eigvals) <= tol)),
    )
    w = np.asarray(branch_signs, dtype=float) * np.asarray(radii, dtype=float)
    return HyperbolaMatrixReport(
        matrix=mq,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        inertia=inertia,
        w_direction=w,
        w_value=float(w @ mq @ w),
        e1_value=float(mq[0, 0]),
    )


def _mq_matrix(radii, branch_signs) -> np.ndarray:
    """``M_Q = 2 diag(1/r_j^2) - v v^T``, ``v_j = e_j / r_j``, of
    :func:`hyperbola_matrix_analysis`, without its eigen-analysis; for
    ``(..., n)`` stacks of radii and signs, the ``(..., n, n)`` stack of
    their matrices, each elementwise, so with the bits of its own call."""
    r = np.asarray(radii, dtype=float)
    n = r.shape[-1]
    if n < 2:
        raise ValueError("the matrix analysis needs n >= 2")
    v = np.asarray(branch_signs, dtype=float) / r
    return 2.0 * (np.eye(n) * (1.0 / r**2)[..., None, :]) - v[..., :, None] * v[..., None, :]


def gradient_form_value(radii, branch_signs, u: TestFunction, gridspec: GridSpec | None = None) -> float:
    """Quadrature value of ``int Q(du, du) ds`` for the hyperbola gradient form:
    the jet form with ``M_Q`` in its gradient block."""
    mq = _mq_matrix(radii, branch_signs)
    return _pair_values(tuple(AxisDomain.line() for _ in radii), [u], [(0, 0, _gradient_jet_form(mq))], gridspec)[0]


def _gradient_jet_form(mq: np.ndarray) -> np.ndarray:
    """The jet form with ``mq`` in its gradient block."""
    n = len(mq)
    form = np.zeros((len(jet_orders(n)),) * 2)
    form[1 : n + 1, 1 : n + 1] = mq
    return form


def _directional_gaussian(direction, narrow: float, wide: float, label: str) -> AnisotropicGaussian:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    proj = np.outer(d, d)
    A = proj / narrow**2 + (np.eye(len(d)) - proj) / wide**2
    return AnisotropicGaussian(A, label=label)


def hyperbola_direction_probes(radii, branch_signs):
    """Gaussian probes whose gradients concentrate along the sign directions
    of ``M_Q``.  For a probe narrow across direction d the Gaussian-moment
    identity gives ``int Q(du,du) = Z * tr(M_Q A) / 2``, so the wide width is
    chosen so the d-term dominates with a factor-2 margin.
    """
    rep = hyperbola_matrix_analysis(radii, branch_signs)
    n = len(rep.w_direction)
    what = rep.w_direction / np.linalg.norm(rep.w_direction)
    wmw = float(what @ rep.matrix @ what)
    if wmw >= 0:
        raise ValueError("the w direction is only negative for n >= 3")
    rest = float(np.trace(rep.matrix)) - wmw
    wide = max(np.sqrt(2.0 * rest / abs(wmw)), 2.0)
    u_w = _directional_gaussian(what, 1.0, wide, label="dirgauss:w")
    e1 = np.eye(n)[0]
    u_e1 = _directional_gaussian(e1, 1.0, 3.0, label="dirgauss:e1")
    return u_w, u_e1, rep


# ------------------------------------------------------------ scaling probes

@dataclass
class ScalingReport:
    """Values ``(t, V(u^t))`` of a dilation family.  Per entry, ``norms``
    holds ``int (u^t)^2`` and ``probes`` the member ``u^t``; ``extras`` holds
    the sums of the requested extra jet forms on the jets of ``u`` itself.
    ``positives`` and ``negatives`` are the ``t`` whose value clears the
    witness threshold (:func:`_clears`) with that sign."""

    probe_label: str
    axes: tuple[int, ...]
    prefactor_exponent: float
    entries: list[tuple[float, float]]
    norms: list[float] = field(default_factory=list)
    probes: list[TestFunction] = field(default_factory=list)
    extras: list[float] = field(default_factory=list)

    @property
    def positives(self) -> list[float]:
        return [t for (t, v), norm2 in zip(self.entries, self.norms) if _clears(1, v, norm2)]

    @property
    def negatives(self) -> list[float]:
        return [t for (t, v), norm2 in zip(self.entries, self.norms) if _clears(-1, v, norm2)]

    @property
    def sign_change(self) -> bool:
        return bool(self.positives) and bool(self.negatives)


def scaling_probe(
    functional,
    u: TestFunction,
    t_schedule,
    axes=None,
    prefactor_exponent: float | None = None,
    gridspec: GridSpec | None = None,
    extra_forms=(),
) -> ScalingReport:
    """Evaluate the functional on the scaled family
    ``u^t = t^a u(t s_axes, s_rest)`` over the schedule and report values,
    norms ``int (u^t)^2`` and the sums of ``extra_forms`` (constant jet
    forms) on the jets of ``u``.

    The default exponent for all-axes scaling is ``a = n/2 - 1`` (volume
    normalization); axis-restricted families must state their exponent.

    One pass: when the functional has a constant jet form ``M``, every
    scaled axis is a line axis and the grid takes its boxes from the probe,
    the grid of ``u^t`` is the grid of ``u`` with the scaled axes' nodes and
    weights divided by ``t``.  There the jet coordinate ``c`` of ``u^t`` is
    that of ``u`` times ``t^(a + pi_c)``, ``pi_c`` its derivative count along
    the scaled axes, so every ``V(u^t)`` is ``t^-|axes|`` times the sum of the
    form ``D_t M D_t`` (``D_t = diag(t^(a + pi_c))``) on the jets of ``u``,
    and ``int (u^t)^2`` is ``t^(2a - |axes|) int u^2``: the whole family,
    the norm and the extra forms are requests on ``u``, one integration.
    Otherwise ``V(u^t)`` and ``int (u^t)^2`` are requests on each member.
    All take one :func:`_pair_values`.
    """
    functional = as_functional(functional)
    domains = functional.domains
    n = len(domains)
    axes = tuple(range(n)) if axes is None else tuple(axes)
    if prefactor_exponent is None:
        if len(axes) != n:
            raise ValueError("axis-restricted scaling needs an explicit prefactor exponent")
        prefactor_exponent = n / 2.0 - 1.0
    a = float(prefactor_exponent)
    schedule = [float(t) for t in t_schedule]
    label = u.label or "probe"
    family = [
        AxisScaled(u, [t if j in axes else 1.0 for j in range(n)], t**a, label=f"{label};t={t:g}") for t in schedule
    ]
    report = ScalingReport(label, axes, a, entries=[], probes=family)
    form, norm2 = _functional_form(functional), _norm2_form(n)
    one_pass = (
        not callable(form)
        and (gridspec is None or gridspec.line_box is None)
        and all(domains[j].kind == "line" for j in axes)
        and compatible_with(u, domains)
    )
    if one_pass:
        for ut in family:
            _check_compatible(ut, domains)
            check_line_boxes(domains, gridspec, ut.axis_boxes)
        pi = jet_orders(n)[:, list(axes)].sum(axis=1)
        k = len(axes)
        probes, scales = [u], [(t**-k, t ** (2 * a - k)) for t in schedule]
        requests = [(0, 0, f) for d in (t ** (a + pi) for t in schedule) for f in (np.outer(d, d) * form, norm2)]
    else:
        probes, scales = [*family, u] if extra_forms else family, [(1.0, 1.0)] * len(family)
        requests = [(i, i, f) for i in range(len(family)) for f in (form, norm2)]
    # the extra forms on u, the last probe
    requests += [(len(probes) - 1, len(probes) - 1, f) for f in extra_forms]
    sums = _pair_values(domains, probes, requests, gridspec)
    m = 2 * len(schedule)
    report.entries = [(t, v * s) for t, v, (s, _) in zip(schedule, sums[:m:2], scales)]
    report.norms = [v * s for v, (_, s) in zip(sums[1:m:2], scales)]
    report.extras = sums[m:]
    return report


# ------------------------------------------------------------ curve criterion

@dataclass
class WirtingerReport:
    sup_value: float
    threshold: float | None
    verdict: str
    branch: str


def wirtinger_bound(curve) -> WirtingerReport:
    """Stability criterion for the rank-one surface over a curve.

    Unconditional branch: ``sup (kappa^2 + 2K) <= 0`` gives stability for
    any curve.  Closed curves of length L additionally get the
    first-Fourier-mode bound with threshold ``16 pi^2 / L^2``.  A sup above
    the threshold is inconclusive (the criterion is sufficient only).
    """
    sup = _curvature_sup(curve)
    if sup <= 0.0:
        return WirtingerReport(sup, None, "stable", "pointwise")
    if not curve.closed:
        raise ValueError("the length-based branch needs a closed curve")
    thr = 16.0 * np.pi**2 / curve.length**2
    return WirtingerReport(sup, thr, "stable" if sup <= thr else "inconclusive", "wirtinger")


def _curvature_sup(curve) -> float:
    """``sup (kappa^2 + 2K)`` at 1024 samples over one period of a closed
    curve, or over ``[-20, 20]`` on an open one."""
    if curve.closed:
        s = np.linspace(0.0, curve.length, 1024, endpoint=False)
    else:
        s = np.linspace(-20.0, 20.0, 1024)
    return float(np.max(curve.kappa_fn()(s) ** 2 + 2.0 * curve.K_fn()(s)))


# ------------------------------------------------------------ witness library

def witness_library(domains) -> list[TestFunction]:
    """Named probes adapted to the domain product: ``const``, ``cos1`` and
    ``cos2`` on circle axes, ``gauss1`` and ``gauss4`` on line axes, and
    their products; plus diagonal plane waves on pure torus domains."""
    domains = tuple(domains)
    per_axis: list[list] = []
    for dom in domains:
        if dom.kind == "circle":
            base = 2 * np.pi / dom.size
            opts = [("const", Const1D())]
            opts += [(f"cos{k}", Cos1D(k * base)) for k in (1, 2)]
        else:
            opts = [(f"gauss{w:g}", Gauss1D(w)) for w in (1.0, 4.0)]
        per_axis.append(opts)
    out: list[TestFunction] = []
    for combo in itertools.product(*per_axis):
        if all(name == "const" for name, _ in combo):
            continue
        label = "x".join(name for name, _ in combo)
        out.append(Separable([f for _, f in combo], label=label))
    if all(dom.kind == "circle" for dom in domains) and len(domains) == 2:
        base = [2 * np.pi / dom.size for dom in domains]
        for k in ((1, 1), (1, -1), (2, 1), (1, 2)):
            freqs = [k[0] * base[0], k[1] * base[1]]
            out.append(PlaneWaveCos(freqs, label=f"wave:k={k[0]},{k[1]}"))
    return out


def _norm2_form(n: int) -> np.ndarray:
    """The jet form ``e0 e0^T`` of ``u^2``."""
    form = np.zeros((len(jet_orders(n)),) * 2)
    form[0, 0] = 1.0
    return form


# ------------------------------------------------------------------ classify

def classify(
    target,
    strategy: str | None = None,
    gridspec: GridSpec | None = None,
    seed: int = 0,
) -> StabilityVerdict:
    """Run a classification strategy and return a sound verdict.

    ``target`` is a catalog entry, a chart, or a closed-form functional.
    Strategies: ``fourier_sweep`` (witness library scan; the lattice scan
    on tori), ``scaling_probe`` (dilation families), ``sos_certificate``
    (pointwise signed sum of squares), ``spectral_criterion`` (the lattice
    scan of :func:`_lattice_scan` on circle axes, the curve-length bound on
    rank-one surfaces).  ``inconclusive`` is a valid outcome.

    ``sos_certificate`` derives a constant jet form's certificate from the
    form alone (:func:`hamstab.variation.sos_certificate`): semidefinite
    within ``SOS_RESIDUAL_TOL``, with the kernel read from its blocks on the
    admissible class (periodic on circle axes, compactly supported on line
    axes, constants excluded only when every axis is a circle).  A
    point-dependent form takes the entry's caller-supplied ``SumOfSquares``,
    compared with the integrand at rows that ``seed`` draws.
    """
    entry = _as_entry(target)
    strategy = strategy or entry.default_strategy
    gridspec = gridspec or entry.default_gridspec
    if strategy == "fourier_sweep":
        verdict = _classify_fourier(entry, gridspec)
    elif strategy == "sos_certificate":
        verdict = _classify_sos(entry, gridspec, seed)
    elif strategy == "scaling_probe":
        verdict = _classify_scaling(entry, gridspec)
    elif strategy == "spectral_criterion":
        verdict = _classify_spectral(entry, gridspec)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    verdict.strategy = strategy
    verdict.catalog_id = entry.catalog_id
    spec = gridspec or GridSpec()
    verdict.grid = {
        "circle_nodes": spec.circle_nodes,
        "line_nodes": spec.line_nodes,
        "line_box": spec.line_box,
    }
    verdict.tolerances.setdefault("witness_rtol", WITNESS_RTOL)
    return verdict


def _as_entry(target) -> CatalogEntry:
    if isinstance(target, CatalogEntry):
        return target
    functional = as_functional(target)
    return CatalogEntry(
        catalog_id=getattr(functional, "name", "") or getattr(target, "name", "") or "adhoc",
        kind="adhoc",
        functional=functional,
        chart=target if isinstance(target, LagrangianChart) else None,
        default_strategy="fourier_sweep",
        params={},
    )


def _sign_witnesses(entry, pool, gridspec) -> tuple[Witness | None, Witness | None, list[float]]:
    """Evaluate labeled probes; return the best +/- witnesses of
    :func:`_witnesses` and every probe's value.  Each probe's ``V(u)`` and
    ``int u^2`` are the requests ``(u, u, F)`` of the functional's jet form
    ``F``, constant or per point, and of ``e0 e0^T``, all in one
    :func:`_pair_values`: one integration per box set and kind of form."""
    functional = entry.functional
    requests = _value_requests(functional, _functional_form(functional), len(pool))
    return _pool_witnesses(entry, pool, _pair_values(functional.domains, pool, requests, gridspec), gridspec)


def _value_requests(functional, form, count: int) -> list[tuple]:
    """The requests of ``V(u_a)`` and ``int u_a^2`` for ``a < count``."""
    norm2 = _norm2_form(len(functional.domains))
    return [(a, a, m) for a in range(count) for m in (form, norm2)]


def _pool_witnesses(entry, pool, sums, gridspec) -> tuple[Witness | None, Witness | None, list[float]]:
    """:func:`_sign_witnesses` from sums led by :func:`_value_requests`."""
    candidates = [(u.label, u, value, norm2) for u, value, norm2 in zip(pool, sums[::2], sums[1::2])]
    return (*_witnesses(entry, candidates, gridspec), [value for _, _, value, _ in candidates])


def _clears(sign: int, value: float, norm2: float) -> bool:
    """Whether ``sign * value`` clears the threshold ``WITNESS_RTOL * int u^2``."""
    return sign * value > WITNESS_RTOL * max(norm2, 1e-30)


def _witnesses(entry, candidates, gridspec) -> tuple[Witness | None, Witness | None]:
    """The best positive and negative witnesses among ``(label, u, value,
    norm2)`` candidates.

    A candidate witnesses its sign when ``sign * value`` clears the
    norm-scaled threshold of :func:`_clears`; of those, the first of
    largest ``sign * value`` is reported.  Values within ``TIE_RTOL`` of the
    best are ties at rounding level (as for probes that mirror each other on
    a symmetric functional); they are ordered by the reference mesh
    quadrature, so the reported probe does not depend on the rounding of the
    sum-factorized path.
    """
    out = []
    for sign in (1, -1):
        above = [c for c in candidates if _clears(sign, c[2], c[3])]
        top = max((sign * value for _, _, value, _ in above), default=0.0)
        tied = [c for c in above if top - sign * c[2] <= TIE_RTOL * top]
        if len(tied) > 1:
            ref = [sign * _mesh_value(entry.functional, u, gridspec) for _, u, _, _ in tied]
            tied = [tied[ref.index(max(ref))]]
        out.append(Witness(tied[0][0], tied[0][2]) if tied else None)
    return out[0], out[1]


def _family_candidates(report: ScalingReport) -> list:
    """The members of a dilation family as :func:`_witnesses` candidates."""
    return [(ut.label, ut, value, norm2) for ut, (_, value), norm2 in zip(report.probes, report.entries, report.norms)]


def _sign_verdict(pos, neg, evidence, notes=(), one_sign=None) -> StabilityVerdict:
    """``indefinite`` with witnesses of both signs, otherwise
    ``inconclusive``, with the ``one_sign`` note after ``notes``."""
    if pos and neg:
        return StabilityVerdict(LABEL_INDEFINITE, pos, neg, evidence, notes=list(notes))
    return StabilityVerdict(
        LABEL_INCONCLUSIVE, pos, neg, evidence, notes=list(notes) + ([one_sign] if one_sign else [])
    )


def _mesh_value(functional, u: TestFunction, gridspec: GridSpec | None) -> float:
    """The functional's value on ``u`` by the reference mesh quadrature.

    Each block takes ``u``'s jet from its open mesh
    (:meth:`~hamstab.testfunctions.TestFunction.jet_axes`): a
    :class:`~hamstab.testfunctions.Separable` probe evaluates each factor on
    its axis's distinct nodes and forms its products left to right in axis
    order, so every jet value, and so the walk's value, is bit-identical to
    the dense ``u.jet(points)``'s."""
    functional = as_functional(functional)
    field = MeshField(lambda pts, axes: functional.integrand(pts, u.jet_axes(axes)))
    return integrate(field, functional.domains, gridspec, boxes=u.axis_boxes)


def _classify_fourier(entry: CatalogEntry, gridspec) -> StabilityVerdict:
    """The lattice scan on tori; elsewhere the witness library, then, with
    one sign only, the ``eigmix`` probes of the polarized form of its first
    8 probes.  Its values, norms and off-diagonal entries are one
    :func:`_pair_values`: a pair's box set is another probe's."""
    if entry.kind == "torus":
        return _lattice_scan(entry, gridspec, partial(torus_mode_function, entry.params["radii"]))
    functional = entry.functional
    pool = witness_library(functional.domains)
    small = pool[:8]
    form = _functional_form(functional)
    pairs = [(a, b) for a in range(len(small)) for b in range(a + 1, len(small))]
    requests = _value_requests(functional, form, len(pool)) + [(a, b, form) for a, b in pairs]
    sums = _pair_values(functional.domains, pool, requests, gridspec)
    pos, neg, values = _pool_witnesses(entry, pool, sums, gridspec)
    evidence = [
        EvidenceRecord(len(pool), float(np.min(values)), float(np.max(values)), "library diagonal values")
    ]
    notes = []
    if not (pos and neg):
        # look for sign mixing inside the span before giving up
        Q = np.diag(values[: len(small)])
        for (a, b), value in zip(pairs, sums[2 * len(pool) :]):
            Q[a, b] = Q[b, a] = value
        eigvals, eigvecs = np.linalg.eigh(Q)
        evidence.append(EvidenceRecord(len(small), float(eigvals[0]), float(eigvals[-1]), "polarized form eigenvalues"))
        if eigvals[0] < 0 < eigvals[-1]:
            lo = LinComb(list(zip(eigvecs[:, 0], small)), label="eigmix:low")
            hi = LinComb(list(zip(eigvecs[:, -1], small)), label="eigmix:high")
            try:
                pos2, neg2, _ = _sign_witnesses(entry, [lo, hi], _mixture_gridspec(gridspec, small))
            except GridTooLargeError as err:
                pos2 = neg2 = None
                notes.append(f"eigmix probes not valued: {err}")
            pos, neg = pos or pos2, neg or neg2
    return _sign_verdict(
        pos, neg, evidence, notes, one_sign="no certificate applies and the witness library found only one sign"
    )


def _mixture_gridspec(gridspec: GridSpec | None, members) -> GridSpec:
    """The grid for a mixture of ``members``: its line axes span the
    largest member box, so their node count grows by the largest ratio of
    that box to a member's own, and the narrowest member keeps the node
    density of its own grid.  A ``line_box`` puts every member on one box."""
    spec = gridspec or GridSpec()
    if spec.line_box is not None:
        return spec
    ratio = 1.0
    for boxes in zip(*(u.axis_boxes for u in members)):
        sizes = [b for b in boxes if b is not None]
        ratio = max(ratio, max(sizes, default=1.0) / min(sizes, default=1.0))
    return replace(spec, line_nodes=spec.line_nodes * int(np.ceil(ratio)))


def _lattice_scan(entry: CatalogEntry, gridspec, probe) -> StabilityVerdict:
    """Sign pattern of a constant jet form on circle axes from its Fourier
    symbol, with quadrature witnesses.

    The mode ``k`` is the plane wave of frequency ``xi = 2 pi k / L`` and
    value ``Vol/2 * P(xi)`` (:func:`hamstab.variation.symbol`), scanned
    over the canonical modes ``|k_j| <= MODE_BOUND`` by :func:`_symbol_scan`.
    The simplest mode of each sign (lowest total order, first axes first) is
    the test function ``probe(k)``, valued by quadrature; the modes where
    the symbol vanishes are named in a note.
    """
    domains = entry.functional.domains
    modes = _canonical_modes(len(domains), MODE_BOUND)
    lo, hi, chosen, zero_count, zeros = _symbol_scan(entry.functional.jet_form, [dom.size for dom in domains], modes)
    note = f"Vol/2 * P(2 pi k / L) from the jet form's Fourier symbol, |k_j| <= {MODE_BOUND} (modes are orthogonal)"
    evidence = [EvidenceRecord(len(modes), lo, hi, note)]
    pos, neg, _ = _sign_witnesses(entry, [probe(tuple(k)) for k in chosen.tolist()], gridspec)
    notes = []
    if zero_count:
        named = ", ".join(probe(tuple(k)).label for k in zeros.tolist())
        notes.append(
            f"the symbol vanishes on {zero_count} of {len(modes)} scanned modes (value 0), simplest first: {named}"
        )
    return _sign_verdict(
        pos,
        neg,
        evidence,
        notes,
        one_sign="the symbol takes one sign on the scanned lattice; definiteness needs an analytic "
        "certificate, which this scan does not give",
    )


def _symbol_scan(form: np.ndarray, sizes, modes: np.ndarray):
    """``(min, max, chosen, zero_count, zeros)`` of the values ``Vol/2 *
    P(2 pi k / L)`` of the constant jet form ``form`` over the (N, n) int8
    ``modes``: ``chosen`` holds the simplest mode of value above the zero
    tolerance ``1e-12 max(1, max |value|)``, then the simplest below minus
    it (each when there is one), and ``zeros`` the first 4 of the
    ``zero_count`` modes within it, simplest first.

    The modes are valued in blocks of :data:`~hamstab.quadrature.BLOCK_ROWS`
    rows, the blocks :func:`~hamstab.variation.symbol` takes, so no
    per-mode table is formed.  Each block keeps its own simplest modes
    under the tolerance of the values seen so far, and the least magnitude
    it took for nonzero; a block whose least nonzero magnitude is within the
    final tolerance is valued again."""
    scale, step = 0.5 * np.prod(sizes), 2 * np.pi / np.asarray(sizes)
    lo, hi = np.inf, -np.inf
    blocks = []
    for start in range(0, len(modes), quadrature.BLOCK_ROWS):
        k = modes[start : start + quadrature.BLOCK_ROWS]
        values = scale * symbol(form, k * step)
        lo, hi = np.minimum(lo, np.min(values)), np.maximum(hi, np.max(values))
        blocks.append((k, _mode_signs(k, values, _zero_tol(lo, hi))))
    tol = _zero_tol(lo, hi)
    signs = [
        found if found[-1] > tol else _mode_signs(k, scale * symbol(form, k * step), tol) for k, found in blocks
    ]
    pos, neg, zeros, counts, _ = zip(*signs)
    chosen = np.concatenate([_simplest(np.concatenate(pos), 1), _simplest(np.concatenate(neg), 1)])
    return float(lo), float(hi), chosen, sum(counts), _simplest(np.concatenate(zeros), 4)


def _zero_tol(lo, hi) -> float:
    """The zero tolerance of symbol values between ``lo`` and ``hi``."""
    return 1e-12 * max(1.0, float(np.maximum(-lo, hi)))


def _mode_signs(modes: np.ndarray, values: np.ndarray, tol: float) -> tuple:
    """The simplest mode of value above ``tol``, the simplest below
    ``-tol``, the first 4 within it, simplest first, their count and the
    least magnitude above ``tol``."""
    zero = np.abs(values) <= tol
    return (
        _simplest(modes[values > tol], 1),
        _simplest(modes[values < -tol], 1),
        _simplest(modes[zero], 4),
        int(np.count_nonzero(zero)),
        float(np.min(np.abs(values[~zero]), initial=np.inf)),
    )


def _simplest(modes: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` rows of ``modes``, simplest first: lowest total
    order, then the larger entry on the first axis that differs."""
    return modes[np.lexsort((*-modes.T[::-1], np.abs(modes).sum(axis=1)))[:count]]


def _classify_sos(entry: CatalogEntry, gridspec, seed: int) -> StabilityVerdict:
    """A constant jet form takes the certificate derived from it
    (:func:`sos_certificate`); a point-dependent one the caller's
    ``entry.certificate``, compared at sampled rows."""
    functional = as_functional(entry.functional)
    form = getattr(functional, "jet_form", None)
    if form is not None:
        sign, residual, trivial, kernel = sos_certificate(form, functional.domains)
        ok, comparison = residual <= SOS_RESIDUAL_TOL, "least eigenvalue of the signed jet form"
    elif entry.certificate is not None:
        sign, trivial, kernel = entry.certificate.sign, True, entry.certificate.kernel_note
        residual, weights_ok = verify_certificate(functional, entry.certificate, gridspec, seed)
        ok = weights_ok and residual <= SOS_RESIDUAL_TOL
        comparison = f"jet-form comparison at up to {CERTIFICATE_ROWS} sampled rows"
    else:
        return StabilityVerdict(
            LABEL_INCONCLUSIVE, notes=["no sum-of-squares certificate attached to this point-dependent form"]
        )
    notes = [f"pointwise certificate residual {residual:.3e} ({comparison})"]
    tolerances = {"sos_residual": residual}
    if not ok:
        notes.append("certificate failed verification")
        return StabilityVerdict(LABEL_INCONCLUSIVE, notes=notes, tolerances=tolerances)
    notes += [f"kernel: {kernel}"] if kernel else []
    if not trivial:
        return StabilityVerdict(LABEL_INCONCLUSIVE, notes=notes, tolerances=tolerances)
    pool = witness_library(functional.domains)[:3]
    pos, neg, values = _sign_witnesses(entry, pool, gridspec)
    evidence = [
        EvidenceRecord(len(pool), float(np.min(values)), float(np.max(values)), "sample values")
    ]
    return StabilityVerdict(
        LABEL_POSITIVE if sign > 0 else LABEL_NEGATIVE,
        pos if sign > 0 else None,
        neg if sign < 0 else None,
        evidence,
        tolerances=tolerances,
        notes=notes,
    )


def verify_certificate(
    functional, cert: SumOfSquares, gridspec: GridSpec | None = None, seed: int = 0
) -> tuple[float, bool]:
    """Residual ``max|M_func - M_cert| / max(1, max|M_func|)`` between the
    jet forms of the integrand and a caller-supplied certificate, plus a
    same-sign check of the certificate's weights, both at
    ``CERTIFICATE_ROWS`` rows drawn from the grid (all rows of a smaller
    grid), the forms compared entrywise row by row.
    """
    functional = as_functional(functional)
    rng = np.random.default_rng(seed)
    boxes = tuple(10.0 if d.kind == "line" else None for d in functional.domains)
    grid = build_grid(functional.domains, gridspec, boxes=boxes)
    big = grid.size > CERTIFICATE_ROWS
    pts = grid.points_at(rng.choice(grid.size, CERTIFICATE_ROWS, replace=False) if big else np.arange(grid.size))
    m_func, m_cert = _point_forms(functional, pts), _jet_form(cert.terms, pts)
    residual, scale = float(np.max(np.abs(m_func - m_cert))), float(np.max(np.abs(m_func)))
    weight_ok = all(np.all(cert.sign * term.weight_values(pts) >= -1e-14) for term in cert.terms)
    return residual / max(1.0, scale), weight_ok


def _classify_scaling(entry: CatalogEntry, gridspec) -> StabilityVerdict:
    if entry.kind == "hyperbola":
        if entry.params["n"] < 3:
            return StabilityVerdict(
                LABEL_INCONCLUSIVE,
                notes=[
                    "the dilation family follows the negative direction w of the gradient "
                    "form, which exists only for n >= 3"
                ],
            )
        return _classify_hyperbola_scaling(entry, gridspec)
    domains = as_functional(entry.functional).domains
    n = len(domains)
    circles = [j for j, dom in enumerate(domains) if dom.kind == "circle"]
    if circles:
        return StabilityVerdict(
            LABEL_INCONCLUSIVE,
            notes=[
                f"the dilation family is a product of Gaussian bumps, which needs line axes; "
                f"axes {circles} are circles"
            ],
        )
    base = Separable([Gauss1D(1.0) for _ in range(n)], label="bump")
    if entry.kind == "tn":
        report = scaling_probe(
            entry.functional, base, np.geomspace(0.05, 20.0, 7), axes=(0,), prefactor_exponent=1.5, gridspec=gridspec
        )
    else:
        report = scaling_probe(
            entry.functional, base, (0.25, 0.5, 1.0, 2.0, 4.0), prefactor_exponent=0.0, gridspec=gridspec
        )
    values = [v for _, v in report.entries]
    evidence = [
        EvidenceRecord(
            len(values),
            float(np.min(values)),
            float(np.max(values)),
            f"scaled family {report.probe_label}, t in {[t for t, _ in report.entries]}",
        )
    ]
    pos, neg = _witnesses(entry, _family_candidates(report), gridspec)
    return _sign_verdict(pos, neg, evidence, one_sign="scaled family found only one sign")


def _classify_hyperbola_scaling(entry: CatalogEntry, gridspec) -> StabilityVerdict:
    radii = entry.params["radii"]
    eps = entry.params["eps"]
    u_w, u_e1, rep = hyperbola_direction_probes(radii, eps)
    n = len(radii)
    schedule = (0.05, 0.5, 2.0) if n >= 4 else (0.05, 0.1, 0.5, 1.0, 2.0, 10.0)
    # Q(u_w) and Q(u_e1) are one more column of each probe's integration
    gradient = _gradient_jet_form(rep.matrix)
    report_w = scaling_probe(entry.functional, u_w, schedule, gridspec=gridspec, extra_forms=[gradient])
    qw = report_w.extras[0]
    forms = (_functional_form(entry.functional), _norm2_form(n), gradient)
    v_e1, norm2_e1, qe = _pair_values(entry.functional.domains, [u_e1], [(0, 0, m) for m in forms], gridspec)
    pos, neg = _witnesses(entry, _family_candidates(report_w), gridspec)
    neg = neg or _witnesses(entry, [("dirgauss:e1;t=1", u_e1, v_e1, norm2_e1)], gridspec)[1]
    values = [v for _, v in report_w.entries]
    evidence = [
        EvidenceRecord(len(values), float(np.min(values)), float(np.max(values)), "w-aligned dilation family"),
        EvidenceRecord(
            len(rep.eigenvalues),
            float(rep.eigenvalues[0]),
            float(rep.eigenvalues[-1]),
            f"M_Q eigenvalues; inertia {rep.inertia}; w^T M_Q w = {rep.w_value:g}",
        ),
        EvidenceRecord(2, qw, qe, GRADIENT_FORM_NOTE),
    ]
    notes = [f"gradient-form values: Q(u_w) = {_with_sign(qw)}, Q(u_e1) = {_with_sign(qe)}"]
    return _sign_verdict(pos, neg, evidence, notes, one_sign="dilation family found only one sign")


def _with_sign(value: float) -> str:
    """``value`` and the sign found, as ``-2.5 (< 0)``, ``0 (= 0)`` or ``3 (> 0)``."""
    return f"{value:.6g} ({'<' if value < 0 else '>' if value > 0 else '='} 0)"


def _classify_spectral(entry: CatalogEntry, gridspec) -> StabilityVerdict:
    if entry.kind == "tn":
        return _classify_tn_spectral(entry, gridspec)
    domains = entry.functional.domains
    if getattr(entry.functional, "jet_form", None) is None or any(dom.kind != "circle" for dom in domains):
        return StabilityVerdict(
            LABEL_INCONCLUSIVE, notes=["the lattice scan needs circle axes only and a constant jet form"]
        )
    base = 2 * np.pi / np.array([dom.size for dom in domains])
    return _lattice_scan(entry, gridspec, lambda k: PlaneWaveCos(np.multiply(k, base), label=_mode_label(k)))


def _mode_label(k) -> str:
    """``mode:cos(2s-t)``: the mode's linear form in the axis names ``s``,
    ``t``, ``w`` (``s1``, ``s2``, ... beyond three axes)."""
    names = "stw" if len(k) <= 3 else [f"s{j + 1}" for j in range(len(k))]
    terms = "".join(f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}{x}" for c, x in zip(k, names) if c)
    return f"mode:cos({terms.lstrip('+')})"


def _sup_evidence(sup: float, threshold) -> list[EvidenceRecord]:
    return [EvidenceRecord(1, sup, sup, f"sup(kappa^2 + 2K) = {sup:g}, threshold = {threshold}")]


def _classify_tn_spectral(entry: CatalogEntry, gridspec) -> StabilityVerdict:
    if not entry.curve.closed:
        sup = _curvature_sup(entry.curve)
        if sup > 0.0:
            return StabilityVerdict(
                LABEL_INCONCLUSIVE,
                evidence=_sup_evidence(sup, None),
                notes=[
                    "the curve criterion needs kappa^2 + 2K <= 0 or a closed curve; "
                    "this curve is open and sup > 0"
                ],
            )
    rep = wirtinger_bound(entry.curve)
    evidence = _sup_evidence(rep.sup_value, rep.threshold)
    if rep.verdict != "stable":
        return StabilityVerdict(
            LABEL_INCONCLUSIVE,
            evidence=evidence,
            notes=["the curve criterion is sufficient only; sup exceeds the threshold"],
        )
    if rep.threshold is not None and rep.sup_value >= rep.threshold * (1 - 1e-12):
        boundary = "boundary case sup = threshold: the bound gives nonnegativity only"
    elif entry.curve.closed and rep.sup_value == 0.0:
        boundary = (
            "boundary case sup = 0 on a closed curve: u = g(t), constant along the curve, "
            "is a null direction where kappa^2 + 2K vanishes identically"
        )
    else:
        boundary = None
    if boundary:
        return StabilityVerdict(LABEL_INCONCLUSIVE, evidence=evidence, notes=[boundary])
    pool = witness_library(entry.functional.domains)[:2]
    pos, _, _ = _sign_witnesses(entry, pool, gridspec)
    notes = [
        "first-Fourier-mode bound: int 4 u_st^2 >= (16 pi^2 / L^2) int u_t^2 for "
        "mean-zero admissible variations"
        if rep.branch == "wirtinger"
        else "pointwise nonnegative integrand (kappa^2 + 2K <= 0)"
    ]
    return StabilityVerdict(LABEL_POSITIVE, pos, None, evidence, notes=notes)


# ------------------------------------------------------------ the tube table

def compute_tube_table(gridspec: GridSpec | None = None, seed: int = 0) -> list[dict]:
    """Recompute the (G, G') verdicts of all eight tube rows and compare with
    the stated columns."""
    from .catalog import TUBE_ROWS, resolve

    rows = []
    for t in TUBE_ROWS:
        row: dict = {
            "space": t.space,
            "geodesic": t.geodesic,
            "induced": t.induced,
            "eps_tuple": list(t.eps_tuple),
            "topology": t.topology,
        }
        for metric, stated in (("G", t.g_verdict), ("Gprime", t.gprime_verdict)):
            entry = resolve(f"tube:{t.space}:{t.row_key}:{metric}")
            verdict = classify(entry, gridspec=gridspec, seed=seed)
            recomputed = _label_to_column(verdict.label)
            row[metric] = {
                "stated": stated,
                "recomputed": recomputed,
                "label": verdict.label,
                "witnesses": [
                    w.to_json_dict() for w in (verdict.witness_pos, verdict.witness_neg) if w
                ],
                "strategy": verdict.strategy,
                "match": recomputed == stated,
            }
        rows.append(row)
    return rows


def _label_to_column(label: str) -> str:
    if label in (LABEL_POSITIVE, LABEL_NEGATIVE):
        return "stable"
    if label == LABEL_INDEFINITE:
        return "unstable"
    return "inconclusive"
