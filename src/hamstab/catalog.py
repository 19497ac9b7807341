"""Constructors for the example families and the catalog ID registry.

Flat-ambient families are products of planar curves, one per complex or
split-complex coordinate pair (circles in ``C^n_p``, hyperbola branches in
``D^n``, lines for the flat Lagrangian planes), returned as charts of one
constructor; the curved-ambient families (normal congruences of geodesic
tubes in the spaces of geodesics of 3-dimensional space forms, rank-one
surfaces in the tangent bundle of a Riemannian surface) enter through
closed-form quadratic functionals.

A closed-form functional is one list of weighted squares ``w(s) * (L . jet)^2``
(:class:`hamstab.variation.JetSquareTerm`), as every functional is, and
everything else derives from that list: the pointwise integrand is the sum
of the squares, and the one jet-form builder of :mod:`hamstab.variation`
sums ``sum w L L^T``, a constant matrix when every weight and coefficient
is a number and one matrix per point otherwise.  No entry carries a
hand-built certificate: every catalog functional has a constant jet form,
and :func:`hamstab.variation.sos_certificate` derives its certificate and
kernel from that form, which also picks the ``sos_certificate`` default
strategy of the tube and rank-one entries.

The geodesic-tube functionals are a single two-parameter family driven by
the sign tuple ``(e1, e2, e3, e4)`` of the first metric in the adapted
frame, with overall signs ``eps = e1*e3`` and ``eps' = e1*e2``:

    A_G(u)  = eps  * int ( (e3 u_ss + e2 u_tt)^2 - 2 (e1 u_s^2 + e4 u_t^2) )
    A_G'(u) = eps' * int ( 4 u_st^2 + 2 (e1 u_s^2 + e4 u_t^2) )

Each of the eight tube rows is one data record whose functional is the
three squares of its displayed form; the per-row displayed integrands and
the stability columns are golden tests of this encoding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .geometry import AmbientFlat
from .immersion import AxisDomain, LagrangianChart, chart_from_components
from .jets import Jet2, jcos, jcosh, jsin, jsinh
from .quadrature import GridSpec
from .variation import JetSquareTerm, SecondVariationFunctional, _jet_form, _sum_of_squares, sos_certificate

__all__ = [
    "CatalogIdError",
    "CurveData",
    "ClosedFormFunctional",
    "JetSquareTerm",
    "SumOfSquares",
    "TubeRow",
    "TUBE_ROWS",
    "CatalogEntry",
    "make_torus",
    "make_hyperbola_product",
    "make_lagrangian_plane",
    "make_geodesic_tube",
    "make_rank_one_bundle",
    "resolve",
    "resolve_chart",
    "default_catalog_ids",
]


class CatalogIdError(ValueError):
    """Malformed or unknown catalog ID."""


# ------------------------------------------------------------- functionals

@dataclass
class ClosedFormFunctional:
    """Quadratic functional ``int sum_i w_i (L_i . jet)^2`` given by its
    weighted squares ``terms``.

    ``integrand`` is the sum of the terms, and ``jet_form`` is the terms'
    constant matrix ``M``, None when the terms depend on the point.
    """

    domains: tuple[AxisDomain, ...]
    terms: tuple[JetSquareTerm, ...]
    name: str = ""
    integrand: Callable[[np.ndarray, tuple], np.ndarray] = field(init=False, repr=False, compare=False)
    jet_form: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.integrand = partial(_sum_of_squares, self.terms)
        self.jet_form = _jet_form(self.terms)

    def squares(self, points: np.ndarray) -> tuple[JetSquareTerm, ...]:
        """The weighted squares, at any points."""
        return self.terms


@dataclass(frozen=True)
class SumOfSquares:
    """Caller-supplied signed sum-of-squares decomposition of an integrand
    whose jet form depends on the point.

    All weights must share ``sign``; the decomposition certifies semi-
    definiteness pointwise, and ``kernel_note`` records why the kernel is
    trivial on the admissible class, upgrading it to definiteness.  The
    analyzer compares the certificate's jet form with the integrand's at
    sampled points.  A functional with a constant jet form takes the
    certificate derived from that form instead.
    """

    terms: tuple[JetSquareTerm, ...]
    sign: int
    kernel_note: str = ""


# ------------------------------------------------------------ flat families

def _curve_product_chart(
    ambient: AmbientFlat,
    domains: tuple[AxisDomain, ...],
    name: str,
    curve: Callable[[int, np.ndarray], tuple],
    curve_jet: Callable[[int, Jet2], tuple[Jet2, Jet2]] | None = None,
    oracle: str = "closed_form",
) -> LagrangianChart:
    """Chart of a product of planar curves, axis j's curve in the coordinate
    pair ``(2j, 2j + 1)``.

    ``curve(j, s)`` returns ``(x, y)`` (arrays or constants) of the curve
    and of its first three derivatives at the parameters ``s`` of axis j;
    derivative order k sits on the diagonal ``i_1 = ... = i_k = j`` and is
    zero off it.  Orders 0-2 are the oracle and order 3 is ``d3f``.  With
    ``oracle="dual_number"`` the chart is built by
    :func:`chart_from_components` from ``curve_jet(j, S_j)``, the jets of
    ``(x, y)`` at the coordinate jet ``S_j``.  Every curve here has constant
    curvature, so the chart's metric and geometry are constant.  The
    closed-form chart is marked ``curve_product``, so its structural checks
    read the axis lines (:func:`hamstab.immersion.structural_residuals`);
    the dual-number chart keeps the grid walk, an independent route.
    """
    if oracle not in ("closed_form", "dual_number"):
        raise ValueError(f"unknown oracle {oracle!r}; expected 'closed_form' or 'dual_number'")
    n = len(domains)
    if oracle == "dual_number":
        comps = [lambda S, j=j, a=a: curve_jet(j, S[j])[a] for j in range(n) for a in (0, 1)]
        return chart_from_components(
            ambient, domains, comps, name=name, geometry_is_constant=True
        )

    def derivatives(points, orders):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = [np.zeros((len(pts),) + (n,) * k + (2 * n,)) for k in orders]
        for j in range(n):
            jet = curve(j, pts[:, j])
            for k, arr in zip(orders, out):
                for a in (0, 1):
                    arr[(slice(None),) + (j,) * k + (2 * j + a,)] = jet[k][a]
        return out

    return LagrangianChart(
        ambient=ambient,
        domains=domains,
        oracle=lambda points: tuple(derivatives(points, (0, 1, 2))),
        name=name,
        geometry_is_constant=True,
        d3f=lambda points: derivatives(points, (3,))[0],
        curve_product=True,
    )


def make_torus(radii, p: int, oracle: str = "closed_form") -> LagrangianChart:
    """Product of circles ``f(s) = (r_j exp(i s_j / r_j))`` in ``C^n_p``.

    Induced metric ``sum eps_j ds_j^2``, cubic form ``C_jjj = eps_j / r_j``,
    mean-curvature covector ``H_j = 1/r_j``; H-minimal but not minimal.
    """
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    n = len(r)
    if not 0 <= p <= n:
        raise ValueError(f"p must satisfy 0 <= p <= n, got {p}")

    def circle(j, s):
        c, sn = np.cos(s / r[j]), np.sin(s / r[j])
        return (r[j] * c, r[j] * sn), (-sn, c), (-c / r[j], -sn / r[j]), (sn / r[j] ** 2, -c / r[j] ** 2)

    return _curve_product_chart(
        AmbientFlat.pseudo_kahler(n, p),
        tuple(AxisDomain.circle(2 * np.pi * rj) for rj in r),
        f"torus:n={n},r={','.join(f'{x:g}' for x in r)},p={p}",
        circle,
        lambda j, S: (jcos(S / r[j]) * r[j], jsin(S / r[j]) * r[j]),
        oracle,
    )


def make_hyperbola_product(radii, branch_signs, oracle: str = "closed_form") -> LagrangianChart:
    """Product of hyperbola branches ``f(s) = (r_j ex_j(tau s_j / r_j))`` in ``D^n``.

    Branch sign +1 is ``x^2 - y^2 = r^2, x > 0`` (factor cosh + tau sinh),
    branch sign -1 is ``x^2 - y^2 = -r^2, y > 0`` (factor sinh + tau cosh).
    Induced metric ``-sum eps_j ds_j^2``; H-minimal but not minimal.
    """
    r = np.asarray(radii, dtype=float)
    eps = tuple(int(e) for e in branch_signs)
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    if len(eps) != len(r) or any(e not in (-1, 1) for e in eps):
        raise ValueError("need one branch sign (+1 or -1) per radius")
    n = len(r)

    # branch -1 swaps the cosh and sinh components
    def branch(j, s):
        x, y = (np.cosh(s / r[j]), np.sinh(s / r[j]))[:: eps[j]]
        return (r[j] * x, r[j] * y), (y, x), (x / r[j], y / r[j]), (y / r[j] ** 2, x / r[j] ** 2)

    eps_str = ",".join("+" if e == 1 else "-" for e in eps)
    return _curve_product_chart(
        AmbientFlat.para_kahler(n),
        tuple(AxisDomain.line() for _ in range(n)),
        f"hyperbola:n={n},r={','.join(f'{x:g}' for x in r)},eps={eps_str}",
        branch,
        lambda j, S: (jcosh(S / r[j]) * r[j], jsinh(S / r[j]) * r[j])[:: eps[j]],
        oracle,
    )


def make_lagrangian_plane(n: int, p: int = 0, para: bool = False) -> LagrangianChart:
    """Totally geodesic plane ``{y = 0}``: ``f(s) = s`` on the real axes.

    Minimal (not just H-minimal); the Hamiltonian second variation reduces
    to ``eps * int (lap u)^2``.  A para-Kahler ambient takes no ``p``.
    """
    return _curve_product_chart(
        AmbientFlat("para_kahler" if para else "pseudo_kahler", n, p),
        tuple(AxisDomain.line() for _ in range(n)),
        f"plane:n={n},amb=para" if para else f"plane:n={n},p={p}",
        lambda j, s: ((s, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
    )


# ------------------------------------------------------------ geodesic tubes

@dataclass(frozen=True)
class TubeRow:
    space: str
    p: int
    geodesic: str
    induced: str
    eps_tuple: tuple[int, int, int, int]
    topology: str
    domain_kinds: tuple[str, str]
    g_verdict: str
    gprime_verdict: str

    @property
    def row_key(self) -> str:
        return f"{self.geodesic}-{self.induced}"


# One record per row of the stability table; domain kinds follow each row's
# integration domain (s-axis first).
TUBE_ROWS: tuple[TubeRow, ...] = (
    TubeRow("S3", 0, "closed", "definite", (1, 1, 1, 1), "torus", ("circle", "circle"), "unstable", "stable"),
    TubeRow("dS3", 1, "closed", "definite", (1, 1, -1, -1), "cylinder", ("circle", "line"), "unstable", "unstable"),
    TubeRow("dS3", 1, "closed", "indefinite", (1, -1, 1, -1), "cylinder", ("circle", "line"), "unstable", "unstable"),
    TubeRow("dS3", 1, "unbounded", "indefinite", (-1, 1, -1, 1), "cylinder", ("line", "circle"), "unstable", "unstable"),
    TubeRow("AdS3", 2, "closed", "indefinite", (1, -1, -1, 1), "torus", ("circle", "circle"), "unstable", "stable"),
    TubeRow("AdS3", 2, "unbounded", "indefinite", (-1, 1, 1, -1), "plane", ("line", "line"), "stable", "unstable"),
    TubeRow("AdS3", 2, "unbounded", "definite", (-1, -1, -1, -1), "plane", ("line", "line"), "stable", "unstable"),
    TubeRow("H3", 3, "unbounded", "definite", (-1, -1, 1, 1), "cylinder", ("line", "circle"), "unstable", "unstable"),
)

_SPACE_BY_P = {0: "S3", 1: "dS3", 2: "AdS3", 3: "H3"}


def _tube_domains(row: TubeRow) -> tuple[AxisDomain, AxisDomain]:
    return tuple(AxisDomain.circle(2 * np.pi) if kind == "circle" else AxisDomain.line() for kind in row.domain_kinds)


def _tube_terms(row: TubeRow, metric_choice: str) -> tuple[JetSquareTerm, ...]:
    """The tube integrand of the module docstring as three weighted squares."""
    e1, e2, e3, e4 = row.eps_tuple
    zero = ((0.0, 0.0), (0.0, 0.0))
    if metric_choice == "G":
        sign = e1 * e3
        return (
            JetSquareTerm(float(sign), (0.0, 0.0), ((e3, 0.0), (0.0, e2))),
            JetSquareTerm(-2.0 * sign * e1, (1.0, 0.0), zero),
            JetSquareTerm(-2.0 * sign * e4, (0.0, 1.0), zero),
        )
    sign = e1 * e2
    return (
        JetSquareTerm(4.0 * sign, (0.0, 0.0), ((0.0, 1.0), (0.0, 0.0))),
        JetSquareTerm(2.0 * sign * e1, (1.0, 0.0), zero),
        JetSquareTerm(2.0 * sign * e4, (0.0, 1.0), zero),
    )


def make_geodesic_tube(space_form, row, metric_choice: str = "G") -> ClosedFormFunctional:
    """Second-variation functional of the normal congruence of a geodesic
    tube, selected by space form (0..3 or name), row descriptor and metric.

    Row descriptors combine the geodesic type with the tube metric
    character when needed: 'closed', 'unbounded', 'closed-definite',
    'closed-indefinite', 'unbounded-definite', 'unbounded-indefinite'.
    """
    if metric_choice not in ("G", "Gprime"):
        raise CatalogIdError(f"metric choice must be 'G' or 'Gprime', got {metric_choice!r}")
    if isinstance(space_form, str):
        space = space_form
    else:
        try:
            space = _SPACE_BY_P[int(space_form)]
        except (KeyError, ValueError):
            raise CatalogIdError(f"space form must be 0..3 or a name, got {space_form!r}")
    candidates = [t for t in TUBE_ROWS if t.space == space]
    if not candidates:
        raise CatalogIdError(f"unknown space form {space!r}")
    row = str(row)
    parts = set(row.split("-")) if row else set()
    matches = [
        t
        for t in candidates
        if parts <= {t.geodesic, t.induced} and t.geodesic in parts
    ]
    if len(matches) != 1:
        raise CatalogIdError(
            f"row selector {row!r} matches {len(matches)} rows of {space}; "
            f"valid selectors: {sorted({t.row_key for t in candidates})}"
        )
    t = matches[0]
    return ClosedFormFunctional(
        domains=_tube_domains(t),
        terms=_tube_terms(t, metric_choice),
        name=f"tube:{t.space}:{t.row_key}:{metric_choice}",
    )


# -------------------------------------------------------- rank-one surfaces

def _as_curve_fn(value) -> Callable[[np.ndarray], np.ndarray]:
    if callable(value):
        return lambda s: np.asarray(value(s), dtype=float)
    return lambda s: np.full_like(np.asarray(s, dtype=float), float(value))


def _along_curve(fn, *values):
    """``fn`` of curve data that are numbers or functions of s: a number
    when all are numbers, else a function of the points (s = first axis)."""
    if not any(map(callable, values)):
        return fn(*values)
    fns = [_as_curve_fn(v) for v in values]
    return lambda points: fn(*(f(points[:, 0]) for f in fns))


@dataclass(frozen=True)
class CurveData:
    """Curve data for the rank-one surface in the tangent bundle: geodesic
    curvature ``kappa(s)``, Gaussian curvature ``K(s)`` of the base surface
    along the curve, and the optional tangential profile ``a(s)``."""

    kappa: float | Callable = 0.0
    K_along: float | Callable = 0.0
    closed: bool = False
    length: float | None = None
    a_profile: float | Callable = 0.0

    def __post_init__(self) -> None:
        if self.closed:
            if self.length is None or self.length <= 0:
                raise ValueError("closed curves need a positive length")
            for fn_raw in (self.kappa, self.K_along, self.a_profile):
                if callable(fn_raw):
                    fn = _as_curve_fn(fn_raw)
                    s = np.linspace(0.0, self.length, 5, endpoint=False)
                    if not np.allclose(fn(s), fn(s + self.length), atol=1e-9):
                        raise ValueError("closed curve data must be periodic with the curve length")

    def kappa_fn(self):
        return _as_curve_fn(self.kappa)

    def K_fn(self):
        return _as_curve_fn(self.K_along)


def make_rank_one_bundle(curve: CurveData) -> ClosedFormFunctional:
    """Second-variation functional of the rank-one surface over a curve.

    For the normal bundle (``a == 0``) the integrand is
    ``4 u_st^2 - (kappa^2 + 2 K)(s) u_t^2``.  A tangential profile changes
    the Laplacian to ``-2 u_st + 2 a kappa u_tt`` and the integrand to
    ``(2 u_st - 2 a kappa u_tt)^2 - (kappa^2 + 2 K) u_t^2``; the constructor
    warns whenever the profile is a function or a nonzero number.
    """
    if callable(curve.a_profile) or curve.a_profile != 0:
        warnings.warn(
            "rank-one surface with a tangential profile: the simplified 4 u_st^2 "
            "integrand does not apply; using the full Laplacian "
            "(2 u_st - 2 a kappa u_tt)^2 form",
            stacklevel=2,
        )
    utt = _along_curve(lambda a, k: -a * k, curve.a_profile, curve.kappa)
    weight = _along_curve(lambda k, K: -(k**2 + 2.0 * K), curve.kappa, curve.K_along)
    s_dom = AxisDomain.circle(curve.length) if curve.closed else AxisDomain.line()
    if curve.closed:
        tag = f"tn:closed,L={curve.length:g}"
    else:
        tag = "tn:open"
    return ClosedFormFunctional(
        domains=(s_dom, AxisDomain.line()),
        terms=(
            JetSquareTerm(4.0, (0.0, 0.0), ((0.0, 1.0), (0.0, utt))),
            JetSquareTerm(weight, (0.0, 1.0), ((0.0, 0.0), (0.0, 0.0))),
        ),
        name=tag,
    )


# ------------------------------------------------------------- the registry

@dataclass
class CatalogEntry:
    """A resolvable catalog item: the object to analyze plus its metadata.
    ``certificate`` is a caller-supplied one for a functional whose jet form
    depends on the point; no catalog ID sets it."""

    catalog_id: str
    kind: str
    functional: object
    chart: LagrangianChart | None
    default_strategy: str
    params: dict
    certificate: SumOfSquares | None = None
    curve: CurveData | None = None
    default_gridspec: GridSpec | None = None


def _parse_kv(segment: str, allowed: dict[str, bool]) -> dict[str, list[str]]:
    """Parse 'k=v,v2,k2=v' segments; values may contain commas.

    ``allowed`` maps key -> required flag.  Unknown keys are rejected.
    """
    out: dict[str, list[str]] = {}
    current: str | None = None
    for token in segment.split(","):
        if "=" in token:
            key, val = token.split("=", 1)
            if key not in allowed:
                raise CatalogIdError(f"unknown key {key!r} (allowed: {sorted(allowed)})")
            if key in out:
                raise CatalogIdError(f"duplicate key {key!r}")
            out[key] = [val]
            current = key
        else:
            if current is None:
                raise CatalogIdError(f"value {token!r} without a key")
            out[current].append(token)
    missing = [k for k, req in allowed.items() if req and k not in out]
    if missing:
        raise CatalogIdError(f"missing required keys {missing}")
    return out


def _floats(vals: list[str], what: str) -> list[float]:
    try:
        return [float(v) for v in vals]
    except ValueError:
        raise CatalogIdError(f"bad {what}: {vals!r}")


def _single(vals: list[str], what: str, kind):
    if len(vals) != 1:
        raise CatalogIdError(f"{what} takes a single value")
    try:
        return kind(vals[0])
    except ValueError:
        raise CatalogIdError(f"bad {what}: {vals[0]!r}")


def _int(vals: list[str], what: str) -> int:
    return _single(vals, what, int)


def _float(vals: list[str], what: str) -> float:
    return _single(vals, what, float)


CHART_KINDS = ("torus", "hyperbola", "plane")


def resolve_chart(catalog_id: str) -> tuple[LagrangianChart, dict]:
    """The chart and parameters of a torus, hyperbola or plane ID: the step
    of :func:`resolve` that builds no functional; strict grammar."""
    parts = catalog_id.split(":")
    kind = parts[0]

    if kind == "torus":
        if len(parts) != 2:
            raise CatalogIdError("torus IDs look like 'torus:n=2,r=1,2,p=1'")
        kv = _parse_kv(parts[1], {"n": True, "r": True, "p": True})
        n = _int(kv["n"], "n")
        radii = _floats(kv["r"], "radii")
        p = _int(kv["p"], "p")
        if len(radii) != n:
            raise CatalogIdError(f"expected {n} radii, got {len(radii)}")
        return make_torus(radii, p), {"n": n, "radii": radii, "p": p}

    if kind == "hyperbola":
        if len(parts) != 2:
            raise CatalogIdError("hyperbola IDs look like 'hyperbola:n=2,r=1,3,eps=+,+'")
        kv = _parse_kv(parts[1], {"n": True, "r": True, "eps": True})
        n = _int(kv["n"], "n")
        radii = _floats(kv["r"], "radii")
        try:
            eps = [{"+": 1, "-": -1, "+1": 1, "-1": -1}[e] for e in kv["eps"]]
        except KeyError:
            raise CatalogIdError(f"branch signs must be '+' or '-', got {kv['eps']!r}")
        if len(radii) != n or len(eps) != n:
            raise CatalogIdError(f"expected {n} radii and {n} branch signs")
        return make_hyperbola_product(radii, eps), {"n": n, "radii": radii, "eps": eps}

    if kind == "plane":
        if len(parts) != 2:
            raise CatalogIdError("plane IDs look like 'plane:n=2,p=1' or 'plane:n=2,amb=para'")
        kv = _parse_kv(parts[1], {"n": True, "p": False, "amb": False})
        n = _int(kv["n"], "n")
        para = kv.get("amb", ["euclid"])[0] == "para"
        if "amb" in kv and kv["amb"][0] not in ("para",):
            raise CatalogIdError("amb only takes the value 'para'")
        if para and "p" in kv:
            raise CatalogIdError("para-Kahler planes take no p")
        p = _int(kv["p"], "p") if "p" in kv else 0
        return make_lagrangian_plane(n, p=p, para=para), {"n": n, "p": p, "para": para}

    raise CatalogIdError(f"{kind!r} IDs name no chart (chart kinds: {', '.join(CHART_KINDS)})")


def resolve(catalog_id: str) -> CatalogEntry:
    """Resolve a catalog ID string to an entry; strict grammar."""
    parts = catalog_id.split(":")
    kind = parts[0]

    if kind in CHART_KINDS:
        chart, params = resolve_chart(catalog_id)
        entry = CatalogEntry(
            catalog_id=chart.name,
            kind=kind,
            functional=SecondVariationFunctional(chart),
            chart=chart,
            default_strategy="fourier_sweep" if kind == "torus" else "sos_certificate",
            params=params,
        )
        if kind == "hyperbola" and params["n"] >= 3:
            entry.default_strategy = "scaling_probe"
            entry.default_gridspec = GridSpec(line_nodes=64 if params["n"] == 3 else 40)
        return entry

    if kind == "tube":
        if len(parts) != 4:
            raise CatalogIdError("tube IDs look like 'tube:S3:closed:G'")
        _, space, row, metric = parts
        functional = make_geodesic_tube(space, row, metric)
        t = next(
            tr
            for tr in TUBE_ROWS
            if functional.name == f"tube:{tr.space}:{tr.row_key}:{metric}"
        )
        if sos_certificate(functional.jet_form, functional.domains).definite:
            strategy = "sos_certificate"
        elif t.space == "S3" and metric == "G":
            strategy = "spectral_criterion"
        elif t.topology == "plane":
            strategy = "scaling_probe"
        else:
            strategy = "fourier_sweep"
        return CatalogEntry(
            catalog_id=functional.name,
            kind="tube",
            functional=functional,
            chart=None,
            default_strategy=strategy,
            params={"space": t.space, "row": t.row_key, "metric": metric, "eps_tuple": t.eps_tuple},
        )

    if kind == "tn":
        if len(parts) != 2:
            raise CatalogIdError("tn IDs look like 'tn:kappa=1,K=0' or 'tn:kappa=1,K=0,L=12.57'")
        kv = _parse_kv(parts[1], {"kappa": True, "K": True, "L": False})
        kappa = _float(kv["kappa"], "kappa")
        K = _float(kv["K"], "K")
        length = _float(kv["L"], "L") if "L" in kv else None
        curve = CurveData(kappa=kappa, K_along=K, closed=length is not None, length=length)
        functional = make_rank_one_bundle(curve)
        if sos_certificate(functional.jet_form, functional.domains).definite:
            strategy = "sos_certificate"
        elif curve.closed:
            strategy = "spectral_criterion"
        else:
            strategy = "scaling_probe"
        return CatalogEntry(
            catalog_id=catalog_id,
            kind="tn",
            functional=functional,
            chart=None,
            default_strategy=strategy,
            params={"kappa": kappa, "K": K, "length": length},
            curve=curve,
        )

    raise CatalogIdError(
        f"unknown catalog kind {kind!r} (known: torus, hyperbola, plane, tube, tn)"
    )


def default_catalog_ids() -> list[str]:
    """The IDs exercised by the reproduction suite."""
    ids = [
        "torus:n=1,r=1,p=0",
        "torus:n=2,r=1,1,p=1",
        "torus:n=2,r=1,2,p=1",
        "torus:n=3,r=1,2,3,p=1",
        "torus:n=3,r=1,1,1,p=2",
        "hyperbola:n=1,r=1,eps=+",
        "hyperbola:n=1,r=1,eps=-",
        "hyperbola:n=2,r=1,3,eps=+,+",
        "hyperbola:n=2,r=1,2,eps=+,-",
        "hyperbola:n=3,r=1,1,1,eps=+,+,+",
        "hyperbola:n=4,r=1,1,1,1,eps=+,+,+,+",
        "plane:n=2,p=0",
        "plane:n=2,p=1",
        "plane:n=2,amb=para",
    ]
    for t in TUBE_ROWS:
        for metric in ("G", "Gprime"):
            ids.append(f"tube:{t.space}:{t.row_key}:{metric}")
    ids += [
        "tn:kappa=0,K=-1",
        f"tn:kappa=1,K=0,L={2 * np.pi:.17g}",
        "tn:kappa=1,K=0",
    ]
    return ids
