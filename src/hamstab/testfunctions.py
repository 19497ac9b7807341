"""Test functions (Hamiltonian variation generators) with exact jets.

Every test function reports its value, gradient and Hessian at a batch of
chart points, plus per-axis support metadata:

* ``axis_periods[j]``: period on axis j (``0.0`` means constant along the
  axis, ``None`` means not periodic);
* ``axis_boxes[j]``: half-width of a box outside which the function and its
  listed partials vanish below 1e-14 (``None`` if unbounded support).

Products of one-variable factors (axis-aligned anisotropic Gaussians
included), plane waves (expanded by the angle-addition formula into
products of cosines and sines), and sums and dilations of them, also report
``separable_terms()``: ``(coefficient, per-axis factors)`` pairs whose sum
is the function, which lets the quadrature integrate quadratic forms in the
jet axis by axis.  Every anisotropic Gaussian, and every dilation of one,
also reports ``gaussian_terms()``: its jet coordinates are the Gaussian
times polynomials of degree at most 2, which lets the quadrature integrate
them from mesh moments.  Jet coordinates are ordered ``(u, du_i, d2u_ij
for i <= j)``; :func:`jet_orders` gives each coordinate's per-axis
derivative orders, and :func:`jet_coordinates` / :func:`jet_from_coordinates`
convert between jets and coordinates; ``jet_coords`` gives a function's
coordinates at points from its ``jet``, for a walk of the mesh.

Gaussian-type factors are treated as compactly supported with a declared
box of ten standard deviations, where the tail is far below the vanishing
threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "TestFunction",
    "Const1D",
    "Cos1D",
    "Gauss1D",
    "PolyGauss1D",
    "HermGauss1D",
    "Separable",
    "ProductJet",
    "PlaneWaveCos",
    "AnisotropicGaussian",
    "LinComb",
    "AxisScaled",
    "isotropic_rescale",
    "random_trig_poly",
    "random_bump_poly",
    "compatible_with",
    "jet_orders",
    "jet_from_coordinates",
    "jet_coordinates",
]

GAUSS_BOX_SIGMAS = 10.0


class TestFunction:
    """Base class; subclasses fill n, axis_periods, axis_boxes and jet()."""

    n: int
    axis_periods: tuple
    axis_boxes: tuple
    label: str = ""

    def jet(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def jet_axes(self, axes):
        """The jet on the open mesh of the per-axis coordinate arrays
        ``axes``, which broadcast against each other, at its points in C
        order: the jet ``(u, du, d2u)`` of those points, or a
        :class:`ProductJet` that forms them as they are read."""
        return self.jet(np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, self.n))

    def jet_coords(self, points: np.ndarray) -> np.ndarray:
        """(N, J) jet coordinates at the points, ordered as in :func:`jet_orders`."""
        return jet_coordinates(self.jet(points))

    def separable_terms(self) -> list[tuple[float, list]] | None:
        """``(coefficient, per-axis factors)`` terms summing to this function,
        or None when it is not a sum of products of one-variable factors."""
        return None

    def gaussian_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(A, center, K)`` when this function is the Gaussian
        ``exp(-t^T A t / 2)`` of ``t = s - center``, whose jet coordinates
        are ``u K m(t)`` for the monomials ``m(t) = t^alpha`` over the rows
        ``alpha`` of :func:`jet_orders`; None otherwise."""
        return None

    def __add__(self, other: "TestFunction") -> "LinComb":
        return LinComb([(1.0, self), (1.0, other)])

    def __sub__(self, other: "TestFunction") -> "LinComb":
        return LinComb([(1.0, self), (-1.0, other)])

    def __mul__(self, c: float) -> "LinComb":
        return LinComb([(float(c), self)])

    __rmul__ = __mul__


def compatible_with(u: TestFunction, domains) -> bool:
    """Does ``u`` respect every circle period and fit every line box?"""
    domains = tuple(domains)
    if u.n != len(domains):
        return False
    for j, dom in enumerate(domains):
        if dom.kind == "circle":
            p = u.axis_periods[j]
            if p is None:
                return False
            if p == 0.0:
                continue
            ratio = dom.size / p
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
                return False
        else:
            box = u.axis_boxes[j]
            if box is None or box > dom.size * (1 + 1e-12):
                return False
    return True


@functools.cache
def _hessian_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the ``d2u_ij`` (i <= j) coordinates."""
    index = np.triu_indices(n)
    for a in index:
        a.flags.writeable = False
    return index


@functools.cache
def jet_orders(n: int) -> np.ndarray:
    """Per-axis derivative orders, shape (J, n), of the jet coordinates
    ``(u, du_0..du_{n-1}, d2u_ij for i <= j)``; J = 1 + n + n(n+1)/2.
    The array is shared between callers and read-only."""
    eye = np.eye(n, dtype=int)
    rows = [np.zeros(n, dtype=int), *eye]
    rows += [eye[i] + eye[j] for i, j in zip(*_hessian_index(n))]
    out = np.array(rows)
    out.flags.writeable = False
    return out


def jet_from_coordinates(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jets ``(u, du, d2u)`` with symmetric ``d2u`` from (N, J) coordinates
    ordered as in :func:`jet_orders`."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    hess = np.empty((len(coords), n, n))
    rows, cols = _hessian_index(n)
    hess[:, rows, cols] = coords[:, n + 1 :]
    hess[:, cols, rows] = coords[:, n + 1 :]
    return coords[:, 0], coords[:, 1 : n + 1], hess


def jet_coordinates(jet) -> np.ndarray:
    """(N, J) coordinates, ordered as in :func:`jet_orders`, of jets
    ``(u, du, d2u)``; the inverse of :func:`jet_from_coordinates`."""
    u, du, hess = jet
    rows, cols = _hessian_index(du.shape[-1])
    return np.concatenate([np.reshape(u, (-1, 1)), du, hess[:, rows, cols]], axis=1)


# --------------------------------------------------------------------- 1-d

class Func1D:
    """A function of one variable with exact first and second derivatives.

    ``key`` is a hashable value, set once in the constructor, that two
    factors share only when their ``jet1`` values are bit-identical on
    every node array: the class and the parameters, floats by their bit
    patterns (:func:`_bits`), so that 0.0 and -0.0 stay apart.  Sum
    factorization evaluates one factor per key.  A factor whose key is
    None is keyed by itself."""

    period: float | None = None
    box: float | None = None
    key = None

    def jet1(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


def _bits(*values: float) -> bytes:
    """The float64 bit patterns of ``values``, a key that keeps 0.0 and
    -0.0 apart."""
    return np.array(values, dtype=float).tobytes()


@dataclass(frozen=True)
class Const1D(Func1D):
    value: float = 1.0
    period = 0.0
    box = None

    def __post_init__(self):
        object.__setattr__(self, "key", (type(self), _bits(self.value)))

    def jet1(self, x):
        z = np.zeros_like(x)
        return np.full_like(x, self.value), z, z


class Cos1D(Func1D):
    """cos(freq*x + phase); period 2*pi/freq."""

    def __init__(self, freq: float, phase: float = 0.0):
        if freq <= 0:
            raise ValueError("Cos1D needs freq > 0 (use Const1D for a constant)")
        self.freq = float(freq)
        self.phase = float(phase)
        self.period = 2 * np.pi / self.freq
        self.box = None
        self.key = (type(self), _bits(self.freq, self.phase))

    def jet1(self, x):
        arg = self.freq * x + self.phase
        c = np.cos(arg)
        s = np.sin(arg)
        return c, -self.freq * s, -self.freq**2 * c


class Gauss1D(Func1D):
    """exp(-(x - center)^2 / (2 sigma^2))."""

    def __init__(self, sigma: float = 1.0, center: float = 0.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.center = float(center)
        self.period = None
        self.box = abs(center) + GAUSS_BOX_SIGMAS * self.sigma
        self.key = (type(self), _bits(self.sigma, self.center))

    def jet1(self, x):
        t = (x - self.center) / self.sigma**2
        v = np.exp(-0.5 * (x - self.center) ** 2 / self.sigma**2)
        return v, -t * v, (t * t - 1.0 / self.sigma**2) * v


class PolyGauss1D(Func1D):
    """p(x) * exp(-x^2 / (2 sigma^2)) for a polynomial p.

    ``p``, ``p1`` and ``p2`` are coefficient arrays, lowest degree first, of
    the polynomial factors of the function and its two derivatives.  They
    are read-only and shared by every instance with the same coefficients
    and ``sigma``, as is the key, so sum factorization evaluates such
    instances once."""

    def __init__(self, coeffs, sigma: float = 1.0):
        self.sigma = float(sigma)
        coeff_bytes = np.array(coeffs, dtype=float, ndmin=1).tobytes()
        self.p, self.p1, self.p2 = _poly_gauss_coefficients(coeff_bytes, self.sigma)
        self.period = None
        self.box = GAUSS_BOX_SIGMAS * self.sigma
        self.key = (type(self), coeff_bytes, _bits(self.sigma))

    def jet1(self, x):
        g = np.exp(-0.5 * x * x / self.sigma**2)
        # the point Polynomial evaluates at, 0.0 + 1.0 * x, turns -0.0 into
        # +0.0, which decides the sign of a zero value
        x = x + 0.0
        return _horner(self.p, x) * g, _horner(self.p1, x) * g, _horner(self.p2, x) * g


# bounded: a caller may make factors from any number of coefficient draws
@functools.lru_cache(maxsize=256)
def _poly_gauss_coefficients(coeffs: bytes, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(p, p1, p2)`` of :class:`PolyGauss1D` for the float64
    coefficients in ``coeffs`` (bytes, so that 0.0 and -0.0 stay apart)."""
    p = np.frombuffer(coeffs, dtype=float)
    # d/dx (q * gauss) = (q' - q x/sigma^2) * gauss
    x_over = np.array([0.0, 1.0 / sigma**2])
    p1 = P.polysub(P.polyder(p), P.polymul(p, x_over))
    p2 = P.polysub(P.polyder(p1), P.polymul(p1, x_over))
    for a in (p, p1, p2):
        a.flags.writeable = False
    return p, p1, p2


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coeffs`` (lowest degree first) at
    ``x``, by the steps of ``numpy.polynomial.polynomial.polyval``, so the
    values are bit-identical to it, without its per-call overhead."""
    value = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        value = c + value * x
    return value


class Scaled1D(Func1D):
    """f(scale * x), the one-axis factor of a dilated product."""

    def __init__(self, base: Func1D, scale: float):
        self.base = base
        self.scale = float(scale)
        self.period = None if base.period is None else base.period / self.scale
        self.box = None if base.box is None else base.box / self.scale
        # a base without a key leaves its dilations keyed by themselves
        self.key = None if base.key is None else (type(self), base.key, _bits(self.scale))

    def jet1(self, x):
        v, d1, d2 = self.base.jet1(self.scale * x)
        return v, self.scale * d1, self.scale**2 * d2


def HermGauss1D(degree: int, sigma: float = 1.0) -> PolyGauss1D:
    """Probabilists' Hermite polynomial of given degree times a Gaussian."""
    return PolyGauss1D(_herme_coefficients(degree), sigma)


@functools.cache
def _herme_coefficients(degree: int) -> np.ndarray:
    """Read-only power-basis coefficients of the probabilists' Hermite
    polynomial of given degree."""
    coeffs = np.polynomial.hermite_e.herme2poly([0.0] * degree + [1.0])
    coeffs.flags.writeable = False
    return coeffs


# ----------------------------------------------------------------- products

class Separable(TestFunction):
    """Product of one-variable factors, one per axis.

    :meth:`jet_axes` is the one product routine: each factor's ``jet1``
    runs on its own axis's coordinates, and :class:`ProductJet` forms the
    products.  So a jet value is the same to the bit on the columns of
    scattered points (:meth:`jet`) and on a mesh block's open mesh, where
    the per-axis arrays are small and only the products across the
    lead/tail split of :meth:`hamstab.quadrature.Grid._slabs` are full
    size."""

    def __init__(self, factors, label: str = ""):
        self.factors = list(factors)
        self.n = len(self.factors)
        self.axis_periods = tuple(f.period for f in self.factors)
        self.axis_boxes = tuple(f.box for f in self.factors)
        self.label = label

    def jet(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return tuple(self.jet_axes(list(pts.T)))

    def jet_axes(self, axes) -> "ProductJet":
        """The jet on the open mesh, each coordinate formed when it is read."""
        return ProductJet(*zip(*(f.jet1(x) for f, x in zip(self.factors, axes))))

    def separable_terms(self):
        return [(1.0, self.factors)]


class ProductJet:
    """The jet ``(u, du, d2u)`` of a product of one-variable factors on an
    open mesh, from each factor's values ``v``, first derivatives ``d1`` and
    second derivatives ``d2`` on its axis's coordinate array (the arrays
    broadcast against each other).

    Each coordinate is formed on its first read, as a contiguous row over
    the points in C order: :meth:`grad` and :meth:`hess` form one, and
    iterating gives the whole jet, ``du`` and ``d2u`` as (N, n) and
    (N, n, n) transposed views of (n, N) and (n, n, N) rows.  Every product
    associates left to right in axis order: ``u = (v_0 v_1) v_2 ...``,
    ``du_j = d1_j (prod_{k != j} v_k)``, ``d2u_jj = d2_j (prod_{k != j}
    v_k)`` and ``d2u_jk = (d1_j d1_k) (prod_{l != j, k} v_l)``, with no seed
    of ones (``1.0 * x == x``), whichever coordinates are formed."""

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2
        self.n = n = len(v)
        self.shape = np.broadcast_shapes(*(np.shape(a) for a in v))
        # the rows u, du_j, then d2u_jk row by row; only the rows read are written
        self._rows = np.empty((1 + n + n * n, math.prod(self.shape)))
        self._formed: set[int] = set()
        self._others: dict[tuple, np.ndarray | float] = {}

    def grad(self, j: int) -> np.ndarray:
        """The (N,) row of ``du_j``."""
        return self._row(1 + j)

    def hess(self, j: int, k: int) -> np.ndarray:
        """The (N,) row of ``d2u_jk``, formed once for ``d2u_kj`` too."""
        return self._row(1 + self.n * (1 + min(j, k)) + max(j, k))

    def __iter__(self):
        n = self.n
        for j in range(n):
            self.grad(j)
            self.hess(j, j)
            for k in range(j + 1, n):
                self._rows[1 + n * (1 + k) + j] = self.hess(j, k)
        yield self._row(0)
        yield self._rows[1 : n + 1].T
        yield self._rows[n + 1 :].reshape(n, n, -1).transpose(2, 0, 1)

    def _row(self, r: int) -> np.ndarray:
        """Row ``r`` of the jet, formed on its first read."""
        row = self._rows[r]
        if r not in self._formed:
            self._form(r, row.reshape(self.shape))
            self._formed.add(r)
        return row

    def _form(self, r: int, out: np.ndarray) -> None:
        """Write row ``r`` of the jet into ``out``, of the mesh's shape."""
        n = self.n
        if r == 0:
            np.multiply(_product(self.v[:-1]), self.v[-1], out=out)
        elif r <= n:
            np.multiply(self.d1[r - 1], self._without(r - 1), out=out)
        else:
            j, k = divmod(r - 1 - n, n)
            if j == k:
                np.multiply(self.d2[j], self._without(j), out=out)
            else:
                np.multiply(self.d1[j] * self.d1[k], self._without(j, k), out=out)

    def _without(self, *axes: int) -> np.ndarray | float:
        """``prod_{k not in axes} v_k``, left to right, kept for the block."""
        if axes not in self._others:
            self._others[axes] = _product([x for k, x in enumerate(self.v) if k not in axes])
        return self._others[axes]


def _product(arrays):
    """``(a_0 a_1) a_2 ...``, left to right; 1.0 for no arrays."""
    return functools.reduce(np.multiply, arrays[1:], arrays[0]) if arrays else 1.0


class PlaneWaveCos(TestFunction):
    """cos(sum_j freqs[j] * s_j + phase); the basic torus mode."""

    def __init__(self, freqs, phase: float = 0.0, label: str = ""):
        self.freqs = np.asarray(freqs, dtype=float)
        self.phase = float(phase)
        self.n = len(self.freqs)
        self.axis_periods = tuple(
            2 * np.pi / abs(m) if m != 0.0 else 0.0 for m in self.freqs
        )
        self.axis_boxes = (None,) * self.n
        self.label = label

    def jet(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        arg = pts @ self.freqs + self.phase
        c = np.cos(arg)
        s = np.sin(arg)
        outer = np.einsum("i,j->ij", self.freqs, self.freqs)
        return c, -np.einsum("n,i->ni", s, self.freqs), -np.einsum("n,ij->nij", c, outer)

    def separable_terms(self):
        """The angle-addition expansion, one axis at a time, of
        ``cos(a + m s)`` and ``sin(a + m s)`` from ``cos a``, ``sin a`` and the
        factors ``cos(|m| s)``, ``sin(|m| s) = cos(|m| s - pi/2)``.  The phase
        starts the pair, a zero starting coefficient is dropped (coefficients
        only change sign after that), and a zero frequency contributes a
        constant factor: at most 2^n terms, 2^(n-1) for phase 0."""
        c0, s0 = float(np.cos(self.phase)), float(np.sin(self.phase))
        cos_terms = [(c0, [])] if c0 else []
        sin_terms = [(s0, [])] if s0 else []
        for m in self.freqs:
            if m == 0.0:
                cos_terms = [(c, fs + [Const1D()]) for c, fs in cos_terms]
                sin_terms = [(c, fs + [Const1D()]) for c, fs in sin_terms]
                continue
            cm, sm, sign = Cos1D(abs(m)), Cos1D(abs(m), -np.pi / 2), float(np.sign(m))
            cos_terms, sin_terms = (
                [(c, fs + [cm]) for c, fs in cos_terms] + [(-sign * c, fs + [sm]) for c, fs in sin_terms],
                [(c, fs + [cm]) for c, fs in sin_terms] + [(sign * c, fs + [sm]) for c, fs in cos_terms],
            )
        return cos_terms


class AnisotropicGaussian(TestFunction):
    """exp(-(s - c)^T A (s - c) / 2) for symmetric positive definite A."""

    def __init__(self, A, center=None, label: str = ""):
        self.A = np.asarray(A, dtype=float)
        self.n = self.A.shape[0]
        if self.A.shape != (self.n, self.n) or not np.allclose(self.A, self.A.T):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(self.A)
        if eigs[0] <= 0:
            raise ValueError("A must be positive definite")
        self.center = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        # per-axis marginal widths sqrt((A^{-1})_jj) keep the boxes tight
        # axis by axis, which the tensor-product quadrature needs
        marginal = np.sqrt(np.diag(np.linalg.inv(self.A)))
        self.axis_periods = (None,) * self.n
        self.axis_boxes = tuple(
            abs(c) + GAUSS_BOX_SIGMAS * w for c, w in zip(self.center, marginal)
        )
        self.label = label

    def separable_terms(self):
        """One product of ``Gauss1D(1 / sqrt(A_jj), c_j)`` factors when ``A``
        is exactly diagonal; None otherwise."""
        if np.any(self.A != np.diag(np.diag(self.A))):
            return None
        return [(1.0, [Gauss1D(1.0 / np.sqrt(a), c) for a, c in zip(np.diag(self.A), self.center)])]

    def gaussian_terms(self):
        """``(A, center, K)``: the jet coordinates ``u [1, -y, y_i y_j -
        A_ij]``, ``y = A t``, as polynomials in ``t``, so ``-y``
        takes ``-A`` and ``y_i y_j`` the coefficient ``A_il A_jm + A_im A_jl``
        on ``t_l t_m`` (``A_il A_jl`` on ``t_l^2``)."""
        n = self.n
        rows, cols = _hessian_index(n)
        K = np.zeros((len(jet_orders(n)),) * 2)
        K[0, 0] = 1.0
        K[1 : n + 1, 1 : n + 1] = -self.A
        K[n + 1 :, 0] = -self.A[rows, cols]
        quad = self.A[rows][:, :, None] * self.A[cols][:, None, :]
        K[n + 1 :, n + 1 :] = np.where(rows == cols, quad[:, rows, cols], quad[:, rows, cols] + quad[:, cols, rows])
        return self.A, self.center, K

    def jet(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        As = pts @ self.A
        u = np.exp(-0.5 * np.einsum("ni,ni->n", pts, As))
        du = -As * u[:, None]
        hess = (np.einsum("ni,nj->nij", As, As) - self.A) * u[:, None, None]
        return u, du, hess


def _common_period(periods) -> float | None:
    """Smallest integer multiple of the largest period that every period
    divides (None if no small common multiple exists)."""
    ps = sorted(periods)
    base = ps[-1]
    for m in range(1, 13):
        cand = m * base
        if all(abs(cand / p - round(cand / p)) < 1e-9 for p in ps):
            return cand
    return None


class LinComb(TestFunction):
    """Linear combination of test functions on the same axes."""

    def __init__(self, terms, label: str = ""):
        terms = [(float(c), f) for c, f in terms]
        if not terms:
            raise ValueError("empty combination")
        self.terms = terms
        self.n = terms[0][1].n
        if any(f.n != self.n for _, f in terms):
            raise ValueError("mixed dimensions in combination")
        periods = []
        boxes = []
        for j in range(self.n):
            ps = {f.axis_periods[j] for _, f in terms}
            nonconst = {p for p in ps if p not in (0.0,)}
            if None in nonconst:
                periods.append(None)
            elif not nonconst:
                periods.append(0.0)
            else:
                periods.append(_common_period(nonconst))
            bs = [f.axis_boxes[j] for _, f in terms]
            boxes.append(None if any(b is None for b in bs) else max(bs))
        self.axis_periods = tuple(periods)
        self.axis_boxes = tuple(boxes)
        self.label = label

    def compatible_terms(self, domains) -> bool:
        return all(compatible_with(f, domains) for _, f in self.terms)

    def separable_terms(self):
        out = []
        for c, f in self.terms:
            parts = f.separable_terms()
            if parts is None:
                return None
            out += [(c * d, factors) for d, factors in parts]
        return out

    def jet(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c0, f0 = self.terms[0]
        u, du, hess = f0.jet(pts)
        u, du, hess = c0 * u, c0 * du, c0 * hess
        for c, f in self.terms[1:]:
            v, dv, hv = f.jet(pts)
            u = u + c * v
            du = du + c * dv
            hess = hess + c * hv
        return u, du, hess


class AxisScaled(TestFunction):
    """prefactor * f(scales * s): the scaling families of the probes."""

    def __init__(self, base: TestFunction, scales, prefactor: float = 1.0, label: str = ""):
        self.base = base
        self.scales = np.asarray(scales, dtype=float)
        if len(self.scales) != base.n or np.any(self.scales <= 0):
            raise ValueError("need one positive scale per axis")
        self.prefactor = float(prefactor)
        self.n = base.n
        self.axis_periods = tuple(
            None if p is None else p / s for p, s in zip(base.axis_periods, self.scales)
        )
        self.axis_boxes = tuple(
            None if b is None else b / s for b, s in zip(base.axis_boxes, self.scales)
        )
        self.label = label or (base.label and f"{base.label};scaled")

    def jet(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        u, du, hess = self.base.jet(pts * self.scales)
        u = self.prefactor * u
        du = self.prefactor * du * self.scales
        hess = self.prefactor * hess * np.einsum("i,j->ij", self.scales, self.scales)
        return u, du, hess

    def separable_terms(self):
        parts = self.base.separable_terms()
        if parts is None:
            return None
        return [
            (self.prefactor * c, [Scaled1D(f, s) for f, s in zip(factors, self.scales)])
            for c, factors in parts
        ]

    def gaussian_terms(self):
        """``(S A S, c / S, p D K D)`` for the base's ``(A, c, K)``: ``S``
        scales both the monomial ``t^alpha`` and the jet coordinate of orders
        ``alpha`` by ``D_alpha = prod_k S_k^alpha_k``."""
        terms = self.base.gaussian_terms()
        if terms is None:
            return None
        A, center, K = terms
        d = np.prod(self.scales ** jet_orders(self.n), axis=1)
        return self.scales[:, None] * A * self.scales, center / self.scales, self.prefactor * d[:, None] * K * d


def isotropic_rescale(u: TestFunction, t: float) -> AxisScaled:
    """u^t(s) = t^(n/2 - 1) u(t s), the volume-normalized dilation."""
    return AxisScaled(u, [t] * u.n, t ** (u.n / 2.0 - 1.0), label=f"{u.label};t={t:g}")


# ------------------------------------------------------------ random fields

def random_trig_poly(periods, rng) -> LinComb:
    """Random real trigonometric polynomial respecting the given periods:
    four plane waves of nonzero integer modes ``|k_j| <= 3``."""
    periods = np.asarray(periods, dtype=float)
    n = len(periods)
    terms = []
    for _ in range(4):
        k = np.zeros(n, dtype=int)
        while not k.any():
            k = rng.integers(-3, 4, size=n)
        freqs = 2 * np.pi * k / periods
        coef = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        terms.append((coef, PlaneWaveCos(freqs, phase)))
    return LinComb(terms, label="random-trig")


def random_bump_poly(n: int, rng) -> LinComb:
    """Random combination of three products of unit-width
    :func:`HermGauss1D` factors of degree at most 3."""
    terms = []
    for _ in range(3):
        factors = [HermGauss1D(int(rng.integers(0, 4))) for _ in range(n)]
        terms.append((rng.uniform(-1.0, 1.0), Separable(factors)))
    return LinComb(terms, label="random-bump")
