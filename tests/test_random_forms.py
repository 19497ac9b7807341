"""Random constant jet forms as a soundness gate.

Each drawn functional is a few weighted jet squares with small integer
coefficients on one or two axes, each a circle or a line, some of them null
Lagrangians, whose integral vanishes on every admissible test function.  It
is classified under every strategy, and no label or witness may contradict
the sign pattern of its Fourier symbol, sampled on the lattice of the circle
axes and on the reals of the line axes: a definite label needs a one-signed
symbol that vanishes identically at no admissible circle mode, a witness of
a sign needs that sign somewhere, and no strategy's witness may oppose
another's definite label.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab.analyzer import classify
from hamstab.catalog import ClosedFormFunctional
from hamstab.cli import STRATEGIES
from hamstab.immersion import AxisDomain
from hamstab.variation import JetSquareTerm, sos_certificate, symbol

SIGNS = {"positive_definite": 1, "negative_definite": -1}
# sampled modes |k| <= MODES on circle axes; 0 and +-LINE_FREQS on line axes
MODES = 6
LINE_FREQS = np.geomspace(1e-2, 1e2, 25)
# a symbol value counts as signed beyond this multiple of max|M| (1 + |xi|^2)^2
SYMBOL_RTOL = 1e-9
AXES = (AxisDomain.circle(2 * np.pi), AxisDomain.circle(3.0), AxisDomain.line())


def _square(weight, grad, hess):
    n = len(grad)
    rows = np.reshape(np.asarray(hess, dtype=float), (n, n))
    return JetSquareTerm(float(weight), tuple(map(float, grad)), tuple(map(tuple, rows)))


def _null_lagrangians(n: int) -> list[list[JetSquareTerm]]:
    """Weighted squares whose sum integrates to 0 on every admissible test
    function: ``u_s u_ss`` on one axis; ``u_11 u_22 - u_12^2`` and
    ``u_1 u_22`` on two."""
    if n == 1:
        return [[_square(0.25, (1,), (1,)), _square(-0.25, (1,), (-1,))]]
    return [
        [
            _square(0.25, (0, 0), (1, 0, 0, 1)),
            _square(-0.25, (0, 0), (1, 0, 0, -1)),
            _square(-1, (0, 0), (0, 1, 0, 0)),
        ],
        [_square(0.25, (1, 0), (0, 0, 0, 1)), _square(-0.25, (1, 0), (0, 0, 0, -1))],
    ]


@st.composite
def random_functionals(draw) -> ClosedFormFunctional:
    n = draw(st.integers(1, 2))
    domains = tuple(draw(st.sampled_from(AXES)) for _ in range(n))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from([-2, -1, 1, 2]))
            null = draw(st.sampled_from(_null_lagrangians(n)))
            terms += [JetSquareTerm(scale * t.weight, t.grad_coeffs, t.hess_coeffs) for t in null]
        else:
            weight = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            # a sparse square, about half its coefficients zero, reaches the degenerate kernels
            small = st.one_of(st.just(0), st.integers(-2, 2)) if draw(st.booleans()) else st.integers(-2, 2)
            grad = [draw(small) for _ in range(n)]
            upper = [draw(small) if i <= j else 0 for i in range(n) for j in range(n)]
            terms.append(_square(weight, grad, upper))
    return ClosedFormFunctional(domains=domains, terms=tuple(terms), name="random")


def symbol_samples(functional) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(modes, P, tol)``: the symbol ``P`` on the sampled frequencies, the
    circle-axis mode of each sample (zero columns without circle axes), and
    each sample's rounding tolerance."""
    form, domains = functional.jet_form, functional.domains
    line = np.concatenate([[0.0], LINE_FREQS, -LINE_FREQS])
    axes = [np.arange(-MODES, MODES + 1) if dom.kind == "circle" else line for dom in domains]
    grid = np.array(list(itertools.product(*axes)))
    circles = [j for j, dom in enumerate(domains) if dom.kind == "circle"]
    xi = grid.astype(float)
    for j in circles:
        xi[:, j] *= 2 * np.pi / domains[j].size
    tol = SYMBOL_RTOL * np.max(np.abs(form)) * (1.0 + np.sum(xi**2, axis=1)) ** 2
    return grid[:, circles], symbol(form, xi), tol


def vanishing_modes(functional) -> list:
    """The sampled admissible circle modes at which the symbol vanishes at
    every sampled line frequency."""
    modes, values, tol = symbol_samples(functional)
    all_circles = modes.shape[1] == len(functional.domains)
    out = []
    for k in np.unique(modes, axis=0):
        at_k = np.all(modes == k, axis=1)
        if not (all_circles and not np.any(k)) and np.all(np.abs(values[at_k]) <= tol[at_k]):
            out.append(tuple(k))
    return out


def check_sound(functional, verdicts) -> None:
    """Assert that no verdict contradicts the sampled symbol or another."""
    _, values, tol = symbol_samples(functional)
    positive, negative = bool(np.any(values > tol)), bool(np.any(values < -tol))
    for v in verdicts:
        where = (v.strategy, v.label, v.notes)
        if v.witness_pos is not None:
            assert positive and v.witness_pos.value > 0, where
        if v.witness_neg is not None:
            assert negative and v.witness_neg.value < 0, where
        sign = SIGNS.get(v.label)
        if sign is not None:
            assert not (negative if sign > 0 else positive), where
            assert all((w.value > 0) == (sign > 0) for u in verdicts for w in (u.witness_pos, u.witness_neg) if w), where
            assert not vanishing_modes(functional), where


@settings(deadline=None, max_examples=200)
@given(random_functionals())
def test_no_label_or_witness_contradicts_the_symbol(functional):
    check_sound(functional, [classify(functional, strategy) for strategy in STRATEGIES])


CIRCLE, LINE = AxisDomain.circle(2 * np.pi), AxisDomain.line()


@pytest.mark.parametrize(
    ("domains", "grad", "hess", "trivial"),
    [
        ((LINE,), (0,), (1,), True),  # u_ss^2: compact support rules out u = a + b s
        ((LINE, LINE), (0, 0), (1, 0, 0, 0), True),  # u_11^2
        ((CIRCLE, LINE), (0, 1), (0, 0, 0, 0), True),  # u_t^2: the line gradient block
        ((CIRCLE, LINE), (1, 0), (0, 0, 0, 0), False),  # u_s^2 vanishes on u = g(t)
        ((CIRCLE, LINE), (0, 0), (0, 1, 0, 0), False),  # u_st^2 vanishes on u = g(t)
        ((CIRCLE, CIRCLE), (1, 1), (0, 0, 0, 0), False),  # (u_s + u_t)^2 vanishes on cos(s - t)
        ((CIRCLE,), (1,), (0,), True),  # u_s^2 on a circle: constants are excluded
    ],
)
def test_the_kernel_rule_on_single_squares(domains, grad, hess, trivial):
    functional = ClosedFormFunctional(domains, (_square(1, grad, hess),))
    cert = sos_certificate(functional.jet_form, functional.domains)
    assert cert.sign == 1 and cert.residual == 0.0
    assert cert.kernel_trivial == trivial, cert.kernel
    # the sampled symbol vanishes identically at an admissible circle mode
    # exactly where the rule leaves the kernel open
    assert (not vanishing_modes(functional)) == trivial


def test_a_sum_of_squares_with_a_definite_circle_block_and_a_line_part():
    # u_s^2 + u_tt^2 on a circle x line: every mode k != 0 by the circle
    # gradient block, mode 0 by u_tt
    squares = (_square(1, (1, 0), (0, 0, 0, 0)), _square(2, (0, 0), (0, 0, 0, 1)))
    functional = ClosedFormFunctional((CIRCLE, LINE), squares)
    cert = sos_certificate(functional.jet_form, functional.domains)
    assert cert.definite
    assert cert.kernel == "trivial (circle gradient block definite: True; line-jet part nonzero: True)"
    assert not vanishing_modes(functional)


def test_the_kernel_rule_is_sufficient_only():
    # (u_ss + u_tt)^2 on a torus has the symbol |k|^4 > 0 at every k != 0,
    # but its gradient block is zero, so the rule leaves the kernel open
    functional = ClosedFormFunctional((CIRCLE, CIRCLE), (_square(1, (0, 0), (1, 0, 0, 1)),))
    assert not vanishing_modes(functional)
    cert = sos_certificate(functional.jet_form, functional.domains)
    assert cert.residual == 0.0 and not cert.definite
    assert cert.kernel == "not shown trivial (circle gradient block definite: False)"
