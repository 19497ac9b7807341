"""The abstract's claims as properties over their parameter space.

``S^1(r_1) x ... x S^1(r_n)`` in an indefinite ``C^n_p`` (``0 < p < n``) is
H-unstable for any radii, and ``H^1(r_1) x ... x H^1(r_n)`` in ``D^n`` is
H-stable for n = 1, 2 and H-unstable for n >= 3.  Each drawn entry must get
the paper's label with its evidence: two witnesses for ``indefinite``, a
verified certificate for a definite label.  The inputs known to fail are
strict xfails, each with its cause.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstab.analyzer import SOS_RESIDUAL_TOL, classify
from hamstab.catalog import resolve
from hamstab.immersion import DegenerateMetricError


def _cid(kind: str, n: int, radii, tail: str) -> str:
    return f"{kind}:n={n},r={','.join(repr(float(r)) for r in radii)},{tail}"


def _assert_unstable(cid: str) -> None:
    verdict = classify(resolve(cid))
    assert verdict.label == "indefinite", (cid, verdict.notes)
    assert verdict.witness_pos.value > 0 and verdict.witness_neg.value < 0, cid


def _assert_stable(cid: str) -> None:
    # the hyperbola products' second variation is minus a sum of squares
    verdict = classify(resolve(cid))
    assert verdict.label == "negative_definite", (cid, verdict.notes)
    assert verdict.tolerances["sos_residual"] <= SOS_RESIDUAL_TOL, cid


@st.composite
def tori(draw):
    n = draw(st.integers(2, 3))
    p = draw(st.integers(1, n - 1))
    radii = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    return _cid("torus", n, radii, f"p={p}")


@st.composite
def hyperbola_products(draw, dims):
    n = draw(st.sampled_from(dims))
    radii = [draw(st.floats(0.3, 3.0)) for _ in range(n)]
    signs = [draw(st.sampled_from("+-")) for _ in range(n)]
    return _cid("hyperbola", n, radii, f"eps={','.join(signs)}")


@settings(deadline=None, max_examples=40)
@given(tori())
def test_indefinite_tori_are_unstable_for_any_radii(cid):
    _assert_unstable(cid)


@settings(deadline=None, max_examples=25)
@given(hyperbola_products((1, 2)))
def test_hyperbola_products_of_one_or_two_factors_are_stable(cid):
    _assert_stable(cid)


@settings(deadline=None, max_examples=20)
@given(hyperbola_products((3, 4)))
def test_hyperbola_products_of_three_or_four_factors_are_unstable(cid):
    _assert_unstable(cid)


@pytest.mark.parametrize(
    ("cid", "check"),
    [
        pytest.param(
            "hyperbola:n=3,r=0.1,1,10,eps=+,+,+",
            _assert_unstable,
            marks=pytest.mark.xfail(
                strict=True,
                raises=ValueError,
                reason="cosh^2 - sinh^2 at s/r up to 10 cancels 8 digits, so the "
                "constant-geometry check sees a relative deviation of 1.1e-8",
            ),
        ),
        pytest.param(
            "hyperbola:n=2,r=0.01,100,eps=+,-",
            _assert_stable,
            marks=pytest.mark.xfail(
                strict=True,
                raises=DegenerateMetricError,
                reason="at cosh(100) no digit survives the cancellation in the induced metric",
            ),
        ),
        pytest.param(
            "hyperbola:n=3,r=1,1,30,eps=+,+,+",
            _assert_unstable,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="inconclusive: the fixed dilation schedule stops at t = 0.05, "
                "where the w-aligned family still reads negative",
            ),
        ),
    ],
)
def test_known_failures_of_the_paper_claims(cid, check):
    check(cid)


@pytest.mark.parametrize("cid", ["torus:n=2,r=0.01,100,p=1", "torus:n=2,r=1,1000,p=1"])
def test_tori_with_radius_ratios_of_ten_thousand_are_unstable(cid):
    _assert_unstable(cid)
