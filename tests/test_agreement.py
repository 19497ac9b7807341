"""Labels agree across strategies: over every catalog id and the four
strategies, no id gets both definite labels, and no id gets a definite
label from one strategy and a witness of the opposite sign from another."""

import numpy as np
import pytest

from hamstab.analyzer import classify
from hamstab.catalog import default_catalog_ids, resolve
from hamstab.cli import STRATEGIES

CLOSED_CURVE_ID = f"tn:kappa=1,K=0,L={2 * np.pi:.17g}"


@pytest.fixture(scope="module")
def verdicts():
    """Each catalog id's verdict under each strategy, classified once."""
    out = {}
    for cid in default_catalog_ids():
        entry = resolve(cid)
        out[cid] = [classify(entry, strategy=strategy) for strategy in STRATEGIES]
    return out


def _params():
    for cid in default_catalog_ids():
        marks = ()
        if cid == CLOSED_CURVE_ID:
            marks = pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: the closed-curve bound covers only variations with mean zero "
                "along the curve, so spectral_criterion says positive_definite while fourier_sweep "
                "finds the negative witness constxgauss1",
            )
        yield pytest.param(cid, marks=marks, id=cid)


@pytest.mark.parametrize("cid", _params())
def test_no_strategy_contradicts_another(verdicts, cid):
    labels = {v.label for v in verdicts[cid]}
    assert not {"positive_definite", "negative_definite"} <= labels
    positive = [v.witness_pos.value for v in verdicts[cid] if v.witness_pos is not None]
    negative = [v.witness_neg.value for v in verdicts[cid] if v.witness_neg is not None]
    assert all(x > 0 for x in positive) and all(x < 0 for x in negative)
    if "positive_definite" in labels:
        assert not negative, [(v.strategy, v.witness_neg) for v in verdicts[cid]]
    if "negative_definite" in labels:
        assert not positive, [(v.strategy, v.witness_pos) for v in verdicts[cid]]
