"""One functional per chart and one Gram per probe set in the paper pass.

Criteria 6 and 7 value two jet forms on one probe list in one
:func:`_pair_values` call, which must give the bits of one call per form;
criterion 5's direct expansion runs on Python floats, which must give the
bits of the numpy scalars it once ran on; and one pass builds each chart's
functional once, none for the structural checks of criterion 11.
"""

import numpy as np
import pytest

from hamstab import quadrature, variation, verification
from hamstab.catalog import resolve
from hamstab.testfunctions import random_bump_poly
from hamstab.variation import MetricField, _domains_from_support, _functional_form, _pair_values, evaluate_functional

from helpers import reference_q_direct

PLANES = ["plane:n=2,p=0", "plane:n=2,p=1", "plane:n=2,p=2", "plane:n=2,amb=para"]
METRICS = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)]


@pytest.mark.parametrize("seed", [0, 1, 7, 316])
def test_two_forms_on_criterion_7_draws_take_the_bits_of_one_call_each(seed):
    # criterion 7's draws: 10 bumps per plane from one generator
    rng = np.random.default_rng(seed + 7)
    for cid in PLANES:
        entry = resolve(cid)
        signs = np.ones(2) if entry.params["para"] else entry.chart.ambient.axis_signs
        lap_sq = verification._lap_sq_functional(MetricField.flat(signs), periodic=False)
        us = [random_bump_poly(2, rng) for _ in range(10)]
        forms = (_functional_form(entry.functional), lap_sq.jet_form)
        requests = [(a, a, form) for form in forms for a in range(len(us))]
        joint = _pair_values(entry.functional.domains, us, requests)
        apart = evaluate_functional(entry.functional, us) + evaluate_functional(lap_sq, us)
        assert [x.hex() for x in joint] == [x.hex() for x in apart], cid


@pytest.mark.parametrize("seed", [0, 1, 7, 316])
def test_reilly_residual_and_scale_on_bumps_take_the_bits_of_one_call_each(seed):
    rng = np.random.default_rng(seed + 6)
    for signs in METRICS:
        m = MetricField.flat(signs)
        lap_sq = verification._lap_sq_functional(m, periodic=False)
        for _ in range(10):
            u = random_bump_poly(2, rng)
            requests = [(0, 0, variation._reilly_form(m)), (0, 0, lap_sq.jet_form)]
            joint = _pair_values(_domains_from_support(u), [u], requests)
            apart = [variation.reilly_residual(u, m), evaluate_functional(lap_sq, u)]
            assert [x.hex() for x in joint] == [x.hex() for x in apart], signs


@pytest.mark.parametrize("seed", [0, 1, 7, 316])
def test_direct_expansion_on_python_floats_takes_the_bits_of_numpy_scalars(seed):
    # criterion 5's draws
    rng = np.random.default_rng(seed + 5)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        radii = rng.uniform(0.5, 3.0, size=n)
        eps = rng.choice([-1, 1], size=n)
        w = rng.uniform(-2.0, 2.0, size=n)
        got = verification._q_direct(w.tolist(), radii.tolist(), eps.tolist())
        assert got.hex() == float(reference_q_direct(w, radii, eps)).hex()


def test_a_pass_builds_each_charts_functional_once(monkeypatch):
    # 9 + 1 + 4 + 6 + 4 + 4 in criteria 1, 2, 3, 4, 7 and 12: each chart's
    # functional once per criterion, and none for the structural checks
    builds, factorizations = [], []
    init, factorized = variation.SecondVariationFunctional.__init__, quadrature._sum_factorized

    def counting_init(self, chart):
        builds.append(chart.name)
        init(self, chart)

    def counting_factorized(grid, terms):
        factorizations.append(len(terms))
        return factorized(grid, terms)

    monkeypatch.setattr(variation.SecondVariationFunctional, "__init__", counting_init)
    monkeypatch.setattr(quadrature, "_sum_factorized", counting_factorized)
    verification.run_all(seed=1, threads=1)
    assert len(builds) <= 28

    builds.clear()
    assert all(check.passed for check in verification.run_criterion(11, seed=1))
    assert builds == []

    # one block Gram of the 10 draws per plane serves both forms
    factorizations.clear()
    assert all(check.passed for check in verification.run_criterion(7, seed=1))
    assert factorizations == [10] * len(PLANES)
