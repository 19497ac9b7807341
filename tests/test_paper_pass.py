"""One functional per chart and one Gram per probe set in the paper pass.

Criteria 6, 7 and 10 value two jet forms on one probe list in one
:func:`_pair_values` call, which must give the bits of one call per form
and probe; criterion 5 forms its matrices as one stack per dimension and
runs its direct expansion on Python floats, which must give the bits of one
matrix per draw and of the numpy scalars it once ran on; one pass builds
each chart's functional once, none for the structural checks of criterion
11; and sum factorization evaluates each distinct 1-D factor once.
"""

from dataclasses import replace

import numpy as np
import pytest

from hamstab import analyzer, quadrature, testfunctions, variation, verification
from hamstab.catalog import ClosedFormFunctional, resolve
from hamstab.immersion import AxisDomain
from hamstab.quadrature import GridSpec
from hamstab.testfunctions import Cos1D, Gauss1D, Separable, random_bump_poly, random_trig_poly
from hamstab.variation import MetricField, _domains_from_support, _functional_form, _pair_values, evaluate_functional

from helpers import reference_q_direct, same_bits

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


@pytest.mark.parametrize("seed", [0, 1, 7, 316])
def test_stacked_mq_matrices_take_the_bits_of_one_matrix_per_draw(seed):
    # criterion 5's loop as it ran before: each draw's M_Q from its own
    # diag and outer product
    rng = np.random.default_rng(seed + 5)
    want = []
    by_n: dict = {}
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        radii = rng.uniform(0.5, 3.0, size=n)
        eps = rng.choice([-1, 1], size=n)
        w = rng.uniform(-2.0, 2.0, size=n)
        direct = verification._q_direct(w.tolist(), radii.tolist(), eps.tolist())
        v = eps / radii
        mq = 2.0 * np.diag(1.0 / radii**2) - np.outer(v, v)
        want.append(abs(direct - float(w @ mq @ w)) / max(abs(direct), 1.0))
        by_n.setdefault(n, []).append((radii, eps, mq))
    for draws in by_n.values():
        radii, eps, mqs = zip(*draws)
        assert same_bits(analyzer._mq_matrix(radii, eps), mqs)
    got = verification._mq_oracle_errors(np.random.default_rng(seed + 5))
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("seed", [0, 1, 7, 316])
def test_reilly_residuals_take_the_bits_of_one_integration_per_draw_and_form(seed):
    # criterion 6's draws, each form on each draw on its own grid
    rng = np.random.default_rng(seed + 6)
    metrics = [MetricField.flat(signs) for signs in METRICS]
    want = []
    for periodic, draw in ((True, lambda: random_trig_poly([2 * np.pi] * 2, rng)), (False, lambda: random_bump_poly(2, rng))):
        for i in range(10):
            m = metrics[i % len(metrics)]
            u = draw()
            if periodic:
                domains = tuple(AxisDomain.circle(2 * np.pi if p == 0.0 else p) for p in u.axis_periods)
            else:
                domains = _domains_from_support(u)
            res = variation.reilly_residual(u, m, domains)
            lap = evaluate_functional(verification._lap_sq_functional(m, periodic=periodic), u)
            want.append(abs(res) / (1.0 + abs(lap)))
    got = verification._reilly_residuals(np.random.default_rng(seed + 6), None)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# criterion 10's bound draws nothing, so it is checked on four grids
@pytest.mark.parametrize(
    "spec", [None, GridSpec(circle_nodes=16, line_nodes=24), GridSpec(circle_nodes=33, line_nodes=40), GridSpec(line_box=30.0)]
)
def test_fourier_bound_terms_take_the_bits_of_one_integration_per_mode_and_form(spec):
    length = 2 * np.pi
    func = resolve(f"tn:kappa=1,K=0,L={length:.17g}").functional
    ust_term, ut_term = func.terms
    four_ust2 = ClosedFormFunctional(func.domains, (ust_term,))
    ut2 = ClosedFormFunctional(func.domains, (replace(ut_term, weight=1.0),))
    want = []
    for k in range(1, 5):
        for sigma in (1.0, 2.0):
            u = Separable([Cos1D(k * 2 * np.pi / length), Gauss1D(sigma)])
            want.append((evaluate_functional(four_ust2, u, spec), evaluate_functional(ut2, u, spec)))
    got = verification._fourier_bound_terms(length, spec)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]


class _WorkCounts:
    """Counts ``jet1`` calls of every 1-D factor kind, grids built and sum
    factorizations while installed."""

    def __init__(self, monkeypatch):
        self.jet1 = self.grids = self.factorizations = 0
        kinds = [testfunctions.Func1D]
        while kinds:
            cls = kinds.pop()
            kinds += cls.__subclasses__()
            if "jet1" in vars(cls):
                monkeypatch.setattr(cls, "jet1", self._counting("jet1", vars(cls)["jet1"]))
        monkeypatch.setattr(quadrature, "build_grid", self._counting("grids", quadrature.build_grid))
        monkeypatch.setattr(quadrature, "_sum_factorized", self._counting("factorizations", quadrature._sum_factorized))

    def _counting(self, name, fn):
        def counted(*args, **kwargs):
            setattr(self, name, getattr(self, name) + 1)
            return fn(*args, **kwargs)

        return counted


def test_a_pass_evaluates_each_distinct_factor_once_per_sum_factorization(monkeypatch):
    counts = _WorkCounts(monkeypatch)
    # 4 planes x 2 axes x 4 Hermite degrees, where 10 draws x 3 terms x 2
    # axes per plane made 240 calls when factors were grouped by identity
    assert all(check.passed for check in verification.run_criterion(7, seed=1))
    assert counts.jet1 <= 32
    # 2 grids for the 8 modes of the Fourier bound (one per box; 16 when
    # each mode and form took its own), 6 for the rest of the criterion
    counts.grids = 0
    assert all(check.passed for check in verification.run_criterion(10, seed=1))
    assert counts.grids <= 8
    # the whole pass: 919 jet1 calls, 131 grids and 123 sum factorizations
    # with one grid per bump in criterion 6 and per mode and form in 10
    counts.jet1 = counts.grids = counts.factorizations = 0
    for number, _, _ in verification.CRITERIA:
        verification.run_criterion(number, seed=1)
    assert counts.jet1 <= 560 and counts.grids <= 108 and counts.factorizations <= 100
