"""The Fourier symbol of a constant jet form against the paper's closed forms
and against quadrature, and the lattice scan that reads its sign pattern."""

import re
import tracemalloc

import numpy as np
import pytest

from hamstab import quadrature
from hamstab.analyzer import (
    MODE_BOUND,
    _canonical_modes,
    _mode_label,
    _symbol_scan,
    classify,
    hyperbola_matrix_analysis,
    spectral_criterion,
    torus_mode_value,
)
from hamstab.catalog import default_catalog_ids, resolve
from hamstab.immersion import AxisDomain
from hamstab.quadrature import MAX_MESH_POINTS, GridTooLargeError
from hamstab.testfunctions import PlaneWaveCos, jet_orders
from hamstab.variation import _pair_values, symbol

TORI = [cid for cid in default_catalog_ids() if cid.startswith("torus:")]
# the products with n >= 2, where the gradient form M_Q is defined
HYPERBOLAS = [cid for cid in default_catalog_ids() if cid.startswith("hyperbola:") and "n=1," not in cid]


def _lattice_values(entry, modes):
    """``Vol/2 * P(2 pi k / L)`` over the rows of ``modes``."""
    sizes = np.array([dom.size for dom in entry.functional.domains])
    return 0.5 * np.prod(sizes) * symbol(entry.functional.jet_form, np.asarray(modes) * (2 * np.pi / sizes))


@pytest.mark.parametrize("cid", TORI)
def test_symbol_equals_the_closed_form_torus_mode_values(cid):
    assert len(TORI) == 5
    entry = resolve(cid)
    radii, p = entry.params["radii"], entry.params["p"]
    modes = _canonical_modes(len(radii), 3)
    closed = np.array([torus_mode_value(radii, p, k) for k in modes.tolist()])
    assert np.all(np.abs(_lattice_values(entry, modes) - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


def test_symbol_on_the_sphere_tube_equals_the_spectral_closed_forms():
    entry = resolve("tube:S3:closed-definite:G")
    single = _lattice_values(entry, [(k, 0) for k in range(1, 6)])
    k = np.arange(1, 6)
    assert np.allclose(single, 2 * np.pi**2 * k**2 * (k**2 - 2), rtol=1e-13, atol=0)  # criterion 8
    rep = spectral_criterion((1.0, 1.0), 2.0)
    values = _lattice_values(entry, [row[0] for row in rep.mode_table])
    closed = np.array([2 * np.pi**2 * lam * (lam - rep.c) for _, lam, _ in rep.mode_table])
    assert np.all(np.abs(values - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


@pytest.mark.parametrize("cid", HYPERBOLAS)
def test_symbol_quadratic_part_is_minus_the_gradient_form(cid):
    assert len(HYPERBOLAS) == 4
    entry = resolve(cid)
    n = entry.params["n"]
    form = entry.functional.jet_form
    mq = hyperbola_matrix_analysis(entry.params["radii"], entry.params["eps"]).matrix
    assert np.array_equal(form[1 : n + 1, 1 : n + 1], -mq)
    assert not np.any(form[0])
    # so P(t xi) = -t^2 xi^T M_Q xi + O(t^4)
    xi = np.random.default_rng(7).normal(size=(8, n))
    t = 1e-6
    assert np.allclose(symbol(form, t * xi) / t**2, -np.einsum("ni,ij,nj->n", xi, mq, xi), rtol=1e-6, atol=0)


def test_symbol_equals_the_quadrature_value_of_a_plane_wave():
    rng = np.random.default_rng(3)
    J = len(jet_orders(2))
    a = rng.normal(size=(J, J))
    form = a + a.T
    sizes = np.array([2 * np.pi, 3.0])
    domains = tuple(AxisDomain.circle(L) for L in sizes)
    for k in ((1, 0), (0, 2), (1, -1), (2, 3)):
        xi = np.array(k) * (2 * np.pi / sizes)
        quad = _pair_values(domains, [PlaneWaveCos(xi)], [(0, 0, form)])[0]
        assert 0.5 * np.prod(sizes) * symbol(form, xi)[0] == pytest.approx(quad, rel=1e-12, abs=1e-12)


def _parse_mode_label(label: str, n: int) -> tuple:
    names = "stw"
    m = re.fullmatch(r"mode:cos\((.*)\)", label)
    k = [0] * n
    for sign, coeff, name in re.findall(r"([+-]?)(\d*)([a-z])", m.group(1)):
        k[names.index(name)] = (-1 if sign == "-" else 1) * int(coeff or 1)
    return tuple(k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mode_labels_are_unambiguous_on_one_to_three_axes(n):
    modes = [tuple(k) for k in _canonical_modes(n, 4).tolist()]
    labels = [_mode_label(k) for k in modes]
    assert len(set(labels)) == len(labels)
    assert [_parse_mode_label(label, n) for label in labels] == modes


def test_mode_labels_keep_the_sphere_tube_probe_ids():
    assert _mode_label((2, 0)) == "mode:cos(2s)"
    assert _mode_label((1, 0)) == "mode:cos(s)"
    assert _mode_label((1, 1)) == "mode:cos(s+t)"
    assert _mode_label((1, -2, 0)) == "mode:cos(s-2t)"
    assert _mode_label((0, 0, 0, 3)) == "mode:cos(3s4)"


@pytest.mark.parametrize("cid", TORI)
def test_lattice_scan_agrees_across_strategies_on_tori(cid):
    entry = resolve(cid)
    sweep, spectral = (classify(entry, strategy=s) for s in ("fourier_sweep", "spectral_criterion"))
    assert spectral.label == sweep.label
    for a, b in ((sweep.witness_pos, spectral.witness_pos), (sweep.witness_neg, spectral.witness_neg)):
        assert (a is None) == (b is None)
        if a is not None:
            assert b.value == pytest.approx(a.value, rel=1e-12)
    assert spectral.evidence[0].to_json_dict() == sweep.evidence[0].to_json_dict()


def test_lattice_scan_names_the_zero_modes_on_the_sphere_tube():
    verdict = classify(resolve("tube:S3:closed-definite:G"), strategy="spectral_criterion")
    assert (verdict.witness_pos.probe_id, verdict.witness_neg.probe_id) == ("mode:cos(2s)", "mode:cos(s)")
    assert verdict.notes == [
        "the symbol vanishes on 2 of 40 scanned modes (value 0), simplest first: mode:cos(s+t), mode:cos(s-t)"
    ]


def _whole_table_scan(form, sizes, modes):
    """:func:`_symbol_scan` as one table: every value, then one sort of
    every mode, simplest first."""
    values = 0.5 * np.prod(sizes) * symbol(form, modes * (2 * np.pi / np.asarray(sizes)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    order = np.lexsort((*-modes.T[::-1], np.abs(modes).sum(axis=1)))
    modes, values = modes[order], values[order]
    chosen = np.concatenate([modes[sign * values > tol][:1] for sign in (1, -1)])
    zeros = modes[np.abs(values) <= tol]
    return float(np.min(values)), float(np.max(values)), chosen, len(zeros), zeros[:4]


def _same_scan(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("cid", [*(c for c in TORI if c.startswith("torus:n=3,")), "torus:n=4,r=1,1,1,1,p=3"])
def test_lattice_scan_in_small_blocks_equals_the_whole_table_scan(monkeypatch, cid):
    entry = resolve(cid)
    form, sizes = entry.functional.jet_form, [dom.size for dom in entry.functional.domains]
    modes = _canonical_modes(len(sizes), MODE_BOUND)
    verdict = classify(entry, strategy="fourier_sweep").to_json_dict()
    # 64-row blocks: 6 blocks on 3 axes, 52 on 4; the symbol takes the same blocks
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", 64)
    tracemalloc.start()
    try:
        got = _symbol_scan(form, sizes, modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _same_scan(got, _whole_table_scan(form, sizes, modes))
    assert classify(entry, strategy="fourier_sweep").to_json_dict() == verdict
    # the 4-axis whole table's frequencies alone take 3280 * 4 * 8 = 103 KiB
    assert peak < 96 * 2**10, peak / 2**10


def test_lattice_scan_values_a_block_again_when_the_tolerance_grows(monkeypatch):
    # P(xi) = m0 + m2 xi^4 on one axis of length 2 pi: the first block's
    # value pi * 1e-11 clears the tolerance of the values seen so far, but
    # not 1e-12 * pi * 100, the tolerance after the second block
    m2 = (100.0 - 1e-11) / 255.0
    form = np.diag([1e-11 - m2, 0.0, m2])
    modes = np.array([[1], [4]], dtype=np.int8)
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", 1)
    got = _symbol_scan(form, [2 * np.pi], modes)
    assert _same_scan(got, _whole_table_scan(form, [2 * np.pi], modes))
    assert got[2].tolist() == [[4]] and got[3] == 1 and got[4].tolist() == [[1]]


def test_spectral_criterion_needs_circle_axes_and_a_constant_form():
    verdict = classify(resolve("hyperbola:n=2,r=1,3,eps=+,+"), strategy="spectral_criterion")
    assert verdict.label == "inconclusive" and verdict.witness_pos is None and verdict.witness_neg is None
    assert "circle axes" in verdict.notes[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_modes_are_one_of_each_pair_in_lexicographic_order(n):
    # the nonzero modes of the full table whose first nonzero entry is positive
    full = np.indices((9,) * n).reshape(n, -1).T - 4
    first = full[np.arange(len(full)), np.argmax(full != 0, axis=1)]
    modes = _canonical_modes(n, 4)
    assert modes.dtype == np.int8
    assert np.array_equal(modes, full[first > 0])


def test_canonical_modes_build_only_the_canonical_half():
    # n = 7: 2.4 M rows of 7 int8 entries, 16 MiB, where the full int64
    # table would take 268 MiB
    tracemalloc.start()
    try:
        modes = _canonical_modes(7, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert modes.shape == ((9**7 - 1) // 2, 7)
    assert peak < 32 * 2**20, peak / 2**20


def test_oversized_lattice_scan_fails_before_allocating():
    assert (9**8 - 1) // 2 <= MAX_MESH_POINTS < (9**9 - 1) // 2
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match="193710244 modes"):
            _canonical_modes(9, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
