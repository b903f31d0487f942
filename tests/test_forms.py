import numpy as np
import pytest

from chevalley.errors import DomainError, UnsupportedCaseError
from chevalley.forms import (
    bilinear_form_signs,
    bilinear_invariance_holds,
    bilinear_matrix,
    build_pi_form,
    find_square,
    pi_form_vanishes_on_samples,
    square_equation,
    x_int_matrix,
)
from chevalley.rings import RingSpec
from chevalley.rng import SplitMix64
from chevalley.weights import default_module

SECOND = [("a", 6), ("c", None)]


@pytest.mark.parametrize("tag,l", SECOND)
def test_bilinear_signs_exist_and_are_invariant(tag, l):
    wm = default_module(tag, l)
    eps = bilinear_form_signs(wm)
    assert eps[wm.lam0] == 1
    assert set(eps.values()) <= {1, -1}
    assert bilinear_invariance_holds(wm)


def test_bilinear_pairs_opposite_weights_only():
    wm = default_module("c")
    h = bilinear_matrix(wm)
    for lam in wm.weights:
        row = h[wm.idx(lam)]
        nz = np.nonzero(row)[0]
        assert list(nz) == [wm.idx(wm.minus(lam))]
        assert row[nz[0]] in (1, -1)


def test_first_type_has_no_form():
    wm = default_module("b")
    with pytest.raises(UnsupportedCaseError):
        bilinear_form_signs(wm)
    with pytest.raises(UnsupportedCaseError):
        build_pi_form(wm)


@pytest.mark.parametrize("tag,l", SECOND)
def test_square_shape(tag, l):
    wm = default_module(tag, l)
    mu1 = min(
        (m for m in wm.components[2] if wm.distance(wm.lam0, m) == 2), key=wm.idx
    )
    square = find_square(wm, wm.lam0, mu1)
    assert len(square.members) >= 4
    assert len(square.matching) * 2 == len(square.members)
    # the defining pair is matched to each other
    pair = next(p for p in square.matching if wm.lam0 in p)
    assert set(pair) == {wm.lam0, mu1}
    for a, b in square.matching:
        assert wm.root_between(a, b) is None


def test_square_requires_distance_two():
    wm = default_module("c")
    lam1 = wm.lambda1[0]
    with pytest.raises(DomainError):
        find_square(wm, wm.lam0, lam1)


def test_square_equation_coefficients():
    wm = default_module("a", 6)
    mu1 = min((m for m in wm.components[2] if wm.distance(wm.lam0, m) == 2), key=wm.idx)
    square = find_square(wm, wm.lam0, mu1)
    form = square_equation(wm, square)
    assert all(c in (1, -1) for _, _, c in form.coeffs)
    assert form.coefficient(wm.lam0, mu1) == 1
    v = np.zeros(wm.dim, dtype=object)
    v[wm.idx(wm.lam0)] = 1
    assert form.evaluate_int(v) == 0


def test_square_equation_at_l10():
    """At dimension 512, words over all of Phi rarely reach the square; the
    kernel's samples reach it by construction."""
    wm = default_module("a", 10)
    mu1 = min((m for m in wm.components[2] if wm.distance(wm.lam0, m) == 2), key=wm.idx)
    form = square_equation(wm, find_square(wm, wm.lam0, mu1))
    assert form.coeffs == ((0, 10, 1), (1, 7, -1), (2, 5, 1), (3, 4, -1))


def test_square_equation_needs_the_top_weight():
    wm = default_module("c")
    square = next(
        sq
        for b in wm.weights
        if wm.distance(wm.lambda1[0], b) == 2
        and wm.lam0 not in (sq := find_square(wm, wm.lambda1[0], b)).members
    )
    with pytest.raises(DomainError):
        square_equation(wm, square)


@pytest.mark.parametrize("tag,l", SECOND)
def test_pi_form_properties(tag, l):
    wm = default_module(tag, l)
    form = build_pi_form(wm)
    assert form.coefficient(wm.lam0, wm.minus(wm.lam0)) in (1, -1)
    assert all(i != j for i, j, _ in form.coeffs)
    # vanishes on every basis vector
    for lam in wm.weights:
        v = np.zeros(wm.dim, dtype=object)
        v[wm.idx(lam)] = 1
        assert form.evaluate_int(v) == 0
    assert pi_form_vanishes_on_samples(wm, form, RingSpec.integers(), 100, seed=41)
    assert pi_form_vanishes_on_samples(wm, form, RingSpec.zmod(9), 100, seed=43)


def test_pi_form_detects_non_orbit_vectors():
    wm = default_module("a", 6)
    form = build_pi_form(wm)
    v = np.zeros(wm.dim, dtype=object)
    v[wm.idx(wm.lam0)] = 1
    v[wm.idx(wm.minus(wm.lam0))] = 1
    assert form.evaluate_int(v) != 0


def test_dual_transport():
    wm = default_module("c")
    form = build_pi_form(wm)
    signs = bilinear_form_signs(wm)
    dual = form.dual_through(signs)
    ring = RingSpec.zmod(9)
    from chevalley.rep import get_representation, sample_word_rng

    rep = get_representation(wm, ring)
    rng = SplitMix64(7)
    atoms = [("x", a, v) for a in wm.case.phi for v in ring.elements() if not v.is_zero()]
    for _ in range(50):
        g = sample_word_rng(rep, atoms, 5, rng)
        assert dual.evaluate(g.row(wm.lam0), ring).is_zero()


def test_x_int_matrix_matches_pattern():
    wm = default_module("b")
    alpha = wm.case.delta[3]
    m = x_int_matrix(wm, alpha, 2)
    assert m.dtype == np.int64
    assert np.array_equal(np.diagonal(m), np.ones(wm.dim, dtype=np.int64))
    assert np.abs(m - np.eye(wm.dim, dtype=np.int64)).max() == 2
