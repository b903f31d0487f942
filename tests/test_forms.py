import numpy as np
import pytest

from chevalley import forms, weights
from chevalley.errors import DomainError, InternalConsistencyError, SpecMismatchError, UnsupportedCaseError
from chevalley.forms import (
    QuadraticForm,
    _canonical_shortest_path,
    bilinear_form_signs,
    bilinear_invariance_holds,
    bilinear_matrix,
    build_pi_form,
    find_square,
    pi_form_vanishes_on_samples,
    square_equation,
)
from chevalley.matrices import RVec
from chevalley.rep import RepTables, get_representation, rep_tables
from chevalley.rings import RingSpec, named_ring
from chevalley.rng import SplitMix64
from chevalley.roots import build_case
from chevalley.weights import WeightModule, build_weights, default_module

SECOND = [("a", 6), ("c", None)]


@pytest.mark.parametrize("tag,l", SECOND)
def test_bilinear_signs_exist_and_are_invariant(tag, l):
    wm = default_module(tag, l)
    eps = bilinear_form_signs(wm)
    assert eps[wm.lam0] == 1
    assert set(eps.values()) <= {1, -1}
    assert bilinear_invariance_holds(wm)


def test_bilinear_invariance_fails_for_a_flipped_sign(monkeypatch):
    """One weight's sign flipped breaks every constraint through it, and the
    pushed form shows it."""
    wm = default_module("c")
    eps = dict(bilinear_form_signs(wm))
    lam = wm.weights[5]
    eps[lam] = -eps[lam]
    monkeypatch.setattr(forms, "bilinear_form_signs", lambda _: eps)
    assert not bilinear_invariance_holds(wm)


def test_bilinear_invariance_holds_at_a10():
    """n = 512: 180 pushes of H, with no matrix product."""
    assert bilinear_invariance_holds(default_module("a", 10))


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
    from chevalley.rep import sample_word_rng

    rep = get_representation(wm, ring)
    rng = SplitMix64(7)
    atoms = [("x", a, v) for a in wm.case.phi for v in ring.elements() if not v.is_zero()]
    for _ in range(50):
        g = sample_word_rng(rep, atoms, 5, rng)
        assert dual.evaluate(g.row(wm.lam0), ring).is_zero()


# -- references for the array-built tables ----------------------------------------


def _bfs_signs(wm):
    """The bilinear signs by a plain breadth-first propagation over weights
    and roots, one ``shift`` at a time, then a sweep over every constraint."""
    rep = get_representation(wm, RingSpec.zmod(4))
    eps = {wm.lam0: 1}
    frontier = [wm.lam0]
    while frontier:
        nxt = []
        for lam in frontier:
            for alpha in wm.case.phi:
                mu = wm.shift(lam, alpha)
                if mu is None or mu in eps:
                    continue
                c_lam = rep.sign(lam, alpha)
                c_opp = rep.sign(wm.minus(mu), alpha)
                eps[mu] = -c_lam * c_opp * eps[lam]
                nxt.append(mu)
        frontier = nxt
    for lam in wm.weights:
        for alpha in wm.case.phi:
            mu = wm.shift(lam, alpha)
            if mu is not None:
                c_lam = rep.sign(lam, alpha)
                c_opp = rep.sign(wm.minus(mu), alpha)
                assert eps[mu] == -c_lam * c_opp * eps[lam]
    return eps


@pytest.mark.parametrize("tag,l", [("c", None), ("a", 6), ("a", 8)])
def test_bilinear_signs_match_the_plain_propagation(tag, l):
    wm = default_module(tag, l)
    assert bilinear_form_signs(wm) == _bfs_signs(wm)


@pytest.mark.parametrize("tag,l", [("a", 6), ("a", 8)])
def test_pi_form_matches_the_matrix_push(tag, l):
    """The line-update push equals s <- x^T s x with the integer matrices of
    the root elements along the same path."""
    wm = default_module(tag, l)
    mu1 = min((m for m in wm.components[2] if wm.distance(wm.lam0, m) == 2), key=wm.idx)
    start = square_equation(wm, find_square(wm, wm.lam0, mu1))
    s = np.zeros((wm.dim, wm.dim), dtype=np.int64)
    for i, j, c in start.coeffs:
        s[i, j] = s[j, i] = c
    path = _canonical_shortest_path(wm, mu1, wm.minus(wm.lam0))
    patterns = rep_tables(wm).patterns
    for lam, mu in zip(path, path[1:]):
        srcs, dsts, signs = patterns[wm.root_between(lam, mu)]
        x = np.eye(wm.dim, dtype=np.int64)
        x[dsts, srcs] += signs
        s = x.T @ s @ x
    want = tuple((i, j, int(s[i, j])) for i in range(wm.dim) for j in range(i + 1, wm.dim) if s[i, j])
    assert build_pi_form(wm).coeffs == want


def _loop_evaluate(form, v, ring):
    """The form at a vector, one boxed ring operation per entry."""
    total = ring.zero
    for i, j, c in form.coeffs:
        total = total + ring.el(c) * v.entry(i) * v.entry(j)
    return total


@pytest.mark.parametrize("name", ["int", "z4", "z9", "f2t2", "f3t3"])
def test_evaluate_matches_the_entry_loop(name):
    wm = default_module("a", 6)
    form = build_pi_form(wm)
    dual = form.dual_through(bilinear_form_signs(wm))
    ring = named_ring(name)
    pool = list(ring.elements()) if ring.is_finite else [ring.el(v) for v in range(-40, 41)]
    rng = SplitMix64(17)
    vectors = []
    for _ in range(20):
        v = RVec.zeros(ring, wm.dim)
        for i in range(wm.dim):
            if rng.randrange(3):
                v.set_entry(i, pool[rng.randrange(len(pool))])
        vectors.append(v)
    values = set()
    for v in vectors:
        for q in (form, dual, QuadraticForm(wm=wm, coeffs=((0, 5, 3), (2, 31, -7)))):
            got = q.evaluate(v, ring)
            assert got == _loop_evaluate(q, v, ring)
            values.add(got)
    assert len(values) > 1  # the vectors are not all on the orbit


def test_evaluate_edge_cases():
    wm = default_module("a", 6)
    form = build_pi_form(wm)
    ring = RingSpec.zmod(4)
    v = RVec.basis(ring, wm.dim, 0)
    assert QuadraticForm(wm=wm, coeffs=()).evaluate(v, ring) == ring.zero
    with pytest.raises(SpecMismatchError):
        form.evaluate(v, RingSpec.zmod(8))


@pytest.fixture
def cold_tables():
    """Empty the table caches, so that the test builds every table itself and
    nothing stays cached from other tests."""
    cached = (
        build_weights,
        weights._gram,
        weights.shift_table,
        weights._neighbors_of,
        rep_tables,
        bilinear_form_signs,
        build_pi_form,
    )
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


def test_cold_tables_use_neither_shift_nor_integer_matrices(cold_tables, monkeypatch):
    """The cold weight module, bilinear signs and pi-form read the shift
    table and the pattern arrays: no per-weight ``shift``."""
    calls = {"shift": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(WeightModule, "shift", counted("shift", WeightModule.shift))
    wm = build_weights(build_case("a", 6))
    assert rep_tables.cache_info().currsize == 0
    bilinear_form_signs(wm)
    build_pi_form(wm)
    assert rep_tables.cache_info().currsize == 1
    assert calls == {"shift": 0}


@pytest.mark.parametrize("damage", ["flip", "drop"])
def test_broken_patterns_fail_the_sign_sweep(monkeypatch, damage):
    """A flipped sign, or a dropped entry whose opposite then has no partner,
    breaks a constraint: the sweep raises, and the propagation still ends."""
    wm = default_module("a", 6)
    tables = rep_tables(wm)
    patterns = dict(tables.patterns)
    alpha = wm.case.phi[0]
    srcs, dsts, signs = patterns[alpha]
    if damage == "flip":
        patterns[alpha] = (srcs, dsts, np.concatenate([-signs[:1], signs[1:]]))
    else:
        patterns[alpha] = (srcs[1:], dsts[1:], signs[1:])
    broken = RepTables(wm=wm, patterns=patterns)
    monkeypatch.setattr(forms, "rep_tables", lambda _: broken)
    with pytest.raises(InternalConsistencyError):
        bilinear_form_signs.__wrapped__(wm)
