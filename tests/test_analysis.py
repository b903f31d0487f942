import dataclasses
import hashlib
import json

import numpy as np
import pytest

from chevalley.analysis import (
    MembershipVerdict,
    SigmaPair,
    Witness,
    chevalley_matsumoto,
    column_stabilizer_pair,
    corner_ideals,
    extract_from_nilpotent,
    extract_from_parabolic,
    extract_from_weight_stabilizer,
    in_G_sigma,
    in_normalizer,
    in_opposite_parabolic,
    in_parabolic,
    level_certificate,
    level_reduction_check,
    levi_unipotent_split,
    nilpotent_vanishing_check,
    opposite_levi_split,
    parse_sigma,
    replay_trace,
    root_type_failures,
    sigma_generator_atoms,
    transporter_check,
)
from chevalley import analysis
from chevalley.checks import SuiteResult
from chevalley.errors import DomainError, InternalConsistencyError, NonUnitError, UnsupportedCaseError
from chevalley.matrices import RMat
from chevalley.rep import GroupElement, get_representation, rep_tables, representation, sample_word_rng, weyl_monomial
from chevalley.rings import Ideal, RingSpec, named_ring
from chevalley.rng import SplitMix64
from chevalley.roots import build_case, height
from chevalley.weights import build_weights, pairing_wr, sigma_split


def stabilizes_column(x: GroupElement, g: GroupElement, lam1) -> bool:
    return (x * g).column(lam1) == g.column(lam1)


def ring_commutator_identity_holds(x: GroupElement, g: GroupElement) -> bool:
    """g^-1 x g equals x plus the ring commutator of the two matrices."""
    lhs = g.inv_mat * x.mat * g.mat
    rhs = x.mat + (x.mat * g.mat - g.mat * x.mat)
    return lhs == rhs


@pytest.fixture(scope="module")
def rep_b_z4():
    return representation("b", None, RingSpec.zmod(4))


@pytest.fixture(scope="module")
def rep_c_z4():
    return representation("c", None, RingSpec.zmod(4))


def _delta_atoms(rep):
    return [
        ("x", a, v) for a in rep.case.delta for v in rep.ring.elements() if not v.is_zero()
    ]


# -- congruence and normalizer predicates --------------------------------------------


def test_subsystem_words_pass_every_level(rep_b_z4):
    rep = rep_b_z4
    rng = SplitMix64(1)
    for sigma_text in ("(0),(0)", "(2),(0)", "R,R"):
        sigma = parse_sigma(rep.ring, sigma_text)
        for _ in range(10):
            g = sample_word_rng(rep, _delta_atoms(rep), 6, rng)
            assert in_G_sigma(g, sigma)
            assert in_normalizer(g, sigma)


def test_orbit_root_elements_membership(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    beta = rep.case.omega_plus[0]
    assert in_G_sigma(rep.x(beta, 2), sigma)
    assert not in_G_sigma(rep.x(beta, 1), sigma)
    neg = tuple(-x for x in beta)
    assert not in_G_sigma(rep.x(neg, 2), sigma)  # minus ideal is zero


def test_identity_and_full_level(rep_b_z4):
    rep = rep_b_z4
    full = SigmaPair.full(rep.ring)
    assert in_normalizer(rep.identity(), full)
    rng = SplitMix64(2)
    atoms = [("x", a, v) for a in rep.case.phi for v in rep.ring.elements() if not v.is_zero()]
    for _ in range(10):
        g = sample_word_rng(rep, atoms, 5, rng)
        assert in_normalizer(g, full)
        assert in_G_sigma(g, full)


@pytest.mark.parametrize("ring_name", ["z4", "z8", "z12", "f2t2"])
def test_every_level_reads_back_from_its_description(ring_name):
    import itertools

    ring = named_ring(ring_name)
    ideals = [Ideal(ring, parts) for parts in itertools.product(*(range(f.k + 1) for f in ring.factors))]
    for plus in ideals:
        for minus in ideals:
            sigma = SigmaPair(plus, minus)
            assert parse_sigma(ring, sigma.describe()) == sigma, sigma.describe()


@pytest.mark.parametrize(
    "ring_name,text",
    [("f2t2", t) for t in ["(2)", "(2),(0),(1)", "x,(2)", "R,(2)", "(2.5),(0)", "((1, 2, 3)),(0)", "((2),(0)", "R,((2, 0))"]]
    + [("z12", "((5, 1)),(0)"), ("z12", "((1, -1)),(0)")],
)
def test_malformed_levels_are_refused(ring_name, text):
    with pytest.raises(DomainError):
        parse_sigma(named_ring(ring_name), text)


@pytest.mark.parametrize("tag,l", [("c", None), ("a", 6)])
def test_second_type_normalizer_exceeds_congruence(tag, l):
    rep = representation(tag, l, RingSpec.zmod(4))
    wm = rep.wm
    sigma = SigmaPair.zero(rep.ring)
    # a monomial word carrying the top line to the bottom line
    path = [wm.lam0]
    while path[-1] != wm.minus(wm.lam0):
        cur = path[-1]
        nxt = min(
            (mu for mu in wm.neighbors(cur) if wm.distance(mu, wm.minus(wm.lam0)) < wm.distance(cur, wm.minus(wm.lam0))),
            key=wm.idx,
        )
        path.append(nxt)
    atoms = []
    for a, b in zip(path, path[1:]):
        atoms.append(("w", wm.root_between(a, b), rep.ring.one))
    w = rep.element_from_word(tuple(atoms))
    assert not in_parabolic(w)
    assert not in_G_sigma(w, sigma)
    assert in_normalizer(w, sigma)
    assert transporter_check(w, sigma)


def _normalizer_reference(g, sigma):
    """The second-type normalizer conditions read entry by entry."""
    wm = g.rep.wm
    lam0, bottom = wm.lam0, wm.minus(wm.lam0)
    for lam in wm.weights:
        if lam in (lam0, bottom):
            continue
        if g.entry(lam0, lam) not in sigma.plus or g.inv_entry(lam, lam0) not in sigma.minus:
            return False
    corner = Ideal.from_elems(g.rep.ring, [g.entry(lam0, bottom)])
    inv_corner = Ideal.from_elems(g.rep.ring, [g.inv_entry(bottom, lam0)])
    return corner * sigma.minus <= sigma.plus and inv_corner * sigma.plus <= sigma.minus


@pytest.mark.parametrize(
    "tag,l,ring_name,level",
    [("c", None, "z4", "(2),(0)"), ("c", None, "z12", "(2),(3)"), ("a", 6, "z8", "(4),(2)"), ("c", None, "f2t2", None)],
)
def test_second_type_normalizer_matches_entrywise_reference(tag, l, ring_name, level):
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    if level is None:
        t = Ideal.from_elems(ring, [ring.from_parts([(0, 1)])])
        sigma = SigmaPair(t, Ideal.zero(ring))
    else:
        sigma = parse_sigma(ring, level)
    level_atoms = sigma_generator_atoms(rep, sigma)
    any_atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    rng = SplitMix64(3)
    verdicts = []
    for i in range(30):
        g = sample_word_rng(rep, level_atoms if i % 3 else any_atoms, 1 + i % 5, rng)
        if i % 4 == 0:
            g = g * rep.w(rep.case.simple_roots[i % rep.case.l], 1)
        verdict = in_normalizer(g, sigma)
        assert verdict == _normalizer_reference(g, sigma)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_moving_the_top_line_breaks_zero_level(rep_c_z4):
    rep = rep_c_z4
    sigma = SigmaPair.zero(rep.ring)
    beta = rep.case.omega_plus[0]
    g = rep.x(tuple(-x for x in beta), 1)
    assert not in_normalizer(g, sigma)


# -- decompositions ------------------------------------------------------------------------


def test_corner_decomposition_of_identity(rep_b_z4):
    v, g1, u = chevalley_matsumoto(rep_b_z4.identity())
    assert v.is_identity() and g1.is_identity() and u.is_identity()


def test_corner_decomposition_recovers_commuting_factors(rep_b_z4):
    rep = rep_b_z4
    case = rep.case
    beta = case.omega_plus[0]
    gamma = next(
        g
        for g in case.omega_plus
        if g != beta and case.root_add(beta, tuple(-x for x in g)) is None
    )
    g = rep.x(beta, 1) * rep.x(tuple(-x for x in gamma), 3)
    v, g1, u = chevalley_matsumoto(g)
    assert u == rep.x(beta, 1)
    assert v == rep.x(tuple(-x for x in gamma), 3)
    assert g1.is_identity()


def test_corner_decomposition_needs_unit_corner(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    # kill the corner: a monomial moving the top weight away has corner zero
    w = rep.w(rep.case.alpha1, 1)
    assert not w.entry(wm.lam0, wm.lam0).is_unit()
    with pytest.raises(DomainError):
        chevalley_matsumoto(w)


def _big_cell_words(rep, rng, trials):
    """Seeded (lower, levi, upper) words: up to 3 distinct roots of each
    orbit, up to 4 Levi atoms."""
    case = rep.case
    plus = list(case.omega_plus)
    nonzero = [v for v in rep.ring.elements() if not v.is_zero()]

    def value():
        return nonzero[rng.randrange(len(nonzero))]

    for _ in range(trials):
        rng.shuffle(plus)
        lower = tuple(("x", tuple(-x for x in b), value()) for b in plus[: rng.randrange(4)])
        rng.shuffle(plus)
        upper = tuple(("x", b, value()) for b in plus[: rng.randrange(4)])
        levi = tuple(("x", case.delta[rng.randrange(len(case.delta))], value()) for _ in range(rng.randrange(5)))
        yield lower, levi, upper


def test_corner_decomposition_round_trip_a8_f2t2():
    rep = representation("a", 8, named_ring("f2t2"))
    for lower, levi, upper in _big_cell_words(rep, SplitMix64(53), 6):
        g = rep.from_matrix(rep.element_from_word(lower + levi + upper).mat)
        v, g1, u = chevalley_matsumoto(g)
        assert v == rep.element_from_word(lower)
        assert g1 == rep.element_from_word(levi)
        assert u == rep.element_from_word(upper)
        assert v * g1 * u == g


def _count_matrix_products(monkeypatch) -> list:
    calls = []
    product = RMat.__mul__

    def counted(a, b):
        calls.append(a.n)
        return product(a, b)

    monkeypatch.setattr(RMat, "__mul__", counted)
    return calls


def test_short_words_multiply_without_matrix_products(monkeypatch):
    rep = representation("a", 8, named_ring("f2t2"))
    rng = SplitMix64(59)
    cases = list(_big_cell_words(rep, rng, 4))
    elements = [rep.from_matrix(rep.element_from_word(lower + levi + upper).mat) for lower, levi, upper in cases]
    phi = sorted(rep.case.phi)
    x = rep.x(phi[rng.randrange(len(phi))], 1)
    short = rep.element_from_word([("x", phi[rng.randrange(len(phi))], 1) for _ in range(3)])
    calls = _count_matrix_products(monkeypatch)
    factors = [chevalley_matsumoto(g) for g in elements]
    conjugate = x.conjugate(short)
    assert calls == []
    monkeypatch.undo()
    assert conjugate.mat == short.mat * x.mat * short.inv_mat
    for (lower, levi, upper), (v, g1, u) in zip(cases, factors):
        assert (v, g1, u) == tuple(rep.element_from_word(w) for w in (lower, levi, upper))


def test_levi_split_examples(rep_b_z4):
    rep = rep_b_z4
    rng = SplitMix64(5)
    levi_word = sample_word_rng(rep, _delta_atoms(rep), 4, rng) * rep.h(rep.case.alpha1, 3)
    u, l = levi_unipotent_split(levi_word)
    assert u.is_identity() and l == levi_word

    alpha = rep.case.omega_plus[2]
    g = rep.x(alpha, 3) * levi_word
    u, l = levi_unipotent_split(g)
    assert u == rep.x(alpha, 3)
    assert (u * l) == g

    v, l2 = opposite_levi_split(rep.x(tuple(-x for x in alpha), 2) * levi_word)
    assert v == rep.x(tuple(-x for x in alpha), 2)


def test_levi_split_rejects_outsiders(rep_b_z4):
    rep = rep_b_z4
    beta = rep.case.omega_plus[0]
    upper, lower = rep.x(beta, 1), rep.x(tuple(-x for x in beta), 1)
    assert in_parabolic(upper) and not in_opposite_parabolic(upper)
    assert in_opposite_parabolic(lower) and not in_parabolic(lower)
    torus = rep.h(rep.case.alpha1, 3)
    assert in_parabolic(torus) and in_opposite_parabolic(torus)
    with pytest.raises(DomainError):
        levi_unipotent_split(lower)


def test_both_levi_splits_refuse_singular_diagonal_blocks(monkeypatch, rep_b_z4):
    """The permutation matrix that swaps a weight of component 1 with one of
    component 2 is invertible and lies in both parabolics, but its diagonal
    blocks are singular: both splits raise ``DomainError``.  An internal
    error in the block part is not relabelled."""
    rep = rep_b_z4
    ring, wm = rep.ring, rep.wm
    i, j = wm.idx(wm.components[1][0]), wm.idx(wm.components[2][0])
    order = list(range(rep.n))
    order[i], order[j] = j, i
    mat = RMat.zeros(ring, rep.n)
    for row, col in enumerate(order):
        mat.set_entry(row, col, ring.one)
    g = rep.from_matrix(mat)
    assert in_parabolic(g) and in_opposite_parabolic(g)
    for split in (levi_unipotent_split, opposite_levi_split):
        with pytest.raises(DomainError, match="diagonal block is not invertible"):
            split(g)

    def planted(g, cross):
        raise InternalConsistencyError("planted")

    monkeypatch.setattr(analysis, "_block_diagonal_part", planted)
    for split in (levi_unipotent_split, opposite_levi_split):
        with pytest.raises(InternalConsistencyError, match="planted"):
            split(g)


def test_both_levi_splits_refuse_a_part_off_their_side(rep_b_z4):
    """The identity with one entry 1 between components 1 and 2 lies in
    both parabolics and its diagonal blocks are the identity, so its
    radical part is itself: unitriangular on one side only.  Each split
    refuses the element whose entry is on the other side."""
    rep = rep_b_z4
    ring, wm = rep.ring, rep.wm
    i, j = wm.idx(wm.components[1][0]), wm.idx(wm.components[2][0])
    for (row, col), split, other in (
        ((i, j), opposite_levi_split, levi_unipotent_split),
        ((j, i), levi_unipotent_split, opposite_levi_split),
    ):
        mat = RMat.identity(ring, rep.n)
        mat.set_entry(row, col, ring.one)
        g = rep.from_matrix(mat)
        assert in_parabolic(g) and in_opposite_parabolic(g)
        with pytest.raises(DomainError, match="not unitriangular across components"):
            split(g)
        u, levi = other(g)
        assert u == g and levi.is_identity()


def test_levi_split_at_lower_weight(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    lam1 = wm.lambda1[1]
    split = sigma_split(wm, lam1)
    g = rep.x(split.plus[0], 3) * rep.x(split.zero[0], 2)
    assert in_parabolic(g, lam1)
    u, l = levi_unipotent_split(g, lam1)
    assert (u * l) == g
    assert in_parabolic(u, lam1)
    assert in_parabolic(l, lam1) and in_opposite_parabolic(l, lam1)


def _raising_word(wm, lam) -> tuple[int, ...]:
    """Indices i_1, ..., i_m of simple reflections with
    s_(i_1) ... s_(i_m)(lam) = top weight, each one reflecting in a simple
    root that pairs to -1 with the weight it moves, so raising it."""
    word, cur = [], lam
    while cur != wm.lam0:
        i = next(i for i, alpha in enumerate(wm.case.simple_roots) if pairing_wr(cur, alpha) == -1)
        cur = wm.reflect(cur, wm.case.simple_roots[i])
        word.append(i)
    return tuple(reversed(word))


def _to_top(rep, lam) -> GroupElement:
    """The monomial element w_(i_1)(1) ... w_(i_m)(1) of the raising word of
    lam, which maps the parabolic at lam onto the one at the top."""
    word = _raising_word(rep.wm, lam)
    return rep.element_from_word(tuple(("w", rep.case.simple_roots[i], rep.ring.one) for i in word))


@pytest.mark.parametrize(
    "tag,l,step", [("b", None, 1), ("c", None, 1)] + [("a", l, 1) for l in range(5, 9)] + [("a", 9, 17), ("a", 10, 17)]
)
def test_levi_masks_grade_by_the_monomial_to_the_top(tag, l, step):
    """The masks at lam, graded by d(lam, mu), equal those graded by the
    component of pi(mu), pi the permutation of the monomial
    w_(i_1)(1) ... w_(i_m)(1) of lam's raising word (``weyl_monomial``)."""
    wm = build_weights(build_case(tag, l))
    patterns = rep_tables(wm).patterns
    simple = [weyl_monomial(patterns, wm.dim, alpha)[0] for alpha in wm.case.simple_roots]
    top = np.array([wm.component_of(mu) for mu in wm.weights])
    for lam in wm.weights[::step]:
        pi = np.arange(wm.dim)
        for i in reversed(_raising_word(wm, lam)):
            pi = simple[i][pi]
        comp = top[pi]
        for side in (1, -1):
            cross, frozen = analysis._levi_masks.__wrapped__(wm, lam, side)  # uncached: a10 masks are 2 MB each
            assert cross.tolist() == np.flatnonzero(comp[:, None] != comp[None, :]).tolist(), (lam, side)
            assert frozen.tolist() == np.flatnonzero(side * (comp[None, :] - comp[:, None]) <= 0).tolist(), (lam, side)


def _split_through_the_top(g, lam, side):
    """The reference Levi split at lam: the split of w g w^-1 at the top
    weight, each part conjugated back by w^-1 (w from ``_to_top``)."""
    member, name = (in_parabolic, "parabolic") if side > 0 else (in_opposite_parabolic, "opposite parabolic")
    if not member(g, lam):
        raise DomainError(f"element is not in the {name} at the given weight")
    w = _to_top(g.rep, lam)
    split = levi_unipotent_split if side > 0 else opposite_levi_split
    return tuple(part.conjugate(w.inverse()) for part in split(g.conjugate(w)))


def _split_outcome(split, g, lam, side):
    """The matrices and inverses of the parts, or the refusal's class and text."""
    try:
        parts = split(g, lam, side)
    except (DomainError, InternalConsistencyError) as exc:
        return type(exc), str(exc)
    return tuple((part.mat, part.inv_mat) for part in parts)


def _read(g: GroupElement) -> GroupElement:
    """A copy of g with its matrix and inverse read, and no chain."""
    return GroupElement(g.rep, g.mat.copy(), g.inv_mat.copy())


def _top_split_inputs(rep, rng):
    """(side, element at the top, refused) triples: sampled members of the
    parabolic (side +1) and its opposite (side -1), read or as words; the
    other side's root element, not a member; the identity plus one entry
    between components 1 and 2, which is a part off one side; and the
    permutation that swaps those two weights, whose diagonal blocks are
    singular."""
    case, ring, wm, n = rep.case, rep.ring, rep.wm, rep.n
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, 1, 3)]
    units = ring.units() if ring.is_finite else [ring.el(-1), ring.one]
    for side, orbit in ((1, case.omega_plus), (-1, case.omega_minus)):
        atoms = [("x", a, v) for a in case.delta + orbit for v in values] + [("h", case.alpha1, u) for u in units]
        g = sample_word_rng(rep, atoms, 5, rng)
        yield side, g, False
        yield side, _read(sample_word_rng(rep, atoms, 5, rng)), False
        yield -side, rep.x(orbit[rng.randrange(len(orbit))], 1), True
    i, j = wm.idx(wm.components[1][0]), wm.idx(wm.components[2][0])
    for row, col in ((i, j), (j, i)):
        mat, inv = RMat.identity(ring, n), RMat.identity(ring, n)
        mat.set_entry(row, col, ring.one)
        inv.set_entry(row, col, -ring.one)
        for side in (1, -1):
            yield side, GroupElement(rep, mat, inv), (side < 0) == (row == i)
    order = list(range(n))
    order[i], order[j] = j, i
    perm = RMat.zeros(ring, n)
    for row, col in enumerate(order):
        perm.set_entry(row, col, ring.one)
    for side in (1, -1):
        yield side, GroupElement(rep, perm, perm.copy()), True


@pytest.mark.parametrize("tag,l,ring_name", [("b", None, "z4"), ("b", None, "f2t2"), ("a", 7, "int"), ("c", None, "z4")])
def test_graded_levi_split_matches_the_split_through_the_top(tag, l, ring_name):
    """At every weight of the first component the split by the graded
    masks agrees with the reference carried through the top weight, on the
    matrices and inverses of both parts, for both sides, and refuses what
    the reference refuses with the same error: elements built at the top
    and moved to lam by w^-1."""
    rep = representation(tag, l, named_ring(ring_name))
    rng = SplitMix64(rep.n)
    inputs = list(_top_split_inputs(rep, rng))
    for lam in rep.wm.components[1]:
        winv = _to_top(rep, lam).inverse()
        for side, top, refused in inputs:
            g = top.conjugate(winv)
            got = _split_outcome(analysis._levi_split, g, lam, side)
            assert got == _split_outcome(_split_through_the_top, g, lam, side), (lam, side)
            assert (got[0] in (DomainError, InternalConsistencyError)) == refused, (lam, side, got)


def test_a_split_below_the_top_costs_no_more_than_one_at_the_top(monkeypatch):
    """The split at a weight of the first component reads its graded masks
    and moves no line: it runs no more ``RMat`` products or line moves than
    the split of the same element at the top."""
    from chevalley import matrices

    rep = representation("b", None, named_ring("z4"))
    case, lam1 = rep.case, rep.wm.components[1][3]
    top = rep.from_matrix(rep.element_from_word([("x", case.omega_plus[2], 3), ("x", case.delta[1], 2)]).mat)
    below = _read(top.conjugate(_to_top(rep, lam1).inverse()))
    costs = []
    for g, lam in ((top, rep.wm.lam0), (below, lam1)):
        analysis._levi_masks(rep.wm, lam, 1)
        products, moves = _count_matrix_products(monkeypatch), []
        lines = matrices._update_lines
        monkeypatch.setattr(matrices, "_update_lines", lambda *a: moves.append(1) or lines(*a))
        for part in levi_unipotent_split(g, lam):
            part.mat, part.inv_mat
        monkeypatch.undo()
        costs.append((len(products), len(moves)))
    assert costs[1][0] <= costs[0][0] and costs[1][1] <= costs[0][1], costs


# -- extraction --------------------------------------------------------------------------------


def test_extract_single_hot_factor(rep_b_z4):
    rep = rep_b_z4
    ideal = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    beta = rep.case.omega_plus[5]
    g = rep.x(beta, 1)
    wit = extract_from_parabolic(g, ideal, side=+1)
    assert wit is not None and wit.root == rep.case.max_root
    # the transported value generates the same ideal as the seed value
    assert Ideal.from_elems(rep.ring, [wit.value]) == Ideal.from_elems(rep.ring, [rep.ring.el(1)])
    assert replay_trace(rep, wit.trace, g) == rep.x(wit.root, wit.value)


def test_extract_nothing_when_cold(rep_b_z4):
    rep = rep_b_z4
    ideal = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    g = rep.x(rep.case.omega_plus[1], 2) * rep.x(rep.case.omega_plus[3], 2)
    assert extract_from_parabolic(g, ideal, side=+1) is None


def test_extract_mixed_factors_keeps_hot_ideal(rep_b_z4):
    rep = rep_b_z4
    ideal = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    b1, b2 = rep.case.omega_plus[2], rep.case.omega_plus[6]
    g = rep.x(b1, 1) * rep.x(b2, 2)
    wit = extract_from_parabolic(g, ideal, side=+1)
    assert wit is not None
    hot_plus_ideal = Ideal.from_elems(rep.ring, [wit.value]) + ideal
    seed_ideal = Ideal.from_elems(rep.ring, [rep.ring.el(1)]) + ideal
    assert hot_plus_ideal == seed_ideal
    assert replay_trace(rep, wit.trace, g) == rep.x(wit.root, wit.value)


def test_extract_minus_side(rep_b_z4):
    rep = rep_b_z4
    ideal = Ideal.zero(rep.ring)
    beta = rep.case.omega_plus[4]
    g = rep.x(tuple(-x for x in beta), 3)
    wit = extract_from_parabolic(g, ideal, side=-1)
    assert wit is not None and wit.side == -1
    assert wit.root == tuple(-x for x in rep.case.max_root)
    assert replay_trace(rep, wit.trace, g) == rep.x(wit.root, wit.value)


def test_weight_stabilizer_requires_hypotheses(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    lam1 = rep.wm.lambda1[0]
    with pytest.raises(DomainError):
        extract_from_weight_stabilizer(rep.x(rep.case.omega_plus[0], 1), lam1, sigma)
    with pytest.raises(DomainError):
        extract_from_weight_stabilizer(rep.identity(), rep.wm.lam0, sigma)


def test_weight_stabilizer_membership_verdict(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    lam1 = rep.wm.lambda1[0]
    res = extract_from_weight_stabilizer(rep.identity(), lam1, sigma)
    assert isinstance(res, MembershipVerdict)


def test_weight_stabilizer_witness(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    sigma = parse_sigma(rep.ring, "(2),(0)")
    lam1 = wm.lambda1[3]
    split = sigma_split(wm, lam1)
    g = rep.x(split.plus[1], 1)
    res = extract_from_weight_stabilizer(g, lam1, sigma)
    assert isinstance(res, Witness)
    assert res.side == +1 and res.value not in sigma.plus
    assert replay_trace(rep, res.trace, g) == rep.x(res.root, res.value)


MALFORMED_TRACES = {
    "rmul-first": lambda rep: [("rmul", ("x", rep.case.delta[0], rep.ring.one))],
    "split-first": lambda rep: [("unipotent_part", rep.wm.lam0)],
    "empty": lambda rep: [],
    "unknown-op": lambda rep: [("twist", rep.wm.lam0)],
    "seed-without-element": lambda rep: [("seed",)],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
def test_replay_refuses_malformed_traces(rep_b_z4, name):
    """Every malformed trace is a DomainError, also an op with no element to
    act on."""
    with pytest.raises(DomainError):
        replay_trace(rep_b_z4, MALFORMED_TRACES[name](rep_b_z4))
    with pytest.raises(DomainError):
        analysis._trace_op_json(("twist", rep_b_z4.wm.lam0))


def test_nilpotent_vanishing_examples(rep_b_z4):
    rep = rep_b_z4
    b = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    assert nilpotent_vanishing_check(rep.x(rep.case.phi[0], 2), b)
    rng = SplitMix64(7)
    atoms = [("x", a, rep.ring.el(2)) for a in rep.case.phi]
    mix = [("x", a, v) for a in rep.case.phi for v in rep.ring.elements() if not v.is_zero()]
    for _ in range(40):
        g = sample_word_rng(rep, atoms, 4, rng)
        assert nilpotent_vanishing_check(g, b)
        h = sample_word_rng(rep, mix, 4, rng)
        assert nilpotent_vanishing_check(rep.x(rep.case.phi[3], 2).conjugate(h), b)
    with pytest.raises(DomainError):
        nilpotent_vanishing_check(rep.x(rep.case.phi[0], 1), b)


def test_nilpotent_extraction_rejects_opposite_members(rep_b_z4):
    rep = rep_b_z4
    b = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    g = rep.x(tuple(-x for x in rep.case.omega_plus[0]), 2)
    assert in_opposite_parabolic(g)
    with pytest.raises(DomainError):
        extract_from_nilpotent(g, b)


def test_nilpotent_extraction_produces_stabilizer(rep_b_z4):
    rep = rep_b_z4
    b = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    g = rep.x(rep.case.omega_plus[2], 2) * rep.x(tuple(-x for x in rep.case.omega_plus[5]), 2)
    step = extract_from_nilpotent(g, b)
    assert in_parabolic(step.element, step.lam1)
    assert not in_opposite_parabolic(step.element)
    assert replay_trace(rep, step.trace, g) == step.element
    res = extract_from_weight_stabilizer(step.element, step.lam1, SigmaPair.zero(rep.ring))
    assert isinstance(res, Witness)
    assert not res.value.is_zero()


def test_nilpotent_extraction_refuses_a_wrong_line_scale(monkeypatch, rep_b_z4):
    """A planted wrong scale (the entry of g^-1 read one too high) breaks
    the line stabilization identity for both signs."""
    rep = rep_b_z4
    b = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    g = rep.x(rep.case.omega_plus[2], 2) * rep.x(tuple(-x for x in rep.case.omega_plus[5]), 2)
    entry = GroupElement.inv_entry
    monkeypatch.setattr(GroupElement, "inv_entry", lambda self, lam, mu: entry(self, lam, mu) + rep.ring.one)
    with pytest.raises(InternalConsistencyError, match="line stabilization identity fails"):
        extract_from_nilpotent(g, b)


# -- column stabilizers and corner ideals ----------------------------------------------------------


def test_column_stabilizer_identity_case(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    lam1 = wm.lambda1[0]
    mu = wm.neighbor_in_component(lam1)
    nu = wm.neighbor_in_component(lam1, mu)
    x = column_stabilizer_pair(rep.identity(), lam1, mu, nu)
    assert x.is_identity()


def test_column_stabilizer_sampled(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    rng = SplitMix64(13)
    atoms = [("x", a, v) for a in rep.case.phi for v in rep.ring.elements() if not v.is_zero()]
    ring8 = RingSpec.zmod(8)
    rep8 = get_representation(wm, ring8)
    atoms8 = [("x", a, v) for a in rep.case.phi for v in ring8.elements() if not v.is_zero()]
    for _ in range(25):
        w = sample_word_rng(rep8, atoms8, 5, rng)
        g = rep8.x(rep.case.phi[rng.randrange(len(rep.case.phi))], 1 + rng.randrange(7)).conjugate(w)
        lam1 = wm.lambda1[rng.randrange(len(wm.lambda1))]
        mu = wm.neighbor_in_component(lam1)
        nu = wm.neighbor_in_component(lam1, mu)
        x = column_stabilizer_pair(g, lam1, mu, nu)
        assert stabilizes_column(x, g, lam1)
        assert ring_commutator_identity_holds(x, g)


def test_column_stabilizer_on_the_largest_case(rep_c_z4):
    rep = rep_c_z4
    wm = rep.wm
    rng = SplitMix64(17)
    atoms = [("x", a, v) for a in rep.case.phi for v in rep.ring.elements() if not v.is_zero()]
    for _ in range(5):
        w = sample_word_rng(rep, atoms, 5, rng)
        g = rep.x(rep.case.phi[rng.randrange(len(rep.case.phi))], 1).conjugate(w)
        lam1 = wm.lambda1[rng.randrange(len(wm.lambda1))]
        mu = wm.neighbor_in_component(lam1)
        nu = wm.neighbor_in_component(lam1, mu)
        x = column_stabilizer_pair(g, lam1, mu, nu)
        assert stabilizes_column(x, g, lam1)
        assert ring_commutator_identity_holds(x, g)


def test_column_stabilizer_needs_adjacent_triple(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    lam1 = wm.lambda1[0]
    mu = wm.neighbor_in_component(lam1)
    with pytest.raises(DomainError):
        column_stabilizer_pair(rep.identity(), lam1, mu, lam1)


def test_corner_ideals_block_cases(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    rng = SplitMix64(19)
    lam1 = wm.lambda1[0]
    g = sample_word_rng(rep, _delta_atoms(rep), 5, rng)
    a, b, ap, bp = corner_ideals(g, lam1)
    assert b.is_zero()
    assert bp.is_zero()

    connect = wm.root_between(lam1, wm.lam0)
    g2 = rep.x(connect, 3)
    a2, b2, ap2, bp2 = corner_ideals(g2, lam1)
    assert b2.is_zero()
    assert a2.is_zero()
    assert bp2 == Ideal.from_elems(rep.ring, [rep.ring.el(3)])


def test_corner_bounds_on_level_members(rep_b_z4):
    rep = rep_b_z4
    wm = rep.wm
    sigma = parse_sigma(rep.ring, "(2),(0)")
    atoms = sigma_generator_atoms(rep, sigma)
    rng = SplitMix64(23)
    for _ in range(30):
        base = atoms[rng.randrange(len(atoms))]
        w = sample_word_rng(rep, atoms, 4, rng)
        g = rep.element_from_word((base,)).conjugate(w)
        assert not root_type_failures(g)
        for lam1 in wm.lambda1[:6]:
            a, b, ap, bp = corner_ideals(g, lam1)
            assert (a * b) <= sigma.plus
            assert (ap * bp) <= sigma.minus


# -- transporter and level certificates ------------------------------------------------------------


def test_transporter_examples(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    atoms = sigma_generator_atoms(rep, sigma)
    rng = SplitMix64(29)
    g = sample_word_rng(rep, atoms, 6, rng)
    assert transporter_check(g, sigma)
    assert transporter_check(rep.h(rep.case.alpha2, 3), sigma)
    assert not transporter_check(rep.x(rep.case.omega_plus[0], 1), sigma)


def _transporter_oracle(g, sigma, atoms):
    """The full-conjugate path: each atom as a whole matrix, conjugated by g."""
    rep = g.rep
    return all(in_G_sigma(rep.element_from_word((a,)).conjugate(g), sigma) for a in atoms)


def _members_and_escapes(rep, sigma, seed, n=4):
    """n words in the level generators, each also moved by a unit upper-orbit
    root element."""
    atoms = sigma_generator_atoms(rep, sigma)
    rng = SplitMix64(seed)
    plus = rep.case.omega_plus
    out = []
    for _ in range(n):
        g = sample_word_rng(rep, atoms, 4, rng)
        out += [g, rep.x(plus[rng.randrange(len(plus))], 1) * g]
    return out


def _check_against_oracle(rep, sigma, seed):
    atoms = sigma_generator_atoms(rep, sigma)
    verdicts = []
    for g in _members_and_escapes(rep, sigma, seed):
        verdict = transporter_check(g, sigma)
        assert verdict == _transporter_oracle(g, sigma, atoms)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("tag", ["b", "c"])
@pytest.mark.parametrize(
    "ring_name,level", [("z4", "(2),(0)"), ("z8", "(4),(2)"), ("z12", "(6),(3)")]
)
def test_line_only_transporter_matches_full_conjugates(tag, ring_name, level):
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    _check_against_oracle(rep, parse_sigma(ring, level), seed=len(ring_name) + ord(tag))


@pytest.mark.parametrize("tag", ["b", "c"])
def test_line_only_transporter_over_truncated_polynomials(tag):
    ring = named_ring("f2t2")
    rep = representation(tag, None, ring)
    t = Ideal.from_elems(ring, [ring.from_parts([(0, 1)])])
    for sigma in (SigmaPair(t, Ideal.zero(ring)), SigmaPair(t, t)):
        _check_against_oracle(rep, sigma, seed=ord(tag))


def _escape_reference(g, roots, sigma, inverse_side):
    """The full-conjugate path of the escape search: every candidate built
    as a whole matrix before the congruence conditions read it."""
    rep = g.rep
    for gamma in sorted(roots, key=lambda r: (height(r), r)):
        cand = rep.x(gamma, 1).conjugate(g.inverse() if inverse_side else g)
        if not in_G_sigma(cand, sigma):
            return gamma, cand
    return None


@pytest.mark.parametrize("tag", ["b", "c"])
@pytest.mark.parametrize("ring_name", ["z4", "f2t2"])
def test_line_only_escape_matches_full_conjugates(tag, ring_name):
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    gen = Ideal.from_elems(ring, [ring.el(2) if ring_name == "z4" else ring.from_parts([(0, 1)])])
    verdicts = []
    for sigma in (SigmaPair(gen, Ideal.zero(ring)), SigmaPair(gen, gen)):
        for g in _members_and_escapes(rep, sigma, seed=ord(tag) + len(ring_name), n=1):
            for inverse_side in (False, True):
                by = g.inverse() if inverse_side else g
                for gamma in rep.case.phi:
                    conj = rep.x(gamma, 1).conjugate(by)
                    escapes = not in_G_sigma(conj, sigma)
                    got = analysis._first_escape(g, [gamma], sigma, inverse_side)
                    assert got == (gamma if escapes else None)
                    verdicts.append(escapes)
                got = analysis._first_escape(g, rep.case.phi, sigma, inverse_side)
                expected = _escape_reference(g, rep.case.phi, sigma, inverse_side)
                if expected is None:
                    assert got is None
                else:
                    # the trace op that extraction records builds the same conjugate
                    kind = "inv_conj_atom" if inverse_side else "conj_atom"
                    trace = []
                    built = analysis._step(trace, g, kind, ("x", got, ring.one))
                    assert got == expected[0] and built == expected[1]
                    assert trace == [(kind, ("x", expected[0], ring.one))]
    assert True in verdicts and False in verdicts


def _level(ring, plus, minus):
    """The level pair of principal ideals with the given generators, each
    given by its residues."""
    return SigmaPair(*(Ideal.from_elems(ring, [ring.from_parts(p)]) for p in (plus, minus)))


@pytest.mark.parametrize(
    "tag,l,ring_name,plus,minus",
    [
        ("b", None, "z4", (2,), (0,)),
        ("c", None, "z4", (2,), (2,)),
        ("b", None, "z12", (2, 0), (0, 1)),
        ("c", None, "z12", (2, 0), (2, 1)),
        ("b", None, "f2t2", ((0, 1),), ((0, 0),)),
        ("c", None, "f2t2", ((0, 1),), ((0, 1),)),
        ("b", None, "f3t3", ((0, 1, 0),), ((0, 0, 1),)),
        ("c", None, "f3t3", ((0, 0, 1),), ((0, 1, 0),)),
        ("a", 6, "z8", (4,), (2,)),
    ],
)
def test_batched_top_line_mask_matches_full_conjugates(tag, l, ring_name, plus, minus):
    """One verdict per atom of the whole enumerated family, each against the
    full conjugate, on level members and on escape controls."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    sigma = _level(ring, plus, minus)
    atoms = sigma_generator_atoms(rep, sigma)
    pairs = [(alpha, value) for _, alpha, value in atoms]
    verdicts = set()
    for g in _members_and_escapes(rep, sigma, seed=len(atoms), n=1):
        mask = analysis._top_line_mask(g, pairs, sigma)
        assert mask.tolist() == [
            in_G_sigma(rep.element_from_word((a,)).conjugate(g), sigma) for a in atoms
        ]
        verdicts.update(mask.tolist())
    assert verdicts == {True, False}


def test_certificate_subsystem_only(rep_b_z4):
    rep = rep_b_z4
    target = SigmaPair.zero(rep.ring)
    cert = level_certificate(rep, _delta_atoms(rep), [], target, budget=60)
    assert cert.matched and cert.lower == target
    assert cert.normalizer_consistent


def test_certificate_propagates_broken_invariants(rep_b_z4, monkeypatch):
    """Extraction runs only on a generator outside the normalizer: here
    x_beta(1) x_delta(1), a parabolic member that escapes the zero level."""
    rep = rep_b_z4
    target = SigmaPair.zero(rep.ring)
    extra = [rep.element_from_word((("x", rep.case.omega_plus[0], 1), ("x", rep.case.delta[0], 1)))]

    def broken(*args, **kwargs):
        raise InternalConsistencyError("planted")

    monkeypatch.setattr(analysis, "extract_from_parabolic", broken)
    with pytest.raises(InternalConsistencyError, match="planted"):
        level_certificate(rep, _delta_atoms(rep), extra, target, budget=5)

    def refused(*args, **kwargs):
        raise DomainError("not applicable")

    monkeypatch.setattr(analysis, "extract_from_parabolic", refused)
    monkeypatch.setattr(analysis, "extract_from_weight_stabilizer", refused)
    cert = level_certificate(rep, _delta_atoms(rep), extra, target, budget=5)
    assert cert.witnesses == [] and cert.stop == "budget"


def test_certificate_seeds_only_root_atoms(rep_b_z4):
    """A Weyl atom on an orbit root is no root element: it seeds no witness."""
    rep = rep_b_z4
    cert = level_certificate(rep, [("w", rep.case.omega_plus[0], rep.ring.one)], [], SigmaPair.zero(rep.ring), budget=0)
    assert cert.lower == SigmaPair.zero(rep.ring) and cert.witnesses == []


def test_certificate_stops_unresolved_when_the_worklist_runs_dry(rep_b_z4, monkeypatch):
    """An element that yields no witness and has no escaping atom adds
    nothing to the worklist; once none is left the search is unresolved."""
    rep = rep_b_z4
    g = rep.x(rep.case.omega_plus[0], 1).conjugate(rep.x(rep.case.delta[0], 1))
    monkeypatch.setattr(analysis, "_extraction_chain", lambda h, sigma: None)
    monkeypatch.setattr(analysis, "_top_line_mask", lambda h, atoms, sigma: np.ones(len(atoms), dtype=bool))
    monkeypatch.setattr(analysis, "generators_in_normalizer", lambda rep, atoms, extra, sigma: list(extra))
    cert = level_certificate(rep, _delta_atoms(rep), [g], SigmaPair.full(rep.ring), budget=50)
    assert cert.stop == "unresolved" and not cert.normalizer_consistent


def test_certificate_with_extra_generator(rep_b_z4):
    rep = rep_b_z4
    target = parse_sigma(rep.ring, "(2),(0)")
    extra = [rep.x(rep.case.max_root, 2)]
    cert = level_certificate(rep, _delta_atoms(rep), extra, target, budget=200)
    assert cert.matched
    assert cert.normalizer_consistent
    for w in cert.witnesses:
        seed_elt = extra[0] if w.trace[0][0] == "seed" else None
        assert replay_trace(rep, w.trace, seed_elt) == rep.x(w.root, w.value)


def test_certificate_of_full_level_generators(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(2)")
    atoms = sigma_generator_atoms(rep, sigma)
    cert = level_certificate(rep, atoms, [], sigma, budget=200)
    assert cert.matched and cert.lower == sigma


def test_grown_level_with_unit_generator(rep_b_z4):
    rep = rep_b_z4
    target = parse_sigma(rep.ring, "R,(0)")
    extra = [rep.x(rep.case.max_root, 1)]
    cert = level_certificate(rep, _delta_atoms(rep), extra, target, budget=200)
    assert cert.lower.plus.is_unit_ideal()


def test_level_reduction(rep_b_z4):
    rep = rep_b_z4
    two = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    sigma = parse_sigma(rep.ring, "(2),(0)")
    reduced = sigma.reduce(two)
    assert reduced.plus.is_zero() and reduced.minus.is_zero()
    assert reduced.spec.size == 2
    atoms = sigma_generator_atoms(rep, sigma)
    assert level_reduction_check(rep, atoms, [], sigma, two, budget=200)


def test_reduction_edge_ideals(rep_b_z4):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    zero = Ideal.zero(rep.ring)
    assert sigma.reduce(zero).plus == sigma.plus
    unit = Ideal.unit(rep.ring)
    q = sigma.reduce(unit)
    assert q.spec.size == 1


def test_parse_sigma_formats(rep_b_z4):
    ring = rep_b_z4.ring
    assert parse_sigma(ring, "(2),(0)").plus == Ideal.from_elems(ring, [ring.el(2)])
    assert parse_sigma(ring, "R,(2)").plus.is_unit_ideal()
    with pytest.raises(DomainError):
        parse_sigma(ring, "(2)")
    with pytest.raises(DomainError):
        parse_sigma(ring, "(x),(0)")


def test_machinery_over_truncated_polynomial_ring():
    ring = RingSpec.poly(2, 2)
    rep = representation("b", None, ring)
    t = ring.from_parts([(0, 1)])
    sigma = SigmaPair(Ideal.from_elems(ring, [t]), Ideal.zero(ring))
    atoms = sigma_generator_atoms(rep, sigma)
    rng = SplitMix64(5)
    for _ in range(15):
        g = sample_word_rng(rep, atoms, 5, rng)
        assert in_G_sigma(g, sigma) and in_normalizer(g, sigma)
    assert transporter_check(sample_word_rng(rep, atoms, 5, rng), sigma)
    beta = rep.case.omega_plus[3]
    wit = extract_from_parabolic(rep.x(beta, ring.one), sigma.plus, side=+1)
    assert wit is not None and wit.value not in sigma.plus
    assert replay_trace(rep, wit.trace, rep.x(beta, ring.one)) == rep.x(wit.root, wit.value)
    assert extract_from_parabolic(rep.x(beta, t), sigma.plus, side=+1) is None
    lam1 = rep.wm.lambda1[2]
    sp = sigma_split(rep.wm, lam1)
    res = extract_from_weight_stabilizer(rep.x(sp.plus[0], ring.one), lam1, sigma)
    assert isinstance(res, Witness)
    cert = level_certificate(rep, atoms, [], sigma, budget=100)
    assert cert.matched


def test_machinery_over_mixed_modulus_ring():
    ring = RingSpec.zmod(12)
    rep = representation("a", 5, ring)
    sig = SigmaPair(
        Ideal.from_elems(ring, [ring.el(2)]), Ideal.from_elems(ring, [ring.el(3)])
    )
    atoms = sigma_generator_atoms(rep, sig)
    rng = SplitMix64(21)
    for _ in range(15):
        g = sample_word_rng(rep, atoms, 5, rng)
        assert in_G_sigma(g, sig) and in_normalizer(g, sig)
    beta = rep.case.omega_plus[0]
    assert in_G_sigma(rep.x(beta, 2), sig)
    assert not in_G_sigma(rep.x(beta, 3), sig)
    wit = extract_from_parabolic(rep.x(beta, 1), sig.plus, side=+1)
    assert wit is not None
    assert replay_trace(rep, wit.trace, rep.x(beta, 1)) == rep.x(wit.root, wit.value)
    cert = level_certificate(rep, atoms, [], sig, budget=150)
    assert cert.matched
    assert sig.reduce(sig.plus).spec.size == 2


def test_level_generator_words_stay_inside(rep_b_z4):
    # level soundness: products of level generators satisfy both the
    # congruence and the normalizer conditions of that level
    rep = rep_b_z4
    for sigma_text in ("(2),(0)", "(0),(2)", "(2),(2)"):
        sigma = parse_sigma(rep.ring, sigma_text)
        atoms = sigma_generator_atoms(rep, sigma)
        rng = SplitMix64(53)
        for _ in range(25):
            g = sample_word_rng(rep, atoms, 1 + rng.randrange(8), rng)
            assert in_G_sigma(g, sigma)
            assert in_normalizer(g, sigma)


def test_extraction_chain_on_the_largest_case(rep_c_z4):
    rep = rep_c_z4
    wm = rep.wm
    sigma = parse_sigma(rep.ring, "(2),(0)")
    rng = SplitMix64(61)
    watoms = [("w", a, rep.ring.one) for a in rep.case.delta]
    for _ in range(10):
        lam1p = wm.lambda1[rng.randrange(len(wm.lambda1))]
        split = sigma_split(wm, lam1p)
        beta = split.plus[rng.randrange(len(split.plus))]
        g = rep.x(beta, 1).conjugate(sample_word_rng(rep, watoms, 3, rng))
        lam1 = next(lam for lam in wm.lambda1 if in_parabolic(g, lam))
        res = extract_from_weight_stabilizer(g, lam1, sigma)
        assert isinstance(res, Witness)
        assert replay_trace(rep, res.trace, g) == rep.x(res.root, res.value)

    b = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    g = rep.x(rep.case.omega_plus[7], 2) * rep.x(tuple(-x for x in rep.case.omega_plus[11]), 2)
    step = extract_from_nilpotent(g, b)
    res = extract_from_weight_stabilizer(step.element, step.lam1, SigmaPair.zero(rep.ring))
    assert isinstance(res, Witness) and not res.value.is_zero()


def test_extraction_matches_coordinate_scan(rep_b_z4):
    # a witness exists exactly when the unipotent part has a coordinate
    # outside the ideal
    from chevalley.analysis import coords_row

    rep = rep_b_z4
    wm = rep.wm
    ideal = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    rng = SplitMix64(59)
    omega_atoms = [
        ("x", a, v) for a in rep.case.omega_plus for v in rep.ring.elements() if not v.is_zero()
    ]
    for _ in range(40):
        u = sample_word_rng(rep, omega_atoms, rng.randrange(5), rng)
        l = sample_word_rng(rep, _delta_atoms(rep), rng.randrange(4), rng)
        g = u * l
        coords = coords_row(u, wm.lam0, rep.case.omega_plus)
        expect_witness = any(v not in ideal for v in coords.values())
        wit = extract_from_parabolic(g, ideal, side=+1)
        assert (wit is not None) == expect_witness


def _orbit(rep, side):
    return rep.case.omega_plus if side > 0 else [tuple(-x for x in r) for r in rep.case.omega_plus]


@pytest.mark.parametrize("tag", ["b", "c"])
def test_parabolic_extraction_refuses_a_unipotent_part_that_is_not_its_word(tag):
    """A matrix-only element with one entry off the top lines raised by 2
    can be a parabolic member whose unipotent part is not the word of its
    top-line coordinates.  Extraction then raises DomainError, which the
    level certificate skips; every witness it does return replays."""
    ring = named_ring("z4")
    rep = representation(tag, None, ring)
    two = Ideal.from_elems(ring, [ring.el(2)])
    top = rep.wm.idx(rep.wm.lam0)
    for side in (+1, -1):
        rng = SplitMix64(23 + side)
        orbit, refused = _orbit(rep, side), 0
        for _ in range(40):
            word = tuple(("x", orbit[rng.randrange(len(orbit))], ring.el(1 + rng.randrange(3))) for _ in range(2))
            mat = rep.element_from_word(word).mat.copy()
            i, j = 1 + rng.randrange(rep.n - 1), 1 + rng.randrange(rep.n - 1)
            i, j = (i + top) % rep.n, (j + top) % rep.n  # never the top line
            mat.set_entry(i, j, mat.entry(i, j) + ring.el(2))
            try:
                g = rep.from_matrix(mat)
            except NonUnitError:
                continue
            try:
                wit = extract_from_parabolic(g, two, side=side)
            except DomainError:
                refused += 1
                continue
            assert wit is None or replay_trace(rep, wit.trace, g) == rep.x(wit.root, wit.value)
        assert refused > 0


def test_stabilizer_extraction_refuses_a_radical_element_that_is_not_its_word(rep_b_z4):
    """A Weyl conjugate of x_beta(1) (beta an upper root below the maximal
    one) with one entry raised by 2 can stabilize a first-component line
    while its radical element there is not the word of its line coordinates.
    The stabilizer extraction then raises DomainError, which the extraction
    chain skips, not InternalConsistencyError; every witness replays."""
    rep = rep_b_z4
    ring, wm = rep.ring, rep.wm
    sigma = parse_sigma(ring, "(2),(0)")
    watoms = [("w", a, ring.one) for a in rep.case.delta]
    uppers = [b for b in rep.case.omega_plus if b != rep.case.max_root]
    rng = SplitMix64(31)
    refused = 0
    for _ in range(25):
        beta = uppers[rng.randrange(len(uppers))]
        mat = rep.x(beta, 1).conjugate(sample_word_rng(rep, watoms, 1 + rng.randrange(3), rng)).mat.copy()
        i, j = rng.randrange(rep.n), rng.randrange(rep.n)
        mat.set_entry(i, j, mat.entry(i, j) + ring.el(2))
        try:
            g = rep.from_matrix(mat)
        except NonUnitError:
            continue
        lam1 = next((lam for lam in wm.lambda1 if in_parabolic(g, lam)), None)
        if lam1 is None:
            continue
        analysis._extraction_chain(g, sigma)
        try:
            res = extract_from_weight_stabilizer(g, lam1, sigma)
        except DomainError:
            refused += 1
            continue
        assert not isinstance(res, Witness) or replay_trace(rep, res.trace, g) == rep.x(res.root, res.value)
    assert refused > 0


@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 6)])
@pytest.mark.parametrize("ring_name", ["z4", "z8", "f2t2", "int"])
def test_commute_table_matches_the_matrix_commutators(tag, l, ring_name):
    """Each table entry (s, beta) -> (beta + s, n) is the full matrix
    commutator [x_beta(xi), x_s(1)] = x_(beta+s)(n xi), coordinates and
    all, for every nonzero xi (+-1, +-2 over Z); the pairs left out commute."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    case = rep.case
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, -1, 1, 2)]
    for side in (+1, -1):
        table = analysis._commute_table(rep, side)
        simples = case.simple_roots if side > 0 else [tuple(-x for x in r) for r in case.simple_roots]
        pairs = [(s, beta) for s in simples for beta in _orbit(rep, side)]
        assert set(table) == {(s, beta) for s, beta in pairs if case.root_add(beta, s) is not None}
        for s, beta in pairs:
            if (s, beta) not in table:
                x, y = rep.x(beta, 1).mat, rep.x(s, 1).mat
                assert x * y == y * x
                continue
            gamma, n = table[s, beta]
            assert gamma == case.root_add(beta, s) and n in (ring.one, -ring.one)
            for xi in values:
                c = rep.x(beta, xi).commutator(rep.x(s, 1))
                c.mat  # built, so the coordinates below are read from the matrix
                assert analysis._corner_coords(c, side) == {gamma: n * xi}
                assert c == rep.x(gamma, n * xi)


def _matrix_greedy_to_corner(h, trace, ideal, side):
    """The corner reduction on elements: every commutator is built and the
    coordinates are read back from its matrix."""
    rep = h.rep
    case = rep.case
    target = case.max_root if side > 0 else tuple(-x for x in case.max_root)
    guard = 4 * len(case.omega_plus) * height(case.max_root) + 16
    while True:
        guard -= 1
        if guard < 0:
            raise InternalConsistencyError("corner reduction did not terminate")
        h.mat  # built, so the coordinates are read from the matrix
        coords = analysis._corner_coords(h, side)
        if any(v in ideal for v in coords.values()):
            raise InternalConsistencyError("cold coordinate appeared during reduction")
        if not coords:
            raise InternalConsistencyError("all coordinates vanished during reduction")
        roots = sorted(coords.keys(), key=analysis._by_height)
        if len(roots) == 1 and roots[0] == target:
            return Witness(side=side, root=target, value=coords[target], trace=tuple(trace))
        pick = next((r for r in roots if r != target), None)
        if pick is None:
            raise InternalConsistencyError("stuck at the extreme root with company")
        if side > 0:
            s = analysis._simple_raiser(case, pick)
        else:
            s = tuple(-x for x in analysis._simple_raiser(case, tuple(-x for x in pick)))
        h = analysis._step(trace, h, "commute", ("x", s, rep.ring.one))


def _all_hot_products(rep, ideal, side, rng, count):
    """Seeded words of distinct orbit root elements with values outside the
    ideal, as (element, coordinates)."""
    hot = [v for v in rep.ring.elements() if v not in ideal]
    orbit = _orbit(rep, side)
    for _ in range(count):
        roots = {orbit[rng.randrange(len(orbit))] for _ in range(1 + rng.randrange(5))}
        coords = {r: hot[rng.randrange(len(hot))] for r in sorted(roots)}
        yield rep.element_from_word(tuple(("x", r, v) for r, v in coords.items())), coords


@pytest.mark.parametrize(
    "tag,l,ring_name,ideal", [("b", None, "z4", "(2)"), ("c", None, "z8", "(2)"), ("a", 6, "f2t2", "((0, 1))")]
)
def test_coordinate_reduction_matches_the_matrix_loop(tag, l, ring_name, ideal):
    """The reduction on coordinates gives the same witness (root, value and
    trace) as the loop that builds and reads every commutator."""
    rep = representation(tag, l, named_ring(ring_name))
    ideal = Ideal.parse(rep.ring, ideal)
    rng = SplitMix64(31)
    for side in (+1, -1):
        for h, coords in _all_hot_products(rep, ideal, side, rng, 12):
            want = _matrix_greedy_to_corner(h, [("seed",)], ideal, side)
            got = analysis._greedy_to_corner(rep, coords, [("seed",)], ideal, side)
            assert got == want and got.value not in ideal


def test_coordinate_reduction_builds_no_matrix(rep_c_z4, monkeypatch):
    """With the table built, the reduction makes no identity, matrix
    product or line move."""
    from chevalley import matrices

    rep = rep_c_z4
    ideal = Ideal.from_elems(rep.ring, [rep.ring.el(2)])
    rng = SplitMix64(37)
    inputs = [(side, coords) for side in (+1, -1) for _, coords in _all_hot_products(rep, ideal, side, rng, 6)]
    for side in (+1, -1):
        analysis._commute_table(rep, side)
    calls = []
    identity, mul, update = RMat.identity.__func__, RMat.__mul__, matrices._update_lines
    monkeypatch.setattr(RMat, "identity", classmethod(lambda cls, *a: calls.append("identity") or identity(cls, *a)))
    monkeypatch.setattr(RMat, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    monkeypatch.setattr(matrices, "_update_lines", lambda *a: calls.append("move") or update(*a))
    for side, coords in inputs:
        analysis._greedy_to_corner(rep, coords, [("seed",)], ideal, side)
    assert calls == []


# -- block line reads against entrywise references ------------------------------------------


def _any_word(rep, rng, length):
    ring = rep.ring
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, -1, 1, 2)]
    atoms = [("x", a, v) for a in rep.case.phi for v in values]
    return sample_word_rng(rep, atoms, length, rng)


def _coords_reference(h, lam, roots, on_row):
    """Root coordinates read one entry at a time."""
    rep, wm = h.rep, h.rep.wm
    out = {}
    for beta in roots:
        if on_row:
            mu = wm.shift(lam, tuple(-x for x in beta))
            val = h.entry(lam, mu) if rep.sign(mu, beta) > 0 else -h.entry(lam, mu)
        else:
            mu = wm.shift(lam, beta)
            val = h.entry(mu, lam) if rep.sign(lam, beta) > 0 else -h.entry(mu, lam)
        if not val.is_zero():
            out[beta] = val
    return out


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
def test_coordinate_reads_match_entrywise_reference(ring_name):
    """The lines of an unread word are read from moved basis vectors, which
    leaves its matrix unread, and match the entries of the built matrix."""
    from chevalley.analysis import coords_col, coords_row

    rep = representation("b", None, named_ring(ring_name))
    wm, case = rep.wm, rep.case
    lower = [tuple(-x for x in b) for b in case.omega_plus]
    rng = SplitMix64(71)
    for i in range(12):
        h = _any_word(rep, rng, 1 + i % 6)
        lam1 = wm.lambda1[i % len(wm.lambda1)]
        split_roots = sigma_split(wm, lam1).all_roots
        lines = ((wm.lam0, case.omega_plus, True), (wm.lam0, lower, False), (lam1, split_roots, True))
        got = [(coords_row if on_row else coords_col)(h, lam, roots) for lam, roots, on_row in lines]
        assert h._mat.fn is not None
        for coords, (lam, roots, on_row) in zip(got, lines):
            assert list(coords.items()) == list(_coords_reference(h, lam, roots, on_row).items())
    with pytest.raises(DomainError):
        coords_row(rep.identity(), wm.lam0, lower)


def _root_type_reference(g):
    """The root-type identities read one entry at a time, root after root."""
    rep, wm = g.rep, g.rep.wm
    failures = []
    nil = g.mat - rep.identity().mat
    if not (nil * nil) == (nil - nil):
        failures.append("square of (g - e) is nonzero")
    if any(wm.distance(lam, mu) >= 2 and not g.entry(lam, mu).is_zero() for lam in wm.weights for mu in wm.weights):
        failures.append("entry at weight distance >= 2 survives")
        return failures
    for alpha in rep.case.phi:
        srcs, dsts, _ = rep.pattern(alpha)
        vals = [g.mat.entry(d, s) for d, s in zip(dsts, srcs)]
        if not all(v == vals[0] or v == -vals[0] for v in vals):
            failures.append(f"sign-incoherent entries over root {alpha}")
            return failures
    return failures


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
def test_root_type_failures_match_entrywise_reference(ring_name):
    ring = named_ring(ring_name)
    rep = representation("b", None, ring)
    phi = rep.case.phi
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, -1, 1, 2)]
    rng = SplitMix64(83)
    incoherent = 0
    for trial in range(8):
        g = rep.x(phi[rng.randrange(len(phi))], values[rng.randrange(len(values))]).conjugate(_any_word(rep, rng, 3))
        mat = g.mat.copy()
        for _ in range(trial % 4):
            # move entries over root differences, keeping far entries zero
            srcs, dsts, _ = rep.pattern(phi[rng.randrange(len(phi))])
            k = rng.randrange(len(srcs))
            d, s = int(dsts[k]), int(srcs[k])
            mat.set_entry(d, s, mat.entry(d, s) + values[rng.randrange(len(values))])
        h = GroupElement(rep, mat, None)
        expected = _root_type_reference(h)
        assert root_type_failures(h) == expected
        incoherent += any(f.startswith("sign-incoherent") for f in expected)
    assert incoherent > 0


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("a", 6), ("c", None)])
def test_root_type_failures_of_form_preserving_elements_match_the_product_path(tag, l, ring_name):
    """A word reads (g - e)^2 = 0 off g + adj(g) = 2e; the same matrix as a
    bare element squares g - e.  Both give the same failures, on conjugates
    of root elements (which pass), on products x_alpha x_beta and on words
    of a few root elements, some of which fail the first identity."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    phi = rep.case.phi
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, -1, 1, 2)]
    rng = SplitMix64(89)
    failing = squares = 0
    for trial in range(6):
        xi, eta = values[rng.randrange(len(values))], values[rng.randrange(len(values))]
        conjugate = rep.x(phi[rng.randrange(len(phi))], xi).conjugate(_any_word(rep, rng, 3))
        product = rep.x(phi[rng.randrange(len(phi))], xi) * rep.x(phi[rng.randrange(len(phi))], eta)
        word = _any_word(rep, rng, 2 + trial % 3)
        assert root_type_failures(conjugate) == []
        for g in (conjugate, product, word):
            assert g._isometry
            assert root_type_failures(g) == root_type_failures(GroupElement(rep, g.mat, None))
        failing += bool(root_type_failures(product))
        squares += "square of (g - e) is nonzero" in root_type_failures(word)
    assert failing > 0 and squares > 0


# -- flat entry indices ------------------------------------------------------------------


def _flat(n, cells):
    return [i * n + j for i, j in cells]


def _corner_cells(wm):
    """Per weight mu of J = lambda1, the entries of its four corner lines:
    column mu on the rest of J, the top entry of column mu, and the same two
    in row mu."""
    top = wm.idx(wm.lam0)
    out = []
    for mu in wm.lambda1:
        j = wm.idx(mu)
        rest = [wm.idx(nu) for nu in wm.lambda1 if nu != mu]
        out.append(([(i, j) for i in rest], [(top, j)], [(j, i) for i in rest], [(j, top)]))
    return out


def _root_difference_cells(rep):
    """(row, column, index in Phi) of every entry over a root difference:
    rows lam + alpha, columns lam, root after root in the order of Phi."""
    wm = rep.wm
    return [
        (wm.idx(mu), j, k)
        for k, alpha in enumerate(rep.case.phi)
        for j, lam in enumerate(wm.weights)
        if (mu := wm.shift(lam, alpha)) is not None
    ]


@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 6), ("a", 8)])
def test_flat_index_helpers_match_their_definitions(tag, l):
    rep = representation(tag, l, named_ring("z4"))
    wm, n = rep.wm, rep.n
    cells = [(i, j) for i in range(n) for j in range(n)]
    comp = [wm.component_of(w) for w in wm.weights]
    far = [(i, j) for i, j in cells if wm.distance(wm.weights[i], wm.weights[j]) >= 2]
    assert analysis._distance_mask(wm).tolist() == _flat(n, far)
    for side in (1, -1):
        cross, frozen = analysis._levi_masks(wm, wm.lam0, side)
        assert cross.tolist() == _flat(n, [(i, j) for i, j in cells if comp[i] != comp[j]])
        assert frozen.tolist() == _flat(n, [(i, j) for i, j in cells if side * (comp[j] - comp[i]) <= 0])
    for lam in (wm.lam0, wm.weights[n // 2]):
        j = wm.idx(lam)
        others, column, row = analysis._off_indices(wm, lam)
        assert others.tolist() == [i for i in range(n) if i != j]
        assert column.tolist() == _flat(n, [(i, j) for i in others])
        assert row.tolist() == _flat(n, [(j, i) for i in others])
    index, ref, owner = analysis._root_difference_positions(rep)
    diffs = _root_difference_cells(rep)
    assert index.tolist() == _flat(n, [(r, c) for r, c, _ in diffs])
    assert owner.tolist() == [k for _, _, k in diffs]
    assert ref.tolist() == [[k for _, _, k in diffs].index(k) for _, _, k in diffs]
    # line i of a corner index is its column i (a 1-d index has one entry per line)
    lines = [np.atleast_2d(index).T for index in analysis._corner_lines(wm)]
    for i, expected in enumerate(_corner_cells(wm)):
        assert [sorted(index[i].tolist()) for index in lines] == [sorted(_flat(n, c)) for c in expected]


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag", ["b", "c"])
def test_predicates_through_the_flat_indices_match_an_entrywise_reference(tag, ring_name):
    """``nonzero_at``, ``in_ideal_at``, ``signed_copies_at`` and
    ``line_ideals`` read through the cached flat indices give what a loop
    over boxed entries gives, on word matrices with entries moved at random
    (at any distance), on the identity and on zero."""
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    wm, n = rep.wm, rep.n
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, -1, 2, 3)]
    ideals = [Ideal.zero(ring), Ideal.unit(ring)] + [Ideal.from_elems(ring, [v]) for v in values]
    index, ref, _ = analysis._root_difference_positions(rep)
    masks = [analysis._distance_mask(wm), *analysis._levi_masks(wm, wm.lam0, 1)]
    masks += analysis._off_indices(wm, wm.lam0)[1:] + (index,)
    rng = SplitMix64(97)
    seen = set()
    for trial in range(5):
        mat = _any_word(rep, rng, 1 + trial).mat.copy() if trial < 3 else rep.identity().mat
        if trial == 4:
            mat = RMat.zeros(ring, n)
        for _ in range(trial % 3):
            i, j = rng.randrange(n), rng.randrange(n)
            mat.set_entry(i, j, mat.entry(i, j) + values[rng.randrange(len(values))])
        boxed = [[mat.entry(i, j) for j in range(n)] for i in range(n)]

        def at(flat):
            return [boxed[k // n][k % n] for k in np.ravel(flat).tolist()]

        for mask in masks:
            nonzero = any(not x.is_zero() for x in at(mask))
            assert mat.nonzero_at(mask) == nonzero
            for ideal in ideals:
                inside = all(x in ideal for x in at(mask))
                assert mat.in_ideal_at(ideal, mask) == inside
                seen.add(("in", inside))
            seen.add(("nonzero", nonzero))
        entries = at(index)
        expected = [x == entries[r] or x == -entries[r] for x, r in zip(entries, ref.tolist())]
        assert mat.signed_copies_at(index, ref).tolist() == expected
        seen.add(("coherent", all(expected)))
        for lines in analysis._corner_lines(wm):
            columns = np.atleast_2d(lines).T
            assert mat.line_ideals(lines) == [Ideal.from_elems(ring, at(col)) for col in columns]
    assert seen == {(name, v) for name in ("in", "nonzero", "coherent") for v in (True, False)}


def test_root_type_failures_flag_an_entry_at_distance_two():
    rep = representation("b", None, named_ring("z4"))
    wm = rep.wm
    lam, mu = next((a, b) for a in wm.weights for b in wm.weights if wm.distance(a, b) == 2)
    mat = rep.identity().mat.copy()
    mat.set_entry(wm.idx(lam), wm.idx(mu), rep.ring.one)
    assert root_type_failures(GroupElement(rep, mat, None)) == ["entry at weight distance >= 2 survives"]


def _corner_reference(g, lam1):
    """The four corner ideals folded from boxed entries."""
    wm, ring = g.rep.wm, g.rep.ring
    others = [mu for mu in wm.components[1] if mu != lam1]
    return (
        Ideal.from_elems(ring, [g.entry(mu, lam1) for mu in others]),
        Ideal.from_elems(ring, [g.entry(wm.lam0, lam1)]),
        Ideal.from_elems(ring, [g.entry(lam1, mu) for mu in others]),
        Ideal.from_elems(ring, [g.entry(lam1, wm.lam0)]),
    )


@pytest.mark.parametrize(
    "tag,l,ring_name",
    [pytest.param("b", None, name, id=name) for name in ("z4", "z12", "f2t2", "int")]
    + [pytest.param("c", None, name, id=f"c-{name}") for name in ("z4", "z12", "f2t2")]
    + [pytest.param("a", 6, "z8", id="a6-z8")],
)
def test_corner_ideals_match_entrywise_reference(tag, l, ring_name):
    """Elements are queried interleaved, so a table that is stale, shared
    between elements or kept past its element fails."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    wm = rep.wm
    rng = SplitMix64(73)
    nonzero = 0
    for i in range(4):
        g1 = _any_word(rep, rng, 1 + i % 5)
        g2 = _any_word(rep, rng, 2 + i % 3)
        for k, g in enumerate([g1, g2, g1, g1 * g2, g1.inverse()]):
            for lam1 in wm.lambda1[(i + k) % 3 :: 4]:
                got = corner_ideals(g, lam1)
                assert got == _corner_reference(g, lam1)
                nonzero += sum(not x.is_zero() for x in got)
    assert nonzero > 0
    with pytest.raises(DomainError):
        corner_ideals(g1, wm.lam0)


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2"])
def test_block_diagonal_part_matches_entrywise_copy(ring_name):
    ring = named_ring(ring_name)
    rep = representation("b", None, ring)
    wm = rep.wm
    cross = analysis._levi_masks(wm, wm.lam0, 1)[0]
    atoms = [("x", a, v) for a in rep.case.delta + rep.case.omega_plus for v in ring.elements() if not v.is_zero()]
    rng = SplitMix64(79)
    for _ in range(8):
        g = sample_word_rng(rep, atoms, 6, rng)
        expected = g.mat - g.mat
        for comp in wm.components:
            for lam in comp:
                for mu in comp:
                    expected.set_entry(wm.idx(lam), wm.idx(mu), g.entry(lam, mu))
        levi = analysis._block_diagonal_part(g, cross)
        assert levi.mat == expected
        assert (levi.mat * levi.inv_mat).is_identity()
        assert levi.word is None


@pytest.mark.parametrize("ring_name", ["z4", "f2t2"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 6)])
def test_levi_inverse_from_the_inverse_matches_elimination(monkeypatch, tag, l, ring_name):
    """On parabolic and opposite-parabolic members the Levi inverse is read
    off g^-1 with no elimination.  On a word that mixes both orbits it is
    not, and elimination gives it or refuses a singular block."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    case = rep.case
    cross = analysis._levi_masks(rep.wm, rep.wm.lam0, 1)[0]
    values = [v for v in ring.elements() if not v.is_zero()]
    rng = SplitMix64(rep.n + len(ring_name))

    def sample(roots):
        atoms = [("x", a, v) for a in roots for v in values] + [("h", case.alpha1, u) for u in ring.units()]
        return [sample_word_rng(rep, atoms, 7, rng) for _ in range(3)]

    parabolic = sample(case.delta + case.omega_plus) + sample(case.delta + case.omega_minus)
    mixed = sample(case.omega_plus + case.omega_minus)
    inversions = []
    real_inv = RMat.inv
    monkeypatch.setattr(RMat, "inv", lambda m: inversions.append(m) or real_inv(m))
    for g in parabolic:
        levi = analysis._block_diagonal_part(g, cross)
        assert inversions == []
        assert levi.inv_mat == real_inv(levi.mat)
        inversions.clear()
    for g in mixed:
        try:
            levi = analysis._block_diagonal_part(g, cross)
        except NonUnitError:
            assert len(inversions) == 1
        else:
            assert levi.inv_mat == real_inv(levi.mat)
        assert len(inversions) == 1
        inversions.clear()


def test_levi_split_of_an_integer_word_needs_no_elimination():
    """Over Z elimination is refused, but the Levi inverse of a word comes
    from the word's inverse, so its split succeeds."""
    rep = representation("b", None, RingSpec.integers())
    case = rep.case
    levi_word = rep.element_from_word(
        [("x", case.delta[0], 2), ("x", case.delta[3], -1), ("h", case.alpha1, -1), ("w", case.delta[5], 1)]
    )
    alpha = case.omega_plus[2]
    g = rep.x(alpha, 5) * levi_word
    with pytest.raises(UnsupportedCaseError):
        levi_word.mat.inv()
    u, l = levi_unipotent_split(g)
    assert u == rep.x(alpha, 5) and l == levi_word
    v, l2 = opposite_levi_split(rep.x(tuple(-x for x in alpha), -4) * levi_word)
    assert v == rep.x(tuple(-x for x in alpha), -4) and l2 == levi_word


# -- the exact upper bound ------------------------------------------------------------


@pytest.mark.parametrize("rep_name", ["rep_b_z4", "rep_c_z4"])
def test_planted_escaping_generator_is_refused(rep_name, request):
    """x_beta(1) for an upper-orbit root beta is outside the normalizer at
    (2),(0), as a root atom or as an extra element, after the subsystem."""
    rep = request.getfixturevalue(rep_name)
    sigma = parse_sigma(rep.ring, "(2),(0)")
    delta = _delta_atoms(rep)
    assert not analysis.generators_in_normalizer(rep, delta, [], sigma)
    for beta in rep.case.omega_plus:
        assert analysis.generators_in_normalizer(rep, [("x", beta, rep.ring.one)], [], sigma) == [rep.x(beta, 1)]
    beta = rep.case.omega_plus[-1]
    assert analysis.generators_in_normalizer(rep, delta, [rep.x(beta, 1)], sigma) == [rep.x(beta, 1)]
    assert analysis.generators_in_normalizer(rep, delta + [("x", beta, rep.ring.el(3))], [], sigma) == [rep.x(beta, 3)]


def _small(ring):
    """2 over Z/n, t over F_p[t]/(t^k)."""
    return ring.from_parts([(0, 1)]) if ring == named_ring("f2t2") else ring.el(2)


@pytest.mark.parametrize("tag", ["b", "c"])
@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2"])
def test_subsystem_generators_normalize_every_level(tag, ring_name):
    """What ``generators_in_normalizer`` relies on when it skips a generator
    inside E(sigma): each x_delta(1), and each x_alpha(g) for an orbit root
    alpha and g the generator of its side's ideal, passes both predicates."""
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    small = Ideal.from_elems(ring, [_small(ring)])
    zero, unit = Ideal.zero(ring), Ideal.unit(ring)
    for sigma in (
        SigmaPair(small, zero),
        SigmaPair(small, small),
        SigmaPair(zero, zero),
        SigmaPair(unit, unit),
    ):
        for root, value in analysis._family_atoms(rep, sigma):  # x_delta(1) for every delta
            g = rep.x(root, value)
            assert in_normalizer(g, sigma) and transporter_check(g, sigma), (sigma.describe(), root)


def test_every_value_outside_the_span_is_tested():
    """At (t),(0), x_beta(t) passes and x_beta(1) does not: a rule that tests
    only the first value of each root would pass the pair."""
    ring = named_ring("f2t2")
    rep = representation("b", None, ring)
    t = ring.from_parts([(0, 1)])
    sigma = SigmaPair(Ideal.from_elems(ring, [t]), Ideal.zero(ring))
    beta = rep.case.omega_plus[0]
    assert not analysis.generators_in_normalizer(rep, [("x", beta, t)], [], sigma)
    assert analysis.generators_in_normalizer(rep, [("x", beta, t), ("x", beta, ring.one)], [], sigma) == [rep.x(beta, 1)]


def test_disagreeing_predicates_raise(rep_b_z4, monkeypatch):
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    beta = rep.case.omega_plus[0]
    wordless = rep.from_matrix(rep.x(beta, 2).mat)  # inside the normalizer, tested since it has no word
    monkeypatch.setattr(analysis, "transporter_check", lambda g, s: False)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        analysis.generators_in_normalizer(rep, [], [wordless], sigma)
    monkeypatch.setattr(analysis, "transporter_check", lambda g, s: True)
    with pytest.raises(InternalConsistencyError, match="disagree"):
        analysis.generators_in_normalizer(rep, [("x", beta, rep.ring.one)], [], sigma)


def test_only_generators_outside_the_level_reach_the_predicates(rep_b_z4, monkeypatch):
    """Subsystem atoms, orbit atoms with values in sigma and word extras
    inside E(sigma) are in the normalizer by definition and never tested; an
    orbit atom outside sigma and an extra without a word are tested by both
    predicates."""
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    beta, gamma, d = rep.case.omega_plus[0], rep.case.omega_minus[0], rep.case.delta[0]
    calls = {"in_normalizer": [], "transporter_check": []}
    for name, seen in calls.items():
        real = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda g, s, real=real, seen=seen: seen.append(g) or real(g, s))
    inside = rep.element_from_word((("x", d, 1), ("x", beta, 2), ("x", gamma, 0), ("w", d, 3), ("x", d, -1)))
    assert not analysis.generators_in_normalizer(rep, _delta_atoms(rep) + [("x", beta, 2)], [inside], sigma)
    assert calls == {"in_normalizer": [], "transporter_check": []}
    wordless = rep.from_matrix(rep.x(beta, 2).mat)
    assert analysis.generators_in_normalizer(rep, [("x", beta, 1)], [wordless], sigma) == [rep.x(beta, 1)]
    assert calls["in_normalizer"] == calls["transporter_check"] == [rep.x(beta, 1), wordless]


def test_passed_check_holds_for_every_word(rep_b_z4):
    """A passed check implies the normalizer conditions on any product of the
    generators: 1000 seeded words in the subsystem, the level generators of
    (2),(0) and two extra elements."""
    rep = rep_b_z4
    sigma = parse_sigma(rep.ring, "(2),(0)")
    atoms = _delta_atoms(rep) + sigma_generator_atoms(rep, sigma)
    top = rep.case.max_root
    extra = [rep.x(top, 2), rep.x(top, 2).conjugate(rep.h(rep.case.simple_roots[0], 3))]
    assert not analysis.generators_in_normalizer(rep, atoms, extra, sigma)
    rng = SplitMix64(83)
    for _ in range(1000):
        g = sample_word_rng(rep, atoms, rng.randrange(6), rng)
        for e in extra:
            if rng.randrange(2):
                g = g * e
        assert in_normalizer(g, sigma)


def test_certificate_states_the_upper_bound_at_the_witnessed_level(rep_b_z4):
    """The upper bound is proved at the witnessed level, not at the target: a
    run stopped before it witnesses the extra element's level reports the
    extra outside the normalizer of what it did witness."""
    rep = rep_b_z4
    g = rep.x(rep.case.omega_plus[0], 2).conjugate(rep.x(rep.case.delta[0], 1))
    full = SigmaPair.full(rep.ring)
    stopped = level_certificate(rep, _delta_atoms(rep), [g], full, budget=0)
    assert stopped.lower == SigmaPair.zero(rep.ring) and stopped.stop == "budget"
    assert not stopped.normalizer_consistent
    # with x_beta(2) itself among the extras, the level (2),(0) is witnessed
    extra = [g, rep.x(rep.case.omega_plus[0], 2)]
    cert = level_certificate(rep, _delta_atoms(rep), extra, full, budget=0)
    assert cert.lower == parse_sigma(rep.ring, "(2),(0)")
    assert cert.normalizer_consistent


@pytest.mark.parametrize(
    "tag, l, ring_name",
    [("b", None, "z4"), ("c", None, "z4"), ("a", 6, "z8"), ("b", None, "f2t2"), ("c", None, "z8")],
)
def test_certificate_closes_at_the_level_of_known_words(tag, l, ring_name):
    """Ground truth: H is generated by the subsystem and one word of 2 to 4
    root elements on pairwise distinct orbit roots, conjugated by a word of up
    to 3 subsystem root elements.  H lies in E(sigma), sigma the ideals of
    its upper and of its lower values, and the certificate must close at
    exactly sigma, with every witness replaying from the word alone."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    case = rep.case
    values = [v for v in ring.elements() if not v.is_zero()]
    upper = set(case.omega_plus)
    rng = SplitMix64(2019 + len(case.phi) + ring.size)
    for i in range(8):
        roots = list(case.omega_plus) + list(case.omega_minus)
        rng.shuffle(roots)
        atoms = [("x", r, rng.choice(values)) for r in roots[: 2 + rng.randrange(3)]]
        w = [("x", rng.choice(case.delta), rng.choice(values)) for _ in range(rng.randrange(4))]
        word = tuple(w + atoms + [(k, r, -v) for k, r, v in reversed(w)])
        sigma = SigmaPair(
            Ideal.from_elems(ring, [v for _, r, v in atoms if r in upper]),
            Ideal.from_elems(ring, [v for _, r, v in atoms if r not in upper]),
        )
        cert = level_certificate(rep, _delta_atoms(rep), [rep.element_from_word(word)], sigma)
        assert cert.stop == "closed" and cert.lower == sigma, (i, word)
        for wit in cert.witnesses:
            assert replay_trace(rep, wit.trace) == rep.x(wit.root, wit.value), (i, word)


@pytest.mark.parametrize(
    "tag, ring_name, word, level",
    [
        (
            "b",
            "z4",
            [([0, 0, 1, 1, 0, 0], 2), ([0, 0, 0, 1, 1, 1], 2), ([1, 2, 2, 3, 2, 1], 2), ([1, 0, 1, 1, 1, 1], 1),
             ([1, 1, 1, 2, 2, 1], 3), ([-1, -1, -1, -1, 0, 0], 2), ([0, 0, 0, 1, 1, 1], 2), ([0, 0, 1, 1, 0, 0], 2)],
            "R,(2)",
        ),
        (
            "c",
            "z8",
            [([0, 1, 1, 2, 1, 1, 1], 5), ([1, 1, 2, 3, 3, 2, 1], 7), ([0, -1, -1, -2, -2, -1, -1], 1),
             ([1, 1, 1, 1, 1, 1, 1], 3)],
            "R,R",
        ),
    ],
    ids=["b-z4", "c-z8"],
)
def test_certificate_extracts_beyond_the_first_conjugates(tag, ring_name, word, level):
    """Neither these words nor their conjugates and commutators with the
    escaping root elements yield a witness at the zero level: the worklist
    must go on to the conjugates of those."""
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    extra = [rep.element_from_word(tuple(("x", tuple(r), ring.el(v)) for r, v in word))]
    cert = level_certificate(rep, _delta_atoms(rep), extra, SigmaPair.full(ring))
    assert cert.stop == "closed" and cert.lower == parse_sigma(ring, level)
    for wit in cert.witnesses:
        assert replay_trace(rep, wit.trace) == rep.x(wit.root, wit.value)


def test_certificate_over_the_integers():
    """The exact check needs no enumeration of the ring: it runs over Z."""
    ring = RingSpec.integers()
    rep = representation("b", None, ring)
    atoms = [("x", a, ring.el(v)) for a in rep.case.delta for v in (1, -1, 2)]
    target = SigmaPair(Ideal.from_elems(ring, [ring.el(2)]), Ideal.zero(ring))
    cert = level_certificate(rep, atoms, [rep.x(rep.case.max_root, 2)], target, budget=20)
    assert cert.matched and cert.normalizer_consistent
    escape = rep.x(rep.case.max_root, 1).conjugate(rep.x(rep.case.delta[0], 1))
    assert analysis.generators_in_normalizer(rep, atoms, [escape], target) == [escape]


def test_result_values_are_frozen(rep_b_z4):
    cert = level_certificate(rep_b_z4, _delta_atoms(rep_b_z4), [], SigmaPair.zero(rep_b_z4.ring), budget=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.matched = False
    result = SuiteResult("name", True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.passed = False


# -- pinned witness traces ---------------------------------------------------------------------


def _pinned_trace_records(rep):
    """Witness and step traces of every extraction kind over Z/4 at level
    (2),(0), from fixed SplitMix64 draws: (JSON records, the traces)."""
    ring, case, wm = rep.ring, rep.case, rep.wm
    sigma = parse_sigma(ring, "(2),(0)")
    two = Ideal.from_elems(ring, [ring.el(2)])
    rng = SplitMix64(20191)
    records, traces = [], []
    for side in (+1, -1):
        for _ in range(4):
            roots = [case.omega_plus[rng.randrange(len(case.omega_plus))] for _ in range(3)]
            word = tuple(
                ("x", r if side > 0 else tuple(-x for x in r), ring.el(1 + rng.randrange(3)))
                for r in roots
            )
            g = rep.element_from_word(word) * sample_word_rng(rep, _delta_atoms(rep), rng.randrange(3), rng)
            wit = extract_from_parabolic(g, two, side=side)
            records.append(["parabolic", side, wit.to_json() if wit is not None else None])
            traces += [wit.trace] if wit is not None else []
    weyl = [("w", a, ring.one) for a in case.delta]
    for _ in range(8):
        lam1 = wm.lambda1[rng.randrange(len(wm.lambda1))]
        plus = sigma_split(wm, lam1).plus
        base = rep.x(plus[rng.randrange(len(plus))], ring.el((1, 3)[rng.randrange(2)]))
        g = base.conjugate(sample_word_rng(rep, weyl, rng.randrange(4), rng))
        lam1 = next(lam for lam in wm.lambda1 if in_parabolic(g, lam))
        res = extract_from_weight_stabilizer(g, lam1, sigma)
        records.append(["stabilizer", list(lam1), res.to_json()])
        traces.append(res.trace)
    pool = [("x", a, ring.el(2)) for a in case.phi]
    for _ in range(6):
        g = sample_word_rng(rep, pool, 1 + rng.randrange(4), rng)
        if not in_opposite_parabolic(g):
            step = extract_from_nilpotent(g, two)
            records.append(["nilpotent", list(step.lam1), [analysis._trace_op_json(op) for op in step.trace]])
            traces.append(step.trace)
    atoms = _delta_atoms(rep) + [("x", case.omega_plus[3], ring.el(2))]
    cert = level_certificate(rep, atoms, [], sigma, budget=2)
    records.append(["certificate", cert.to_json()])
    traces += [w.trace for w in cert.witnesses]
    return records, traces


PINNED_TRACES_SHA256 = "de84f4e095490aa31c5574094d6585402b25fabef34a0a3de7be8d7112c12926"


def test_witness_traces_are_pinned(rep_b_z4):
    """Extraction keeps its traces op for op: parabolic on both sides, hot
    weight-stabilizer instances, nilpotent steps and certificate atom seeds."""
    records, traces = _pinned_trace_records(rep_b_z4)
    assert {op[0] for trace in traces for op in trace} == {
        "seed", "atom_seed", "unipotent_part", "opposite_unipotent_part",
        "rmul", "commute", "conj_atom", "inv_conj_atom",
    }
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_TRACES_SHA256


def test_large_a8_conjugate_is_built_without_copies_or_matrix_products(monkeypatch):
    """The shape of the ``large_a8`` root-type check: x_beta over F2[t]/(t^2)
    conjugated by a 7-atom word at a8 is one word of 15 factors, so building
    its matrix runs no ``RMat`` product, and neither the build nor the
    check copies a block.  The word preserves the invariant form, so the
    check reads (g - e)^2 = 0 off the adjoint and multiplies nothing."""
    from chevalley import matrices

    ring = named_ring("f2t2")
    rep = representation("a", 8, ring)
    phi = sorted(rep.case.phi)
    rng = SplitMix64(8)
    values = [ring.from_parts((p,)) for p in ((1, 0), (0, 1), (1, 1))]

    def atom():
        return ("x", phi[rng.randrange(len(phi))], values[rng.randrange(3)])

    root_type_failures(rep.identity())  # the shared identity and masks, built once
    g = rep.element_from_word((atom(),)).conjugate(rep.element_from_word(tuple(atom() for _ in range(7))))
    products, copies = [], []
    mul, copy = RMat.__mul__, matrices._Blocks.copy
    monkeypatch.setattr(RMat, "__mul__", lambda self, other: products.append(1) or mul(self, other))
    monkeypatch.setattr(matrices._Blocks, "copy", lambda self: copies.append(1) or copy(self))
    g.mat
    assert products == [] and copies == []
    assert root_type_failures(g) == []
    assert products == [] and copies == []
