import dataclasses
import itertools
import operator

import numpy as np
import pytest

from chevalley.analysis import SigmaPair, _coord_positions, _levi_masks, _pattern_table, _word_in_level, coords_row
from chevalley.errors import DomainError, NonUnitError, UnsupportedCaseError
from chevalley.matrices import RMat, mat_col, mat_row
from chevalley.rep import (
    GroupElement,
    get_representation,
    rep_tables,
    representation,
    sample_word_rng,
    weyl_monomial,
)
from chevalley.rings import Ideal, RingElem, RingSpec, named_ring
from chevalley.rng import SplitMix64
from chevalley.weights import default_module, pairing_wr

CASES = [("a", 5), ("b", None), ("c", None)]


@pytest.mark.parametrize("tag,l", CASES)
def test_sign_table_is_crystal(tag, l):
    wm = default_module(tag, l)
    tables = rep_tables(wm)
    rep = get_representation(wm, RingSpec.zmod(4))
    shifted = [(lam, alpha) for lam in wm.weights for alpha in wm.case.phi if wm.shift(lam, alpha) is not None]
    assert all(rep.sign(lam, alpha) in (1, -1) for lam, alpha in shifted)
    for i, alpha in enumerate(wm.case.simple_roots):
        for root in (alpha, tuple(-x for x in alpha)):
            _, _, signs = tables.patterns[root]
            assert all(s == 1 for s in signs)


@pytest.mark.parametrize("tag,l", CASES)
def test_patterns_move_exactly_the_shifted_weights(tag, l):
    wm = default_module(tag, l)
    tables = rep_tables(wm)
    for root in wm.case.phi:
        srcs, dsts, _ = tables.patterns[root]
        shifted = [(i, wm.idx(mu)) for i, lam in enumerate(wm.weights) if (mu := wm.shift(lam, root)) is not None]
        assert list(zip(srcs.tolist(), dsts.tolist())) == shifted, root


def test_root_element_basics():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    alpha = rep.case.omega_plus[2]
    assert rep.x(alpha, 0).is_identity()
    x = rep.x(alpha, 5)
    nil = x.mat - rep.identity().mat
    assert (nil * nil) == (nil - nil)
    # built matrices: a product of elements would merge x_alpha(3) x_alpha(4) before any move
    assert x.inverse().mat == rep.x(alpha, -5).mat
    assert rep.element_from_word((("x", alpha, 3), ("x", alpha, 4))).mat == rep.x(alpha, 7).mat


def test_weyl_element_is_monomial_and_torus_diagonal():
    ring = RingSpec.zmod(9)
    rep = representation("b", None, ring)
    wm = rep.wm
    alpha = rep.case.delta[4]
    w = rep.w(alpha, 1)
    for mu in wm.weights:
        col = [i for i in range(wm.dim) if not w.mat.is_zero_at(i, wm.idx(mu))]
        assert len(col) == 1
        image = wm.reflect(mu, alpha)
        assert col[0] == wm.idx(image)
    eps = ring.el(2)
    h = rep.h(alpha, eps)
    for lam in wm.weights:
        i = wm.idx(lam)
        expected = {1: eps, 0: ring.one, -1: eps.inv()}[pairing_wr(lam, alpha)]
        assert h.mat.entry(i, i) == expected
        assert all(h.mat.is_zero_at(i, j) for j in range(wm.dim) if j != i)


def _dense_weyl_monomial(patterns, n, alpha):
    """w_alpha(1) as three dense row updates of the identity, each reading
    every source row before it writes a target row, so it is the product
    with that factor even when targets repeat; (perm, signs) as
    ``weyl_monomial``, None when the product is not monomial."""
    mat = np.eye(n, dtype=np.int64)
    for root, v in ((alpha, 1), (tuple(-x for x in alpha), -1), (alpha, 1)):
        srcs, dsts, signs = patterns[root]
        np.add.at(mat, dsts, (v * signs)[:, None] * mat[srcs])
    perm = np.argmax(mat != 0, axis=0)
    sgn = mat[perm, np.arange(n)]
    if (np.count_nonzero(mat, axis=0) != 1).any() or (np.abs(sgn) != 1).any():
        return None
    return perm, sgn


@pytest.mark.parametrize("tag,l", [("a", l) for l in range(5, 11)] + [("b", None), ("c", None)])
def test_weyl_monomials_match_the_dense_product(tag, l):
    wm = default_module(tag, l)
    patterns = rep_tables(wm).patterns
    for alpha in wm.case.phi:
        perm, sgn = weyl_monomial(patterns, wm.dim, alpha)
        want_perm, want_sgn = _dense_weyl_monomial(patterns, wm.dim, alpha)
        assert np.array_equal(perm, want_perm) and np.array_equal(sgn, want_sgn), alpha
        assert sgn.dtype == np.int8


def _target_twice(srcs, dsts):
    dsts[1] = dsts[0]


def _target_in_sources(srcs, dsts):
    dsts[0] = srcs[-1]


def _target_is_its_source(srcs, dsts):
    # perm is still a permutation here: only the line in two pairs shows it
    dsts[0] = srcs[0]


@pytest.mark.parametrize("edit", [_target_twice, _target_in_sources, _target_is_its_source])
def test_a_pattern_whose_lines_overlap_has_no_weyl_monomial(edit):
    """A pattern of alpha edited so that a line is in two of its pairs,
    with the pattern of -alpha edited to stay its signed transpose: the
    w move builds, but w_alpha(1) is not monomial, so ``weyl_monomial``
    raises as the dense product refuses."""
    from chevalley.errors import InternalConsistencyError

    wm = default_module("b", None)
    patterns = dict(rep_tables(wm).patterns)
    alpha = wm.case.simple_roots[0]
    srcs, dsts, signs = (a.copy() for a in patterns[alpha])
    edit(srcs, dsts)
    order = np.argsort(dsts)
    patterns[alpha] = srcs, dsts, signs
    patterns[tuple(-x for x in alpha)] = dsts[order], srcs[order], signs[order]
    assert _dense_weyl_monomial(patterns, wm.dim, alpha) is None
    with pytest.raises(InternalConsistencyError, match="not monomial"):
        weyl_monomial(patterns, wm.dim, alpha)


def test_weyl_needs_unit():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    with pytest.raises(NonUnitError):
        rep.w(rep.case.alpha1, 2)
    with pytest.raises(NonUnitError):
        rep.h(rep.case.alpha1, 0)
    # a bool, a float or a string is refused, not read as 0/1, truncated or
    # parsed; numpy's integers pass
    for bad in (True, 2.7, 2.0, "3"):
        with pytest.raises(DomainError):
            rep.x(rep.case.alpha1, bad)
        with pytest.raises(DomainError):
            RingElem.from_json(ring, bad)
    with pytest.raises(DomainError):
        named_ring("f2t2").from_parts([(1, 0.5)])
    assert rep.x(rep.case.alpha1, np.int64(11)) == rep.x(rep.case.alpha1, 3)
    assert named_ring("f2t2").el(np.int64(3)) == named_ring("f2t2").one


def test_z_element_identities():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    alpha = rep.case.omega_plus[0]
    assert rep.z(alpha, 0, 5).is_identity()
    assert rep.z(alpha, 3, 0) == rep.x(tuple(-x for x in alpha), 3)
    ideal = Ideal.from_elems(ring, [ring.el(2)])
    z = rep.z(alpha, 2, 5)
    assert rep.reduce(z, ideal).is_identity()


def test_reduction_is_a_homomorphism():
    ring = RingSpec.zmod(8)
    ideal = Ideal.from_elems(ring, [ring.el(4)])
    rep = representation("b", None, ring)
    rng = SplitMix64(3)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    for _ in range(20):
        g = sample_word_rng(rep, atoms, 4, rng)
        h = sample_word_rng(rep, atoms, 4, rng)
        assert rep.reduce(g * h, ideal) == rep.reduce(g, ideal) * rep.reduce(h, ideal)
    alpha = rep.case.delta[0]
    assert rep.reduce(rep.x(alpha, 5), ideal) == get_representation(
        rep.wm, ideal.quotient_spec()
    ).x(alpha, 5)
    zero = Ideal.zero(ring)
    g = sample_word_rng(rep, atoms, 4, rng)
    assert rep.reduce(g, zero).mat == g.mat


def test_sample_word_deterministic_and_trivial():
    ring = RingSpec.zmod(4)
    rep = representation("b", None, ring)
    atoms = [("x", a, ring.one) for a in rep.case.delta]
    assert sample_word_rng(rep, atoms, 0, SplitMix64(9)).is_identity()
    a = sample_word_rng(rep, atoms, 6, SplitMix64(9))
    b = sample_word_rng(rep, atoms, 6, SplitMix64(9))
    assert a == b and a.word == b.word


def test_subsystem_words_are_component_blocked():
    ring = RingSpec.zmod(4)
    rep = representation("b", None, ring)
    atoms = [("x", a, v) for a in rep.case.delta for v in ring.elements() if not v.is_zero()]
    rng = SplitMix64(11)
    cross = _levi_masks(rep.wm, rep.wm.lam0, 1)[0]
    for _ in range(20):
        g = sample_word_rng(rep, atoms, 6, rng)
        assert not g.mat.nonzero_at(cross)
    beta = rep.case.omega_plus[0]
    assert rep.x(beta, 1).mat.nonzero_at(cross)


def test_unipotent_coordinates_and_congruence():
    # coordinates of an upper unipotent product are its top-row entries, and
    # membership in the congruence subgroup is coordinatewise
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    wm = rep.wm
    case = rep.case
    ideal = Ideal.from_elems(ring, [ring.el(2)])
    rng = SplitMix64(23)
    omega = list(case.omega_plus)
    for trial in range(30):
        coords = {}
        atoms = []
        for alpha in omega:
            v = ring.el(rng.randrange(8))
            if not v.is_zero():
                coords[alpha] = v
                atoms.append(("x", alpha, v))
        items = list(atoms)
        rng.shuffle(items)
        u = rep.element_from_word(tuple(items))
        for alpha, v in coords.items():
            mu = wm.shift(wm.lam0, tuple(-x for x in alpha))
            entry = u.entry(wm.lam0, mu)
            assert entry == v or entry == -v
        in_congruence = rep.reduce(u, ideal).is_identity()
        assert in_congruence == all(v in ideal for v in coords.values())


def test_vector_and_covector_actions():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    wm = rep.wm
    rng = SplitMix64(31)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    g = sample_word_rng(rep, atoms, 5, rng)
    # the unread word moves basis vectors; its matrix, read after, agrees
    column, row = g.column(wm.lam0), g.row(wm.lam0)
    i = wm.idx(wm.lam0)
    assert column == mat_col(g.mat, i) and row == mat_row(g.mat, i)


def test_matrix_only_elements_get_exact_inverses():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    rng = SplitMix64(37)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    g = sample_word_rng(rep, atoms, 6, rng)
    rebuilt = rep.from_matrix(g.mat)
    assert rebuilt.word is None
    assert rebuilt.inv_mat == g.inv_mat
    rebuilt.check()


def test_upper_unipotent_is_abelian_and_canonical():
    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    case = rep.case
    rng = SplitMix64(29)
    omega = list(case.omega_plus)
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    for alpha in omega:
        for beta in omega:
            if alpha != beta:
                x, y = rep.x(alpha, 3).mat, rep.x(beta, 5).mat
                assert x * y == y * x
    # any word over the upper orbit equals the canonical coordinate product
    atoms = [("x", a, v) for a in omega for v in nonzero]
    for _ in range(20):
        u = sample_word_rng(rep, atoms, 6, rng)
        wm = rep.wm
        canonical = []
        for alpha in omega:
            mu = wm.shift(wm.lam0, tuple(-x for x in alpha))
            c = rep.sign(mu, alpha)
            val = u.entry(wm.lam0, mu)
            if c < 0:
                val = -val
            if not val.is_zero():
                canonical.append(("x", alpha, val))
        assert rep.element_from_word(tuple(canonical)) == u


# -- inverses and words computed on first read ------------------------------------------------


def _eager_inverse(g):
    """The inverse by elimination, independent of how g was built."""
    return g.rep.from_matrix(g.mat).inv_mat


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2"])
def test_deferred_inverses_and_words_equal_eager_ones(ring_name):
    from chevalley.rings import named_ring

    ring = named_ring(ring_name)
    rep = representation("b", None, ring)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    atoms += [("w", a, u) for a in rep.case.simple_roots for u in ring.units()]
    rng = SplitMix64(41)
    for trial in range(6):
        a = sample_word_rng(rep, atoms, 3, rng)
        b = sample_word_rng(rep, atoms, 2, rng)
        built = {
            "a*b": a * b,
            "a^-1": a.inverse(),
            "b a b^-1": a.conjugate(b),
            "[a,b]": a.commutator(b),
            "(a*b)^-1": (a * b).inverse(),
        }
        for name, g in built.items():
            assert g.inv_mat == _eager_inverse(g), name
            g.check()
        matrix_only = rep.from_matrix(a.mat)
        assert (matrix_only * b).inv_mat == _eager_inverse(a * b)


def test_long_product_chains_resolve_without_recursion():
    import sys

    ring = RingSpec.zmod(4)
    rep = representation("b", None, ring)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    rng = SplitMix64(43)
    picked = [atoms[rng.randrange(len(atoms))] for _ in range(2000)]
    assert sys.getrecursionlimit() < len(picked)
    right = rep.identity()
    left = rep.identity()
    for atom in picked:
        x = rep.element_from_word((atom,))
        right = right * x
        left = x.inverse() * left
    assert right.inv_mat == left.mat
    assert left.inv_mat == right.mat
    assert (right.mat * right.inv_mat).is_identity()


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2"])
def test_only_elements_built_from_words_keep_a_word(ring_name):
    from chevalley.rings import named_ring

    ring = named_ring(ring_name)
    rep = representation("b", None, ring)
    atoms = [("x", a, v) for a in rep.case.phi for v in ring.elements() if not v.is_zero()]
    atoms += [("w", a, u) for a in rep.case.simple_roots for u in ring.units()]
    atoms += [("h", a, u) for a in rep.case.simple_roots for u in ring.units()]
    a = sample_word_rng(rep, atoms, 3, SplitMix64(47))
    b = sample_word_rng(rep, atoms, 2, SplitMix64(48))
    assert len(a.word) == 3 and a.word == sample_word_rng(rep, atoms, 3, SplitMix64(47)).word
    picked = (atoms[0], atoms[-1], atoms[len(atoms) // 2])
    assert rep.element_from_word(picked).word == picked
    alpha = rep.case.omega_plus[0]
    assert rep.x(alpha, 1).word == (("x", alpha, ring.one),)
    assert rep.identity().word == ()
    radical = next(v for v in ring.elements() if not v.is_zero() and not v.is_unit())
    derived = {
        "a*b": a * b,
        "a^-1": a.inverse(),
        "b a b^-1": a.conjugate(b),
        "[a,b]": a.commutator(b),
        "reduce": rep.reduce(a, Ideal.from_elems(ring, [radical])),
        "from_matrix": rep.from_matrix(a.mat),
    }
    for name, g in derived.items():
        assert g.word is None, name


def test_from_matrix_rejects_a_singular_matrix():
    ring = RingSpec.zmod(4)
    rep = representation("b", None, ring)
    mat = rep.x(rep.case.omega_plus[0], 1).mat
    mat.set_entry(3, 3, ring.el(2))
    with pytest.raises(NonUnitError):
        rep.from_matrix(mat)


# -- products with a word factor ----------------------------------------------------------------

@pytest.mark.parametrize(
    "tag,l,ring_name",
    [
        ("b", None, "z4"),
        ("b", None, "f2t2"),
        ("c", None, "z4"),
        ("c", None, "z12"),
        ("c", None, "f2t2"),
        ("c", None, "int"),
        ("a", 8, "z4"),
        ("a", 8, "f2t2"),
    ],
)
def test_products_with_a_word_factor_equal_matrix_products(tag, l, ring_name):
    from chevalley.rings import named_ring

    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    phi = sorted(rep.case.phi)
    if ring.is_finite:
        values = [v for v in ring.elements() if not v.is_zero()]
        units = list(ring.units())
    else:
        values, units = [ring.el(v) for v in (-2, -1, 1, 3)], [ring.one, -ring.one]
    rng = SplitMix64(len(ring_name) + rep.n)

    def atom(kind):
        pool = values if kind == "x" else units
        return (kind, phi[rng.randrange(len(phi))], pool[rng.randrange(len(pool))])

    kinds = [(), ("x",), ("w",), ("x",) * 4, ("x",) * 5, ("x", "h"), ("w", "x", "x")]
    long_word = rep.element_from_word([atom("x") for _ in range(7)])
    bases = [long_word.inverse()]
    if ring.is_finite:
        bases.append(rep.from_matrix(long_word.mat))
    for word in [rep.identity()] + [rep.element_from_word([atom(k) for k in ks]) for ks in kinds]:
        for base in bases:
            for g, ref in ((base * word, base.mat * word.mat), (word * base, word.mat * base.mat)):
                assert g.mat == ref
                g.check()
            inverse = word.inverse()
            assert (base * inverse).mat == base.mat * word.inv_mat
            (inverse * base).check()


@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 8)])
def test_products_with_a_word_leave_its_matrix_unbuilt(tag, l):
    """A word of one root element is applied as a line update, so neither its
    matrix nor its inverse is built by a product, by the product's inverse,
    or by the word's own inverse."""
    ring = RingSpec.zmod(4)
    rep = representation(tag, l, ring)
    phi = sorted(rep.case.phi)
    rng = SplitMix64(rep.n)
    base = rep.element_from_word([("x", phi[rng.randrange(len(phi))], 1 + rng.randrange(3)) for _ in range(6)])
    assert base._mat.fn is not None and base._inv.fn is not None
    base.check()
    word = rep.x(phi[rng.randrange(len(phi))], 3)
    inverse = word.inverse()
    products = [base * word, word * base, base * inverse, inverse * base]
    for g in products:
        g.check()
        g.inverse().check()
    assert word._mat.fn is not None and word._inv.fn is not None
    assert [g.mat for g in products[:2]] == [base.mat * word.mat, word.mat * base.mat]
    assert [g.mat for g in products[2:]] == [base.mat * word.inv_mat, word.inv_mat * base.mat]


def _root_elements(rep, atoms) -> list:
    """The atoms' root elements (root, value): w_alpha(v) is x_alpha(v)
    x_-alpha(-v^-1) x_alpha(v), and h_alpha(v) is w_alpha(v) w_alpha(-1)."""
    out = []
    for kind, root, value in atoms:
        if kind == "x":
            out.append((root, value))
            continue
        neg = tuple(-x for x in root)
        for v in (value, -rep.ring.one) if kind == "h" else (value,):
            out += [(root, v), (neg, -v.inv()), (root, v)]
    return out


def _expanded_word(rep, atoms):
    """The word of the atoms' root elements: w and h spelled out in x."""
    return rep.element_from_word(tuple(("x", root, value) for root, value in _root_elements(rep, atoms)))


def _levels(ring) -> list:
    """Every level (sigma+, sigma-) over a finite ring; over Z the pairs of
    (0), (1), (2) and (3)."""
    if ring.is_finite:
        ideals = [Ideal(ring, parts) for parts in itertools.product(*(range(f.k + 1) for f in ring.factors))]
    else:
        ideals = [Ideal(ring, (m,)) for m in range(4)]
    return [SigmaPair(a, b) for a in ideals for b in ideals]


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
@pytest.mark.parametrize("tag", ["b", "c"])
def test_word_in_level_matches_the_root_element_expansion(tag, ring_name):
    """For every level and root, a single factor (w or h with every unit, x
    with every value) lies in E(sigma) by the direct rule exactly when every
    root element of its expansion does: a subsystem root with any value, an
    orbit root with a value in the ideal of its side."""
    ring = named_ring(ring_name)
    rep = representation(tag, None, ring)
    sides = {r: +1 for r in rep.case.omega_plus} | {r: -1 for r in rep.case.omega_minus}
    values = list(ring.elements()) if ring.is_finite else [ring.el(v) for v in range(-2, 4)]
    verdicts = set()
    for sigma in _levels(ring):
        ideals = {+1: sigma.plus, -1: sigma.minus}
        for alpha in rep.case.phi:
            for kind in "xwh":
                for eps in values if kind == "x" else _units(ring):
                    atoms = ((kind, alpha, eps),)
                    expected = all(r not in sides or v in ideals[sides[r]] for r, v in _root_elements(rep, atoms))
                    assert _word_in_level(rep, atoms, sigma) == expected, (sigma.describe(), kind, alpha, eps)
                    verdicts.add(expected)
    assert verdicts == {True, False}


def _units(ring):
    return list(ring.units()) if ring.is_finite else [ring.one, -ring.one]


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 6), ("a", 8)])
def test_weyl_and_torus_factors_equal_their_root_element_words(tag, l, ring_name):
    """One line move per w or h factor gives the matrix, and the inverse, of
    the factor's three or six root elements, for every root and unit."""
    rep = representation(tag, l, named_ring(ring_name))
    for alpha in rep.case.phi:
        for eps in _units(rep.ring):
            for kind in ("w", "h"):
                g, ref = rep.element_from_word(((kind, alpha, eps),)), _expanded_word(rep, ((kind, alpha, eps),))
                assert g.mat == ref.mat and g.inv_mat == ref.inv_mat, (kind, alpha, eps)


def _count_work(monkeypatch) -> dict:
    """Counts of fresh identities, matrix products and line-kernel calls
    from here on; a line kernel call is one move on one ring factor."""
    from chevalley import matrices

    work = {"identities": 0, "matmuls": 0, "moves": 0}
    identity, mul, kernel = RMat.identity.__func__, RMat.__mul__, matrices._update_lines

    def counted(key, fn):
        def call(*args):
            work[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(RMat, "identity", classmethod(counted("identities", identity)))
    monkeypatch.setattr(RMat, "__mul__", counted("matmuls", mul))
    monkeypatch.setattr(matrices, "_update_lines", counted("moves", kernel))
    return work


def _reset(work: dict) -> None:
    work.update(dict.fromkeys(work, 0))


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 8)])
def test_mixed_words_act_as_their_root_element_words(monkeypatch, tag, l, ring_name):
    """Seeded words mixing x, w and h, of 1, 5 and 12 factors: the element,
    its inverse, and their products with a read matrix on both sides equal
    the matrices of the expanded words.  While the word is unread, a product
    and its inverse move the lines of a copy of the read matrix, one move
    per factor, and build no identity and no matrix product; once the word
    is read, the product is one matrix product and no move, and so is a
    product with a read single w or h factor."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    atom = _mixed_atom_sampler(rep, SplitMix64(rep.n + len(ring_name)))
    base = _expanded_word(rep, tuple(atom() for _ in range(5)))
    others = [base] + ([rep.from_matrix(base.mat)] if ring.is_finite else [])
    for other in others:
        other.mat, other.inv_mat
    work = _count_work(monkeypatch)
    # one move per word factor and ring part in each product, and in its inverse off the form
    moves = 2 * len(ring.factors) * (1 if rep._has_form else 2)
    for length in (1, 5, 12):
        atoms = tuple(atom() for _ in range(length))
        ref = _expanded_word(rep, atoms)
        word = rep.element_from_word(atoms)
        assert word.mat == ref.mat and word.inv_mat == ref.inv_mat
        assert word.inverse().mat == ref.inv_mat
        for inverted in (False, True):
            g_mat, g_inv = (ref.inv_mat, ref.mat) if inverted else (ref.mat, ref.inv_mat)
            for other in others:
                wants = [
                    (g_mat * other.mat, other.inv_mat * g_inv),
                    (other.mat * g_mat, g_inv * other.inv_mat),
                ]
                fresh = rep.element_from_word(atoms)
                g = fresh.inverse() if inverted else fresh
                _reset(work)
                products = [g * other, other * g]
                assert [(p.mat, p.inv_mat) for p in products] == wants
                assert work == {"identities": 0, "matmuls": 0, "moves": moves * length}
                assert fresh._mat.fn is not None and fresh._inv.fn is not None
                g.mat, g.inv_mat
                _reset(work)
                assert [(g * other).mat, (other * g).mat] == [want for want, _ in wants]
                assert work == {"identities": 0, "matmuls": 2, "moves": 0}
    alpha, u = sorted(rep.case.phi)[3], _units(ring)[-1]
    for factor in (rep.w(alpha, u), rep.h(alpha, u)):
        wants = [factor.mat * base.mat, base.mat * factor.mat]
        _reset(work)
        assert [(factor * base).mat, (base * factor).mat] == wants
        assert work == {"identities": 0, "matmuls": 2, "moves": 0}


def test_a_word_builds_one_line_move_per_factor(monkeypatch):
    """The word (h, w, x) over Z/4, a single-factor ring, is three calls of
    the line kernel for its matrix and three for its inverse: a w or h that
    is spelled out in root elements again would show up here."""
    from chevalley import matrices

    calls = []
    kernel = matrices._update_lines

    def counted(*args):
        calls.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(matrices, "_update_lines", counted)
    rep = representation("b", None, RingSpec.zmod(4))
    alpha, beta, gamma = rep.case.phi[:3]
    word = rep.element_from_word((("h", alpha, 3), ("w", beta, 1), ("x", gamma, 2)))
    word.mat
    assert calls == [True, False, False]
    word.inv_mat
    assert len(calls) == 6


def test_a_words_inverse_factors_are_computed_once_when_needed(monkeypatch):
    """Reading a word's matrix, or a product's, computes no inverse factors;
    its inverse, the products' inverses and products with its inverse share
    one computation."""
    from chevalley import rep as rep_module

    calls = []
    inverse_factors = rep_module._inverse_factors

    def counted(factors):
        calls.append(factors)
        return inverse_factors(factors)

    monkeypatch.setattr(rep_module, "_inverse_factors", counted)
    rep = representation("c", None, RingSpec.zmod(4))
    alpha, beta = rep.case.phi[:2]
    base = rep.from_matrix(rep.element_from_word((("x", alpha, 1), ("x", beta, 3))).mat)
    word = rep.h(alpha, 3)
    products = [word * base, base * word]
    assert [g.mat for g in products] == [word.mat * base.mat, base.mat * word.mat]
    assert calls == []
    inverse = word.inverse()
    for g in products + [inverse * base, base * inverse]:
        g.check()
    assert inverse.mat == word.inv_mat
    assert calls == [(("h", alpha, rep.ring.el(3)),)]


def test_a_flipped_sign_in_the_negative_pattern_fails_the_move_build(monkeypatch):
    """The w and h moves hold only when the pattern of -alpha is the transpose
    of alpha's with c c' = 1; one flipped sign there raises when the move is
    built, so an element with the root is refused."""
    from chevalley import rep as rep_module
    from chevalley.errors import InternalConsistencyError
    from chevalley.rep import RepTables, Representation

    wm = default_module("b", None)
    tables = rep_tables(wm)
    alpha = wm.case.phi[0]
    neg = tuple(-x for x in alpha)
    patterns = dict(tables.patterns)
    srcs, dsts, signs = patterns[neg]
    patterns[neg] = (srcs, dsts, np.concatenate([-signs[:1], signs[1:]]))
    broken = RepTables(wm=wm, patterns=patterns)
    monkeypatch.setattr(rep_module, "rep_tables", lambda _: broken)
    rep = Representation(wm, RingSpec.zmod(4))
    for kind in ("x", "w", "h"):
        with pytest.raises(InternalConsistencyError):
            rep.element_from_word(((kind, alpha, 1),))
    other = next(r for r in wm.case.phi if r not in (alpha, neg))
    assert rep.w(other, 1).mat == get_representation(wm, RingSpec.zmod(4)).w(other, 1).mat


@pytest.mark.parametrize("edit", [_target_in_sources, _target_twice])
def test_an_x_move_whose_lines_overlap_is_refused(edit):
    """The x move adds into its targets, which holds, with X_alpha^2 = 0,
    only when no target is a source or a target twice.  A copy of the
    tables whose pattern of alpha is edited so, with the pattern of -alpha
    kept its signed transpose so that the w move still builds, refuses the
    x moves of alpha and -alpha."""
    from chevalley.errors import InternalConsistencyError

    tables = rep_tables(default_module("b", None))
    alpha = tables.wm.case.simple_roots[0]
    neg = tuple(-x for x in alpha)
    srcs, dsts, signs = (a.copy() for a in tables.patterns[alpha])
    edit(srcs, dsts)
    order = np.argsort(dsts)
    patterns = {**tables.patterns, alpha: (srcs, dsts, signs), neg: (dsts[order], srcs[order], signs[order])}
    broken = dataclasses.replace(tables, patterns=patterns)
    broken.move("w", alpha)
    for root in (alpha, neg):
        with pytest.raises(InternalConsistencyError, match="moves a source line or one line twice"):
            broken.move("x", root)
    assert tables.move("x", alpha).targets is tables.patterns[alpha][1]


def test_a_word_checks_its_roots_before_building():
    rep = representation("b", None, RingSpec.zmod(4))
    alpha = rep.case.phi[0]
    with pytest.raises(DomainError):
        rep.element_from_word((("x", alpha, 1), ("x", (9,) * rep.case.l, 1)))
    with pytest.raises(DomainError):
        rep.w((0,) * rep.case.l, 1)


def test_sign_refuses_a_weight_the_root_does_not_shift():
    rep = representation("b", None, RingSpec.zmod(4))
    wm = rep.wm
    alpha = rep.case.omega_plus[0]
    fixed = next(lam for lam in wm.weights if wm.shift(lam, alpha) is None)
    with pytest.raises(DomainError):
        rep.sign(fixed, alpha)
    with pytest.raises(DomainError):
        rep.sign(wm.lam0, (0,) * rep.case.l)


# -- the dense pattern rows ------------------------------------------------------------


@pytest.mark.parametrize("tag,l", [("a", 6), ("b", None), ("c", None)])
def test_dense_readers_match_the_pattern_arrays(tag, l):
    """``sign``, both sides of ``_coord_positions`` and ``_pattern_table``
    read ``RepTables.dense``; on every (root, weight) pair they agree with a
    reference from the pattern arrays and ``shift``, and a root that does
    not shift the weight raises ``DomainError``."""
    wm = default_module(tag, l)
    rep = get_representation(wm, RingSpec.zmod(4))
    phi = wm.case.phi
    sign_at = {}
    for alpha in phi:
        srcs, dsts, signs = rep.pattern(alpha)
        sign_at[alpha] = dict(zip(srcs.tolist(), signs.tolist()))
    unshifted = None
    for lam in wm.weights:
        i = wm.idx(lam)
        col, row = [], []
        for beta in phi:
            mu = wm.shift(lam, beta)
            if mu is None:
                unshifted = (lam, beta)
                with pytest.raises(DomainError):
                    rep.sign(lam, beta)
            else:
                assert rep.sign(lam, beta) == sign_at[beta][i]
                col.append((beta, wm.idx(mu), sign_at[beta][i]))
            nu = wm.shift(lam, tuple(-x for x in beta))
            if nu is not None:
                row.append((beta, wm.idx(nu), sign_at[beta][wm.idx(nu)]))
        for on_row, want in ((False, col), (True, row)):
            roots, positions, signs = zip(*want)
            got = _coord_positions(rep, lam, roots, on_row)
            assert got[0].tolist() == list(positions) and got[1].tolist() == list(signs)
    lam, beta = unshifted
    with pytest.raises(DomainError):
        _coord_positions(rep, lam, (beta,), False)
    lam = next(lam for lam in wm.weights if wm.shift(lam, tuple(-x for x in beta)) is None)
    with pytest.raises(DomainError):
        coords_row(rep.identity(), lam, (beta,))
    patterns = [rep.pattern(alpha) for alpha in phi]
    owner = np.repeat(np.arange(len(phi)), [len(p[0]) for p in patterns])
    want = [np.concatenate(parts) for parts in zip(*patterns)] + [owner]
    for got, ref in zip(_pattern_table(rep, phi), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_a_replaced_copy_of_the_tables_keeps_its_own_moves_and_rows():
    """A ``dataclasses.replace`` copy with the signs of alpha and -alpha
    flipped (still a signed transpose pair) builds its move and its dense
    rows from its own patterns, and the real x_alpha(1) still follows the
    real pattern."""
    wm = default_module("b")
    tables = rep_tables(wm)
    alpha = wm.case.max_root
    flipped = {}
    for root in (alpha, tuple(-x for x in alpha)):
        srcs, dsts, signs = tables.patterns[root]
        flipped[root] = (srcs, dsts, -signs)
    copy = dataclasses.replace(tables, patterns={**tables.patterns, **flipped})
    assert np.array_equal(copy.move("x", alpha).signs, flipped[alpha][2])
    k = wm.case.idx(alpha)
    assert np.array_equal(copy.dense[1][k], -tables.dense[1][k])
    srcs, dsts, signs = tables.patterns[alpha]
    want = np.eye(wm.dim, dtype=np.int64)
    want[dsts, srcs] += signs
    g = get_representation(wm, RingSpec.zmod(4)).x(alpha, 1)
    assert np.array_equal(g.mat.blocks[0][0], want % 4)


def _mixed_atom_sampler(rep, rng):
    ring = rep.ring
    phi = sorted(rep.case.phi)
    values = [v for v in ring.elements() if not v.is_zero()] if ring.is_finite else [ring.el(v) for v in (-2, 1, 3)]
    units = _units(ring)

    def atom():
        kind = "xwh"[rng.randrange(3)]
        pool = values if kind == "x" else units
        return (kind, phi[rng.randrange(len(phi))], pool[rng.randrange(len(pool))])

    return atom


@pytest.mark.parametrize("ring_name", ["z4", "z12", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 6)])
def test_lines_of_an_unread_word_come_from_vectors(tag, l, ring_name):
    """``column`` and ``row`` of a word whose matrix is unread apply its
    factors to a basis vector, equal the lines of the built matrix, and
    leave the matrix unbuilt; so do the lines of its inverse."""
    rep = representation(tag, l, named_ring(ring_name))
    rng = SplitMix64(rep.n + 3 * len(ring_name))
    atom = _mixed_atom_sampler(rep, rng)
    weights = rep.wm.weights
    for length in (1, 3, 7):
        atoms = tuple(atom() for _ in range(length))
        word, ref = rep.element_from_word(atoms), rep.element_from_word(atoms)
        for g, mat in ((word, ref.mat), (word.inverse(), ref.inv_mat)):
            for _ in range(4):
                i = rng.randrange(rep.n)
                assert g.column(weights[i]) == mat_col(mat, i)
                assert g.row(weights[i]) == mat_row(mat, i)
        assert word._mat.fn is not None and word._inv.fn is not None


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None), ("a", 8)])
def test_products_of_unread_words_are_words(tag, l, ring_name):
    """Products, conjugates and commutators of words whose matrices are
    unread are the words of the concatenated factors: they equal the matrix
    products, keep ``word`` None, and build neither operand's matrix nor
    its inverse."""
    rep = representation(tag, l, named_ring(ring_name))
    rng = SplitMix64(rep.n + len(ring_name))
    atom = _mixed_atom_sampler(rep, rng)
    a, b = (rep.element_from_word(tuple(atom() for _ in range(k))) for k in (3, 7))
    ra, rb = (rep.element_from_word(g.word) for g in (a, b))
    cases = [
        (a * b, ra.mat * rb.mat, 10),
        (a.conjugate(b), rb.mat * ra.mat * rb.inv_mat, 17),
        (a.commutator(b), ra.mat * rb.mat * ra.inv_mat * rb.inv_mat, 20),
        (a.inverse() * b.inverse(), ra.inv_mat * rb.inv_mat, 10),
    ]
    for g, ref, k in cases:
        assert g._chain[0] == k and g.word is None
        assert g.mat == ref
        g.check()
        assert g.inverse().mat == g.inv_mat
    for g in (a, b):
        assert g._mat.fn is not None and g._inv.fn is not None


def test_a_product_with_a_read_word_reuses_its_matrix(monkeypatch):
    """Once a word's matrix is read, it is never rebuilt from the identity:
    an unread word against it moves the lines of a copy of it, whatever the
    unread word's length, and a read word multiplies with it."""
    rep = representation("a", 8, named_ring("f2t2"))
    phi = sorted(rep.case.phi)
    one = rep.ring.one
    read = rep.element_from_word(tuple(("x", phi[i], one) for i in range(6)))
    short = rep.x(phi[-1], one)
    long = rep.element_from_word(tuple(("x", phi[-1 - i], one) for i in range(12)))
    weyl = rep.w(phi[3], one)
    short_mat, long_mat, weyl_mat = (rep.element_from_word(g.word).mat for g in (short, long, weyl))
    read.mat, weyl.mat
    wants = [read.mat * short_mat, short_mat * read.mat, read.mat * long_mat, read.mat * weyl_mat]
    work = _count_work(monkeypatch)
    products = [read * short, short * read, read * long, read * weyl]
    assert [g._chain for g in products] == [None] * 4
    assert [g.mat for g in products[:3]] == wants[:3]
    assert work == {"identities": 0, "matmuls": 0, "moves": 14}
    assert products[3].mat == wants[3]
    assert work == {"identities": 0, "matmuls": 1, "moves": 14}
    assert short._mat.fn is not None and long._mat.fn is not None


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", [("b", None), ("c", None)])
def test_unread_words_past_the_join_cap_move_the_shorter_one(monkeypatch, tag, l, ring_name):
    """Two unread words join while their chains have at most
    ``_max_word_factors`` factors together.  Past that, on either side, the
    longer word's matrix is built from the identity and the shorter one's
    factors move a copy of it: no matrix product, and the matrix and the
    inverse equal those of the expanded joined word."""
    rep = representation(tag, l, named_ring(ring_name))
    atom = _mixed_atom_sampler(rep, SplitMix64(rep.n + 5 * len(ring_name)))
    cap = rep._max_word_factors
    short_atoms = tuple(atom() for _ in range(5))
    work = _count_work(monkeypatch)
    for long_length, joins in ((cap - 5, True), (cap - 2, False)):
        long_atoms = tuple(atom() for _ in range(long_length))
        for short_first in (True, False):
            atoms = short_atoms + long_atoms if short_first else long_atoms + short_atoms
            ref = _expanded_word(rep, atoms)
            ref.mat, ref.inv_mat
            short, long = rep.element_from_word(short_atoms), rep.element_from_word(long_atoms)
            g = short * long if short_first else long * short
            assert (g._chain is not None) == joins
            if joins:
                assert g._chain[0] == cap
                continue
            _reset(work)
            assert g.mat == ref.mat
            assert work == {"identities": 1, "matmuls": 0, "moves": len(atoms) * len(rep.ring.factors)}
            assert long._mat.fn is None and short._mat.fn is not None
            assert g.inv_mat == ref.inv_mat


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
def test_unread_words_compare_as_one_word(ring_name):
    """``==`` on two unread words reads the one reduced word g h^-1: equal
    spellings of one element compare equal, others unequal, and neither
    operand's matrix is built."""
    ring = named_ring(ring_name)
    rep = representation("c", None, ring)
    phi = sorted(rep.case.phi)
    alpha, beta = phi[0], phi[-1]
    xi, zeta = ring.el(1), ring.el(3)
    sums = [
        (rep.element_from_word((("x", alpha, xi), ("x", alpha, zeta))), rep.x(alpha, xi + zeta), True),
        (rep.w(alpha, 1), rep.element_from_word((("x", alpha, 1), ("x", tuple(-x for x in alpha), -1), ("x", alpha, 1))), True),
        (rep.x(alpha, xi), rep.x(beta, xi), False),
        (rep.h(alpha, -1), rep.w(alpha, 1).inverse().inverse() * rep.w(alpha, 1), True),
    ]
    for g, h, equal in sums:
        assert (g == h) is equal and (h == g) is equal
        assert g._mat.fn is not None and h._mat.fn is not None
        assert (g.mat == h.mat) is equal


# -- reduced joined chains ----------------------------------------------------------


@pytest.mark.parametrize("tag,l", [("a", l) for l in range(5, 11)] + [("b", None), ("c", None)])
def test_root_patterns_square_to_zero_and_commute_by_pairing(tag, l):
    """The facts that joined chains are reduced by, read from the module's
    own root patterns: X_alpha^2 = 0 for every root, and for alpha != beta,
    X_alpha X_beta = X_beta X_alpha exactly when (alpha, beta) is 0 or 1."""
    wm = default_module(tag, l)
    case = wm.case
    dst, sign = rep_tables(wm).dense
    assert not (sign * np.take_along_axis(sign, dst, axis=1)).any()
    for i in range(len(case.phi)):
        ab_dst, ab_sign = dst[i][dst], sign * sign[i][dst]  # X_alpha X_beta, every beta
        ba_dst, ba_sign = dst[:, dst[i]], sign[:, dst[i]] * sign[i]  # X_beta X_alpha
        commute = ((ab_dst == ba_dst) & (ab_sign == ba_sign)).all(axis=1)
        pairing = case.pairings[i]
        assert commute[(pairing == 0) | (pairing == 1)].all()
        assert not commute[pairing < 0].any()


def _plain_product(rep, atoms):
    """The product of the atoms' own matrices, and that of their inverses."""
    mat, inv = RMat.identity(rep.ring, rep.n), RMat.identity(rep.ring, rep.n)
    for atom in atoms:
        g = rep.element_from_word((atom,))
        mat, inv = mat * g.mat, g.inv_mat * inv
    return mat, inv


def _inverse_atoms(atoms):
    return tuple((kind, root, value.inv() if kind == "h" else -value) for kind, root, value in reversed(atoms))


# object-block products at n = 128 take about 40 ms each, so a8 runs over the finite rings only
REDUCED_CASES = [
    (tag, l, ring_name)
    for tag, l in (("a", 6), ("a", 8), ("b", None), ("c", None))
    for ring_name in ("z4", "z8", "f2t2", "int")
    if (l, ring_name) != (8, "int")
]


@pytest.mark.parametrize("tag,l,ring_name", REDUCED_CASES)
def test_joined_words_are_reduced_exactly(tag, l, ring_name):
    """Joined chains are reduced (x factors of roots that pair at 0 or 1
    commute, and x factors of one root add up): seeded conjugates,
    commutators, and products with w and h factors between x factors have
    the matrix, inverse, rows and columns of the plain product of their
    factors' matrices, and ``is_identity`` and ``==`` give the verdicts of
    the matrices, both of which are seen.  Equal x-words compare without a
    matrix, since g h^-1 reduces to no factors."""
    rep = representation(tag, l, named_ring(ring_name))
    case, weights = rep.case, rep.wm.weights
    rng = SplitMix64(rep.n + 11 * len(ring_name))
    values, u = _nonzero(rep.ring), _units(rep.ring)[-1]
    phi = sorted(case.phi)

    def pick(seq):
        return seq[rng.randrange(len(seq))]

    pool = [pick(phi) for _ in range(4)]  # few roots, so that factors meet their own root

    def xs(k, roots=pool):
        return tuple(("x", pick(roots), pick(values)) for _ in range(k))

    alpha = pool[0]
    beta = next(b for b in phi if case.pairing(alpha, b) == 1)
    gamma = next(b for b in phi if case.pairing(alpha, b) == -1)
    x_alpha, x_beta, x_gamma = ((("x", root, pick(values)),) for root in (alpha, beta, gamma))
    h, a, b = xs(2 + rng.randrange(4)), xs(2), xs(2)
    mixed = xs(2) + (("w", pick(pool), u), ("h", pick(pool), u)) + xs(2)
    walled = xs(3) + (("w", alpha, u),)
    products = [  # operands (atoms, inverted), multiplied left to right
        [(h, False), (xs(1), False), (h, True)],
        [(x_alpha, False), (x_gamma, False), (x_alpha, True)],
        [(x_alpha, False), (x_beta, False), (x_alpha, True)],
        [(a, False), (b, False), (a, True), (b, True)],
        [(x_alpha, False), (x_gamma, False), (x_alpha, True), (x_gamma, True)],
        [(x_alpha, False), ((("w", beta, u),), False), (x_alpha, True)],
        [(x_alpha, False), ((("h", beta, u),), False), (x_alpha, True)],
        [(mixed, False), (mixed, True)],
        [(walled, False), (xs(3), False), (walled, True)],
    ]
    verdicts = set()
    for ops in products:
        atoms = sum((_inverse_atoms(w) if inverted else w for w, inverted in ops), ())
        mat, inv = _plain_product(rep, atoms)

        def joined():
            words = [rep.element_from_word(w) for w, _ in ops]
            g = words[0].inverse() if ops[0][1] else words[0]
            for word, (_, inverted) in zip(words[1:], ops[1:]):
                g = g * (word.inverse() if inverted else word)
            assert g._chain[0] == len(atoms)
            return g

        i = rng.randrange(rep.n)
        assert joined().row(weights[i]) == mat_row(mat, i) and joined().column(weights[i]) == mat_col(mat, i)
        assert joined().inverse().row(weights[i]) == mat_row(inv, i)
        assert joined().is_identity() is mat.is_identity(), atoms
        verdicts.add(mat.is_identity())
        g = joined()
        assert g.mat == mat and g.inv_mat == inv, atoms
    assert verdicts == {True, False}

    plus = list(case.omega_plus[:3])  # distinct roots of an abelian radical
    spelled = tuple(("x", b, pick(values)) for b in plus)
    xi = values[0]
    zeta = next(v for v in values if not (xi + v).is_zero())
    sample = xs(4)
    pairs = [  # (g, h, whether g h^-1 reduces to no factors)
        (sample, sample, True),
        (spelled, spelled[::-1], True),
        ((("x", alpha, xi), ("x", alpha, zeta)), (("x", alpha, xi + zeta),), True),
        (sample, sample[:-1] + (("x", sample[-1][1], sample[-1][2] + rep.ring.one),), False),
        (x_alpha + x_gamma, x_gamma + x_alpha, False),
        (spelled + (("w", alpha, u),), spelled + (("w", alpha, u),), False),
        (spelled, spelled[:2], False),
    ]
    verdicts = set()
    for g_atoms, h_atoms, cancels in pairs:
        equal = _plain_product(rep, g_atoms)[0] == _plain_product(rep, h_atoms)[0]
        g, h = rep.element_from_word(g_atoms), rep.element_from_word(h_atoms)
        assert (g == h) is equal and (h == g) is equal, (g_atoms, h_atoms)
        assert g._mat.fn is not None and h._mat.fn is not None
        assert ((g * h.inverse())._chain[1].get() == ()) is cancels
        verdicts.add(equal)
    assert verdicts == {True, False}


def test_decomposition_checks_of_unipotent_words_build_nothing(monkeypatch):
    """The checks v == word(lower) and u == word(upper) after
    ``chevalley_matsumoto`` on an a8 big-cell matrix over F2[t]/(t^2) reduce
    to no factors, with no identity and no line move; two words of roots
    that pair at -1 still build one identity."""
    from chevalley.analysis import chevalley_matsumoto

    rep = representation("a", 8, named_ring("f2t2"))
    case = rep.case
    t, one = rep.ring.from_parts(((0, 1),)), rep.ring.one
    plus = sorted(case.omega_plus)
    lower = tuple(("x", tuple(-x for x in b), v) for b, v in zip(plus[:3], (one, t, one + t)))
    upper = tuple(("x", b, v) for b, v in zip(plus[-3:], (t, one, one + t)))
    levi = (("x", sorted(case.delta)[0], one),)
    g = rep.from_matrix(rep.element_from_word(lower + levi + upper).mat)
    v, g1, u = chevalley_matsumoto(g)
    work = _count_work(monkeypatch)
    assert v == rep.element_from_word(lower[::-1]) and u == rep.element_from_word(upper[::-1])
    assert work == {"identities": 0, "matmuls": 0, "moves": 0}
    alpha = plus[0]
    gamma = next(b for b in case.phi if case.pairing(alpha, b) == -1)
    x_ag = rep.element_from_word((("x", alpha, one), ("x", gamma, one)))
    assert not x_ag == rep.element_from_word((("x", gamma, one), ("x", alpha, one)))
    assert work["identities"] == 1


# -- the adjoint of the invariant form ------------------------------------------------


def _nonzero(ring):
    if not ring.is_finite:
        return [ring.el(v) for v in (-2, -1, 1, 2)]
    return [v for v in ring.elements() if not v.is_zero()]


def _unit_not_one(ring):
    return next(v for v in ring.units() if v != ring.one) if ring.is_finite else -ring.one


@pytest.mark.parametrize("ring_name", ["z4", "f2t2"])
@pytest.mark.parametrize("tag,l", [("a", 6), ("a", 8), ("c", None)])
def test_the_adjoint_inverts_every_root_factor(tag, l, ring_name):
    """adj(g) = H^-1 g^T H is g^-1 on the generators: adj(x_alpha(xi)) =
    x_alpha(-xi), adj(w_alpha(1)) = w_alpha(-1) and adj(h_alpha(u)) =
    h_alpha(u^-1), for every root."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    values, u = _nonzero(ring), _unit_not_one(ring)
    for i, alpha in enumerate(rep.case.phi):
        xi = values[i % len(values)]
        assert rep.adjoint(rep.x(alpha, xi).mat) == rep.x(alpha, -xi).mat, alpha
        assert rep.adjoint(rep.w(alpha, 1).mat) == rep.w(alpha, -1).mat, alpha
        assert rep.adjoint(rep.h(alpha, u).mat) == rep.h(alpha, u.inv()).mat, alpha


def _root_sum(rep, values: dict):
    """e + the sum of v N_alpha over the roots, where x_alpha(v) = e + v N_alpha.
    An entry's row and column weights differ by one root, so the N_alpha have
    disjoint supports and each entry holds one root's term."""
    mat = rep.identity().mat
    for alpha, v in values.items():
        srcs, dsts, signs = rep.pattern(alpha)
        for s, d, c in zip(srcs.tolist(), dsts.tolist(), signs.tolist()):
            mat.set_entry(d, s, v if c == 1 else -v)
    return mat


@pytest.mark.parametrize("ring_name", ["z4", "f2t2"])
def test_the_adjoint_negates_every_root_element_at_a10(ring_name):
    """adj(x_alpha(xi)) = x_alpha(-xi) for every root of a10 (n = 512) at
    once: adj is linear and fixes e, and the supports of the N_alpha are
    disjoint, so one gather of their sum checks each root.  The w and h
    factors are products of root elements, and adj reverses products."""
    ring = named_ring(ring_name)
    rep = representation("a", 10, ring)
    values = _nonzero(ring)
    xi = {alpha: values[i % len(values)] for i, alpha in enumerate(rep.case.phi)}
    minus = {alpha: -v for alpha, v in xi.items()}
    assert rep.adjoint(_root_sum(rep, xi)) == _root_sum(rep, minus)


def test_the_adjoint_is_refused_in_first_type_cases():
    rep = representation("b", None, named_ring("z4"))
    with pytest.raises(UnsupportedCaseError):
        rep.adjoint(rep.identity().mat)
    g = rep.from_matrix(rep.x(rep.case.phi[0], 1).mat)
    assert not g._isometry


SECOND_TYPE = [("a", 6), ("a", 8), ("c", None)]


def _word(rep, seed, length=6):
    rng = SplitMix64(seed)
    phi, values = rep.case.phi, _nonzero(rep.ring)
    atoms = [("x", phi[rng.randrange(len(phi))], values[rng.randrange(len(values))]) for _ in range(length)]
    atoms += [("w", phi[rng.randrange(len(phi))], rep.ring.one), ("h", phi[rng.randrange(len(phi))], _unit_not_one(rep.ring))]
    return rep.element_from_word(tuple(atoms))


@pytest.mark.parametrize("ring_name", ["z4", "z8", "z12", "f2t2"])
@pytest.mark.parametrize("tag,l", SECOND_TYPE)
def test_from_matrix_reads_a_word_matrix_inverse_off_the_form(monkeypatch, tag, l, ring_name):
    from chevalley import matrices

    rep = representation(tag, l, named_ring(ring_name))
    words = [_word(rep, seed) for seed in (1, 2)]
    eliminated = [w.mat.inv() for w in words]
    calls = []
    inv_mod_p = matrices._inv_mod_p
    monkeypatch.setattr(matrices, "_inv_mod_p", lambda *a, **k: calls.append(1) or inv_mod_p(*a, **k))
    for word, expected in zip(words, eliminated):
        g = rep.from_matrix(word.mat)
        assert g._isometry
        assert g.inv_mat == expected == word.inv_mat
    assert calls == []


@pytest.mark.parametrize("ring_name", ["z4", "z8", "z12", "f2t2"])
@pytest.mark.parametrize("tag,l", SECOND_TYPE)
def test_from_matrix_eliminates_a_matrix_off_the_form(monkeypatch, tag, l, ring_name):
    """e with one diagonal unit u != 1 is invertible but moves the form: it
    is inverted by elimination, stays unflagged, and its root-type check
    squares g - e.  With a non-unit there instead, it is singular."""
    from chevalley import analysis, matrices

    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    mat = rep.identity().mat
    u = _unit_not_one(ring)
    mat.set_entry(3, 3, u)
    calls = []
    inv_mod_p = matrices._inv_mod_p
    monkeypatch.setattr(matrices, "_inv_mod_p", lambda *a, **k: calls.append(1) or inv_mod_p(*a, **k))
    g = rep.from_matrix(mat)
    assert calls and not g._isometry
    assert (g.mat * g.inv_mat).is_identity()
    products = []
    mul = RMat.__mul__
    monkeypatch.setattr(RMat, "__mul__", lambda self, other: products.append(1) or mul(self, other))
    # g - e is u - 1 at one diagonal entry, so its square is (u - 1)^2 there
    square_vanishes = ((u - ring.one) * (u - ring.one)).is_zero()
    assert analysis.root_type_failures(g) == ([] if square_vanishes else ["square of (g - e) is nonzero"])
    assert products == [1]
    mat.set_entry(3, 3, next(v for v in _nonzero(ring) if not v.is_unit()))
    with pytest.raises(NonUnitError):
        rep.from_matrix(mat)


@pytest.mark.parametrize("tag,l", SECOND_TYPE)
def test_from_matrix_over_the_integers_still_refuses_a_non_identity(tag, l):
    rep = representation(tag, l, named_ring("int"))
    assert rep.from_matrix(rep.identity().mat).is_identity()
    with pytest.raises(UnsupportedCaseError):
        rep.from_matrix(_word(rep, 3).mat)


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", SECOND_TYPE)
def test_form_preservation_is_tracked_through_words_products_and_reductions(tag, l, ring_name):
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    a, b = _word(rep, 4), _word(rep, 5)
    b.mat  # a read matrix: products take the line or matrix path
    derived = [rep.identity(), a, a.inverse(), a * b, b * a.inverse(), (a * b).inverse()]
    if ring.is_finite:
        derived += [rep.from_matrix(a.mat), rep.reduce(a, Ideal.from_elems(ring, [ring.el(2)]))]
    for g in derived:
        assert g._isometry
        assert g.rep.adjoint(g.mat) == g.inv_mat
    assert not GroupElement(rep, a.mat, None)._isometry
    assert not (GroupElement(rep, a.mat, a.inv_mat) * a)._isometry


def _replayed_inverse(rep, atoms):
    """The inverse factors of the atoms, replayed on the identity."""
    from chevalley.rep import _inverse_factors

    return rep._apply_factors(RMat.identity(rep.ring, rep.n), _inverse_factors(rep._factors(atoms)), True)


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
@pytest.mark.parametrize("tag,l", SECOND_TYPE)
def test_form_preserving_inverses_are_adjoints(tag, l, ring_name):
    """A word, a matrix product and a line product of form-preserving
    elements take their inverse as the adjoint of their matrix, which equals
    their replayed inverse factors."""
    rep = representation(tag, l, named_ring(ring_name))
    a, b, read = _word(rep, 6), _word(rep, 7), _word(rep, 8)
    x = rep.x(rep.case.phi[0], rep.ring.one)
    b.mat, read.mat  # read matrices: products with b multiply or move lines
    elements = [(a, a.word), (read * b, read.word + b.word), (x * b, x.word + b.word)]
    assert [g._mat.fn is operator.mul for g, _ in elements[1:]] == [True, False]
    for g, atoms in elements:
        assert g._isometry and g._inv.fn == rep.adjoint
        assert g.inv_mat == _replayed_inverse(rep, atoms)
        g.check()


@pytest.mark.parametrize("tag,l", [("a", 5), ("b", None)])
def test_first_type_inverses_replay_the_inverse_factors(tag, l):
    rep = representation(tag, l, named_ring("z4"))
    a, b = _word(rep, 6), _word(rep, 7)
    b.mat
    for g, atoms in ((a, a.word), (a * b, a.word + b.word)):
        assert not g._isometry and g._inv.fn != rep.adjoint
        assert g.inv_mat == _replayed_inverse(rep, atoms)
        g.check()


# -- conjugates of a root element ----------------------------------------------------------


def _read_element(rep, length, seed, matrix_only):
    """A read first-type element: a word with its matrix read, or its matrix
    through ``from_matrix``, which has no chain."""
    g = _word(rep, seed, length)
    g.mat
    return rep.from_matrix(g.mat) if matrix_only else g


@pytest.mark.parametrize("ring_name", ["z4", "f2t2", "int"])
def test_conjugates_of_a_root_element_invert_as_two_e_minus_themselves(ring_name):
    """x_alpha(v)^-1 = 2e - x_alpha(v), so the inverse of h x_alpha(v) h^-1
    read off its matrix equals h x_alpha(-v) h^-1 built by products, for a
    read word h and, off Z, a matrix-only h; so do both factors of a
    commutator.  A Weyl or torus conjugate, whose factor is no such
    element, keeps its inverse from products."""
    ring = named_ring(ring_name)
    rep = representation("b", None, ring)
    phi = sorted(rep.case.phi)
    rng = SplitMix64(31)
    for k in range(4):
        if k % 2 and not ring.is_finite:
            continue
        h = _read_element(rep, 5, 40 + k, k % 2)
        x = rep.x(phi[rng.randrange(len(phi))], 3)
        for c in (x.conjugate(h), x.conjugate(h.inverse())):
            assert c._chain is None and c._inv.args == (c._mat,)
            c.check()
        assert x.conjugate(h).inv_mat == h.mat * x.inv_mat * h.inv_mat
        assert x.conjugate(h.inverse()).inv_mat == h.inv_mat * x.inv_mat * h.mat
        comm = h.commutator(x)
        assert comm.mat == h.mat * x.mat * h.inv_mat * x.inv_mat
        assert comm.inv_mat == x.mat * h.mat * x.inv_mat * h.inv_mat
        comm.check()
        for kind in ("w", "h"):
            rep.element_from_word(((kind, x.word[0][1], _unit_not_one(ring)),)).conjugate(h).check()


def test_a_commutator_with_a_root_element_runs_one_product(monkeypatch):
    """[h, x_s(1)] of a read matrix-only first-type h runs one ``RMat``
    product for its matrix and its inverse together: h x_s(1) h^-1 is one
    product after a line move, its inverse is 2e minus it, and x_s(-1)
    moves lines of both."""
    rep = representation("b", None, named_ring("z4"))
    h = _read_element(rep, 6, 7, True)
    x = rep.x(rep.case.simple_roots[2], 1)
    products = []
    mul = RMat.__mul__
    monkeypatch.setattr(RMat, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    comm = h.commutator(x)
    comm.mat, comm.inv_mat
    assert len(products) == 1
    monkeypatch.undo()
    assert comm.mat == h.mat * x.mat * h.inv_mat * x.inv_mat
    comm.check()
