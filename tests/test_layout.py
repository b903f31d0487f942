"""The block kernels of ``matrices`` against plain-Python references that
work on ``RingElem`` entries, over every factor kind, a product of factors and
a zero-ring factor; plus the int64 exactness bound, the float64 bound and
the power-of-two mask at their edges.  Inputs come from seeded
``SplitMix64`` streams, so every run replays bit-exactly."""

import ast
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from chevalley.errors import DomainError, NonUnitError, UnsupportedCaseError
from chevalley import matrices, rings
from chevalley.matrices import LineMove, RMat, RVec, _float_ok, check_exact, mat_col, pattern_images
from chevalley.rep import representation, sample_word_rng
from chevalley.rings import Ideal, RingSpec, named_ring
from chevalley.rng import SplitMix64

SPECS = {
    "z4": named_ring("z4"),
    "z12": named_ring("z12"),
    "z9": named_ring("z9"),
    "f2t2": named_ring("f2t2"),
    "f3t3": named_ring("f3t3"),
    # F_5[t]/(t): a poly factor with the one-slice layout of Z/5
    "f5t1": named_ring("f5t1"),
    "int": named_ring("int"),
    # Z/4 x Z/1: a quotient of Z/12 with a zero-ring factor
    "z4-zero": Ideal(named_ring("z12"), (2, 0)).quotient_spec(),
}

N = 5


def _pool(spec):
    return list(spec.elements()) if spec.is_finite else [spec.el(v) for v in range(-4, 5)]


def _random_entries(spec, rng, rows, cols):
    pool = _pool(spec)
    return [[pool[rng.randrange(len(pool))] for _ in range(cols)] for _ in range(rows)]


def _to_mat(spec, entries) -> RMat:
    out = RMat.zeros(spec, len(entries))
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            out.set_entry(i, j, x)
    return out


def _to_vec(spec, entries) -> RVec:
    out = RVec.zeros(spec, len(entries))
    for i, x in enumerate(entries):
        out.set_entry(i, x)
    return out


def _entries(m: RMat):
    return [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]


def _ref_mul(spec, a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), spec.zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _ref_identity(spec, n):
    return [[spec.one if i == j else spec.zero for j in range(n)] for i in range(n)]


def _ref_det(spec, a):
    n = len(a)
    total = spec.zero
    for perm in permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = spec.one
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total - term if sign else total + term
    return total


def _random_pattern(rng, n):
    """Disjoint source and target lines with signs, like a root pattern."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    k = 1 + rng.randrange(n // 2)
    srcs = np.array(order[:k], dtype=np.intp)
    dsts = np.array(order[k : 2 * k], dtype=np.intp)
    signs = np.array([1 - 2 * rng.randrange(2) for _ in range(k)], dtype=np.int64)
    return srcs, dsts, signs


def _ref_root_matrix(spec, n, pattern, xi):
    """e + xi P with P[dst, src] = sign."""
    out = _ref_identity(spec, n)
    for s, d, c in zip(*pattern):
        out[d][s] = xi if c > 0 else -xi
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernels_match_the_entrywise_reference(name):
    spec = SPECS[name]
    rng = SplitMix64(sum(map(ord, name)))
    pool = _pool(spec)
    for _ in range(4):
        a = _random_entries(spec, rng, N, N)
        b = _random_entries(spec, rng, N, N)
        ma, mb = _to_mat(spec, a), _to_mat(spec, b)
        assert _entries(ma * mb) == _ref_mul(spec, a, b)
        assert _entries(ma + mb) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
        assert _entries(ma - mb) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
        assert _entries(ma.transpose()) == [list(col) for col in zip(*a)]

        pattern = _random_pattern(rng, N)
        xi = pool[rng.randrange(len(pool))]
        x = _ref_root_matrix(spec, N, pattern, xi)
        right, left = ma.copy(), ma.copy()
        right.apply_x_right(LineMove(*pattern), xi)
        left.apply_x_left(LineMove(*pattern), xi)
        assert _entries(right) == _ref_mul(spec, a, x)
        assert _entries(left) == _ref_mul(spec, x, a)


def _ideals(spec):
    if not spec.is_finite:
        return [Ideal(spec, (j,)) for j in (0, 1, 6, 12)]
    parts = [()]
    for f in spec.factors:
        parts = [p + (j,) for p in parts for j in range(f.k + 1)]
    return [Ideal(spec, p) for p in parts]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_reduce_matches_the_entrywise_reference(name):
    spec = SPECS[name]
    rng = SplitMix64(2 + sum(map(ord, name)))
    a = _random_entries(spec, rng, N, N)
    m = _to_mat(spec, a)
    for ideal in _ideals(spec):
        q = m.reduce(ideal)
        assert q.spec == ideal.quotient_spec()
        assert _entries(q) == [[ideal.reduce_elem(x) for x in row] for row in a]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_inverse_matches_the_determinant(name):
    spec = SPECS[name]
    rng = SplitMix64(3 + sum(map(ord, name)))
    n = 4
    ident = _ref_identity(spec, n)
    seen = set()
    for trial in range(8):
        a = _random_entries(spec, rng, n, n)
        if trial % 2:
            # a unit diagonal and zeros below it: always invertible
            for i in range(n):
                a[i][i] = spec.one
                for j in range(i):
                    a[i][j] = spec.zero
        elif trial % 4 == 2:
            a[0] = list(a[1])  # singular
        m = _to_mat(spec, a)
        if not spec.is_finite:
            if _entries(m) == ident:
                assert m.inv().is_identity()
            else:
                with pytest.raises(UnsupportedCaseError):
                    m.inv()
            continue
        invertible = _ref_det(spec, a).is_unit()
        seen.add(invertible)
        if not invertible:
            with pytest.raises(NonUnitError):
                m.inv()
            continue
        inv = _entries(m.inv())
        assert _ref_mul(spec, a, inv) == ident
        assert _ref_mul(spec, inv, a) == ident
    if spec.is_finite:
        assert seen == {True, False}
    assert _to_mat(spec, ident).inv().is_identity()


def _signed_matrix(spec, rng, n):
    """Entries drawn mostly as +-x for a few x, so signed copies are common."""
    pool = _pool(spec)
    base = [pool[rng.randrange(len(pool))] for _ in range(3)]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = base[rng.randrange(3)] if rng.randrange(4) else pool[rng.randrange(len(pool))]
            row.append(-x if rng.randrange(2) else x)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(SPECS))
def test_predicates_match_entrywise_folds(name):
    spec = SPECS[name]
    rng = SplitMix64(4 + sum(map(ord, name)))
    ideals = _ideals(spec)
    for trial in range(6):
        a = _signed_matrix(spec, rng, N)
        if trial == 0:
            a = [[spec.zero] * N for _ in range(N)]
        m = _to_mat(spec, a)
        k = 1 + rng.randrange(2 * N)
        rows = np.array([rng.randrange(N) for _ in range(k)], dtype=np.intp)
        cols = np.array([rng.randrange(N) for _ in range(k)], dtype=np.intp)
        picked = [a[i][j] for i, j in zip(rows, cols)]
        mask = np.array([[rng.randrange(3) == 0 for _ in range(N)] for _ in range(N)])
        masked = [a[i][j] for i in range(N) for j in range(N) if mask[i, j]]

        assert m.nonzero_at(rows * N + cols) == any(not x.is_zero() for x in picked)
        assert m.nonzero_at(np.flatnonzero(mask)) == any(not x.is_zero() for x in masked)
        assert m.nonzero_at() == any(not x.is_zero() for row in a for x in row)
        assert m.line_ideals((rows * N + cols)[:, None]) == [Ideal.from_elems(spec, picked)]
        for ideal in ideals:
            assert m.in_ideal_at(ideal, rows * N + cols) == all(x in ideal for x in picked)

        ref = np.array([rng.randrange(k) for _ in range(k)], dtype=np.intp)
        expected = [x == picked[r] or x == -picked[r] for x, r in zip(picked, ref)]
        assert m.signed_copies_at(rows * N + cols, ref=ref).tolist() == expected

        column = mat_col(m, trial % N)
        idx = cols
        line = [a[i][trial % N] for i in idx]
        assert column.nonzero_at(idx) == any(not x.is_zero() for x in line)
        assert column.line_ideals(idx[:, None]) == [Ideal.from_elems(spec, line)]
        for ideal in ideals:
            assert column.in_ideal_at(ideal, idx) == all(x in ideal for x in line)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_line_mask_matches_entrywise_folds(name):
    spec = SPECS[name]
    rng = SplitMix64(5 + sum(map(ord, name)))
    for trial in range(4):
        a = _signed_matrix(spec, rng, N)
        m = _to_mat(spec, a)
        rows = np.array(sorted({rng.randrange(N) for _ in range(1 + trial)}), dtype=np.intp)
        for ideal in _ideals(spec):
            expected = [all(a[i][j] in ideal for i in rows) for j in range(N)]
            assert m.in_ideal_mask(ideal, rows[:, None] * N + np.arange(N)).tolist() == expected
            assert m.in_ideal_mask(ideal, rows[0] * N + np.arange(N)).tolist() == [a[rows[0]][j] in ideal for j in range(N)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_line_ideals_match_entrywise_folds(name):
    spec = SPECS[name]
    rng = SplitMix64(6 + sum(map(ord, name)))
    cols = np.arange(N, dtype=np.intp)
    for trial in range(6):
        a = _signed_matrix(spec, rng, N)
        if trial == 0:
            a = [[spec.zero] * N for _ in range(N)]
        zero_col = rng.randrange(N)
        for row in a:
            row[zero_col] = spec.zero
        m = _to_mat(spec, a)
        # a stack of lines as in the corner table: column j reads rows[:, j]
        rows = np.array([[rng.randrange(N) for _ in range(N)] for _ in range(1 + trial % 3)], dtype=np.intp)
        got = m.line_ideals(rows * N + cols)
        assert got == [Ideal.from_elems(spec, [a[i][j] for i in rows[:, j]]) for j in range(N)]
        assert all(x is y for x in got for y in got if x == y)
        assert got[zero_col].is_zero()
        # one entry per line, lines along the rows, and an empty stack
        r = rng.randrange(N)
        assert m.line_ideals(r * N + cols) == [Ideal.from_elems(spec, [a[r][j]]) for j in range(N)]
        assert m.line_ideals(cols * N + r) == [Ideal.from_elems(spec, [a[j][r]]) for j in range(N)]
        assert m.line_ideals(rows[:0] * N + cols) == [Ideal.zero(spec)] * N


@pytest.mark.parametrize("name", sorted(SPECS))
def test_pattern_images_match_the_entrywise_reference(name):
    spec = SPECS[name]
    rng = SplitMix64(6 + sum(map(ord, name)))
    pool = _pool(spec)
    for _ in range(3):
        a = _random_entries(spec, rng, N, N)
        v = [row[0] for row in _random_entries(spec, rng, N, 1)]
        patterns = [_random_pattern(rng, N) for _ in range(4)]
        values = [pool[rng.randrange(len(pool))] for _ in patterns]
        owner = np.repeat(np.arange(len(patterns)), [len(p[0]) for p in patterns])
        table = tuple(np.concatenate(parts) for parts in zip(*patterns)) + (owner,)
        got = pattern_images(_to_mat(spec, a), _to_vec(spec, v), table, values)
        for k, (pattern, xi) in enumerate(zip(patterns, values)):
            x = _ref_root_matrix(spec, N, pattern, xi)
            expected = _ref_mul(spec, _ref_mul(spec, a, x), [[y] for y in v])
            assert [got._box((i, k)) for i in range(N)] == [row[0] for row in expected]


def test_sums_over_different_rings_are_refused():
    z4 = RMat.identity(named_ring("z4"), 3)
    z8 = RMat.identity(named_ring("z8"), 3)
    with pytest.raises(DomainError):
        z4 + z8
    with pytest.raises(DomainError):
        z4 - z8
    assert (z4 + z4).entry(0, 0) == named_ring("z4").el(2)


def test_integer_root_elements_with_large_parameters():
    ints = RingSpec.integers()
    rep = representation("b", None, ints)
    n = rep.n
    for alpha in (rep.case.phi[0], rep.case.phi[-1]):
        srcs, dsts, signs = rep.pattern(alpha)
        for xi in (2**70, -(2**70) + 3, 2**64 - 1):
            g = rep.x(alpha, xi)
            ref = [[int(i == j) for j in range(n)] for i in range(n)]
            for src, dst, sign in zip(srcs.tolist(), dsts.tolist(), signs.tolist()):
                ref[dst][src] = sign * xi
            assert [[g.mat.entry(i, j).parts[0] for j in range(n)] for i in range(n)] == ref
            assert (g.mat * rep.x(alpha, -xi).mat).is_identity()
            assert (g.mat * g.inv_mat).is_identity()


# -- ring-factor dispatch -----------------------------------------------------------


def test_factor_kind_dispatch_stays_in_rings():
    """Only ``rings`` imports the factor-kind constants or reads a factor's
    kind; ``wm.kind`` and ``case.kind`` (weight-module and embedding kinds)
    are other attributes.  Within ``rings``, no method of ``Ideal`` or
    ``RingElem`` reads a kind: ideals and elements run on the layout and the
    chain rule of ``Factor``."""
    src = Path(__file__).resolve().parents[1] / "src" / "chevalley"
    kinds = {"POLY", "ZMOD", "INT"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "rings.py":
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and cls.name in ("Ideal", "RingElem"):
                    for node in ast.walk(cls):
                        if isinstance(node, ast.Attribute) and node.attr == "kind":
                            offenders.append(f"{cls.name}:{node.lineno} reads {ast.unparse(node)}")
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and kinds & {a.name for a in node.names}:
                offenders.append(f"{path.name}:{node.lineno} imports a factor kind")
            elif isinstance(node, ast.Name) and node.id in kinds:
                offenders.append(f"{path.name}:{node.lineno} reads {node.id}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "kind"
                and not (isinstance(node.value, ast.Name) and node.value.id in ("wm", "case"))
            ):
                offenders.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert not offenders, offenders


def test_cartan_matrix_stays_in_roots():
    """Root arithmetic reads the tables of ``roots``: outside that module only
    ``weights._gram`` (the form C^-1 in fundamental-weight coordinates)
    reads ``case.cartan``."""
    src = Path(__file__).resolve().parents[1] / "src" / "chevalley"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "roots.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "weights.py":
            gram = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_gram")
            allowed = {id(node) for node in ast.walk(gram)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "cartan" and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert not offenders, offenders


def test_unread_chain_is_decided_in_one_place():
    """In ``rep``, only ``GroupElement._unread_chain`` reads both an
    element's ``_chain`` and whether its matrix is read (``._mat.fn``), so
    products, joins and line reads share one test of an unread chain."""
    path = Path(__file__).resolve().parents[1] / "src" / "chevalley" / "rep.py"
    offenders = []
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, ast.FunctionDef) or func.name == "_unread_chain":
            continue
        attrs = [node for node in ast.walk(func) if isinstance(node, ast.Attribute)]
        chain = any(node.attr == "_chain" for node in attrs)
        read = any(node.attr == "fn" and getattr(node.value, "attr", None) == "_mat" for node in attrs)
        if chain and read:
            offenders.append(f"{func.name} (line {func.lineno})")
    assert not offenders, offenders


def test_matrices_reduces_only_through_the_ring_helper():
    """``matrices`` has no ``%`` or ``%=`` and no ``_mod`` of its own: every
    reduction goes through ``rings._mod``, which masks power-of-two moduli."""
    path = Path(__file__).resolve().parents[1] / "src" / "chevalley" / "matrices.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            offenders.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders
    assert matrices._mod is rings._mod


# -- the int64 exactness bound -------------------------------------------------------


def test_modulus_above_the_bound_is_refused():
    big = named_ring("z4294967311")  # a prime above 2^32
    with pytest.raises(DomainError):
        representation("b", None, big)
    with pytest.raises(DomainError):
        RMat.identity(big, 27)
    with pytest.raises(DomainError):
        RVec.zeros(big, 27)
    # reducing an integer matrix lands in the same modulus
    ideal = Ideal(RingSpec.integers(), (4294967311,))
    with pytest.raises(DomainError):
        RMat.identity(RingSpec.integers(), 27).reduce(ideal)


def test_largest_modulus_below_the_bound_is_exact():
    p = 584471011  # the largest prime with (p - 1)^2 * 27 < 2^63
    assert (p - 1) ** 2 * 27 < 2**63
    with pytest.raises(DomainError):
        check_exact(named_ring("z584471021"), 27)  # the next prime
    ring = named_ring(f"z{p}")
    rep = representation("b", None, ring)
    rng = SplitMix64(11)
    values = [ring.el(rng.randrange(p)) for _ in range(12)]
    atoms = [("x", rep.case.phi[rng.randrange(len(rep.case.phi))], v) for v in values]
    g = sample_word_rng(rep, atoms, 12, SplitMix64(5))
    assert (g.mat * g.inv_mat).is_identity()
    exact = g.mat.blocks[0][0].astype(object)
    square = (g.mat * g.mat).blocks[0][0]
    assert np.array_equal(square, (exact @ exact) % p)


# -- reductions by bit mask and the float64 product ----------------------------------


def _random_blocks(spec, n, rng, fill=None):
    """Per factor an (s, n, n) block with random coefficients in [0, c), or
    every coefficient ``fill(c)``."""
    blocks = []
    for f in spec.factors:
        s, c = f.layout
        coeffs = [fill(c) if fill else rng.randrange(c) for _ in range(s * n * n)]
        blocks.append(np.array(coeffs, dtype=np.int64).reshape(s, n, n))
    return blocks


def _ref_product(a, b, c):
    """The truncated product of two slice stacks in exact integers."""
    a, b = a.astype(object), b.astype(object)
    return np.array([sum(a[i] @ b[t - i] for i in range(t + 1)) % c for t in range(len(a))], dtype=np.int64)


def _check_products(spec, n, seed):
    rng = SplitMix64(seed)
    c = spec.factors[0].layout[1]
    pairs = [[RMat(spec, n, _random_blocks(spec, n, rng)) for _ in range(2)] for _ in range(2)]
    # every coefficient c - 1: each slice sum reaches its largest value
    pairs.append([RMat(spec, n, _random_blocks(spec, n, rng, fill=lambda c: c - 1))] * 2)
    for a, b in pairs:
        assert np.array_equal((a * b).blocks[0], _ref_product(a.blocks[0], b.blocks[0], c))


def test_power_of_two_modulus_at_the_int64_bound_is_exact():
    c = 2**29  # the largest power of two with (c - 1)^2 * 27 < 2^63
    n = 27
    assert (c - 1) ** 2 * n < 2**63 <= (2 * c - 1) ** 2 * n
    spec = named_ring(f"z{c}")
    assert not _float_ok(spec.factors[0].layout, n)
    _check_products(spec, n, 29)

    rng = SplitMix64(30)
    a = RMat(spec, n, _random_blocks(spec, n, rng))
    exact = a.blocks[0][0].astype(object)
    srcs, dsts, _ = _random_pattern(rng, n)
    signs = np.where(np.arange(len(srcs)) % 2, 1, -1).astype(np.int64)
    xi = c - 3
    x = np.identity(n, dtype=np.int64).astype(object)
    x[dsts, srcs] = signs.astype(object) * xi % c
    right, left = a.copy(), a.copy()
    right.apply_x_right(LineMove(srcs, dsts, signs), spec.el(xi))
    left.apply_x_left(LineMove(srcs, dsts, signs), spec.el(xi))
    assert np.array_equal(right.blocks[0][0], exact @ x % c)
    assert np.array_equal(left.blocks[0][0], x @ exact % c)

    # P L U with unit triangular L and U is invertible; the row permutation
    # leaves even diagonal entries, so the elimination has to swap pivots
    lower = np.tril(_random_blocks(spec, n, rng)[0][0], -1) + np.identity(n, dtype=np.int64)
    upper = np.triu(_random_blocks(spec, n, rng)[0][0], 1) + np.identity(n, dtype=np.int64)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    m = (lower.astype(object) @ upper.astype(object) % c)[order]
    assert any(m[i, i] % 2 == 0 for i in range(n))
    inv = RMat(spec, n, [m.astype(np.int64)[None]]).inv().blocks[0][0].astype(object)
    ident = np.identity(n, dtype=np.int64).astype(object)
    assert np.array_equal(m @ inv % c, ident)
    assert np.array_equal(inv @ m % c, ident)


@pytest.mark.parametrize("e", [23, 24])
def test_products_on_both_sides_of_the_float_switch(e):
    spec = named_ring(f"z{2**e}")
    # (2^23 - 1)^2 * 27 < 2^52 <= (2^24 - 1)^2 * 27
    assert _float_ok(spec.factors[0].layout, 27) == (e == 23)
    _check_products(spec, 27, e)


@pytest.mark.parametrize(
    "name, use_float",
    [
        ("f2t3", True),
        ("f3t3", True),
        # (p - 1)^2 * 27 < 2^52, but a slice of t^8 sums 8 * 27 products
        ("f8388593t8", False),
        # two unreduced slice products would pass 2^63
        ("f536870909t2", False),
    ],
)
def test_poly_products_match_the_exact_convolution(name, use_float):
    """The float path sums a slice's terms before one reduction, so its bound
    counts the slices; the int64 path reduces each term first."""
    spec = named_ring(name)
    assert _float_ok(spec.factors[0].layout, 27) == use_float
    _check_products(spec, 27, sum(map(ord, name)))
