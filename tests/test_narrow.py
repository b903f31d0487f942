"""Narrow blocks: the dtype rule of ``matrices._dtype`` and the kernels on
each side of it, against plain-Python references over coefficient tuples.

For s = 1, 2 and 3 the specs are the largest moduli whose blocks are int8
(Z/8, and Z/7 whose wrap-around does not vanish mod c; F_5[t]/(t^2) and
F_5[t]/(t^3)) and the smallest ones whose blocks are int64 (Z/9,
F_7[t]/(t^2), F_7[t]/(t^3)).  Entries that are all c - 1 make every slice
sum as large as it gets, so a sum narrowed before it is reduced, or an int8
matmul, gives a wrong residue mod 5 or 7."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from chevalley import matrices
from chevalley.forms import QuadraticForm
from chevalley.matrices import RMat, RVec, _dtype, mat_col, mat_row, pattern_images, signed_gather
from chevalley.rep import representation
from chevalley.rings import Ideal, RingSpec, named_ring
from chevalley.rng import SplitMix64

NARROW = ["z7", "z8", "f5t2", "f5t3"]
WIDE = ["z9", "f7t2", "f7t3"]
SIDES = NARROW + WIDE


def test_the_rule_splits_where_a_line_move_leaves_int8():
    for name in NARROW:
        assert _dtype(named_ring(name).factors[0].layout) is np.int8, name
    for name in WIDE:
        assert _dtype(named_ring(name).factors[0].layout) is np.int64, name
    assert _dtype(named_ring("f2t63").factors[0].layout) is np.int8
    assert _dtype(named_ring("f2t64").factors[0].layout) is np.int64
    assert _dtype(RingSpec.integers().factors[0].layout) is object
    # (c - 1)(1 + 2 s (c - 1)) against 2^7 at the edges
    assert 7 * (1 + 2 * 7) < 128 <= 8 * (1 + 2 * 8)
    assert 4 * (1 + 2 * 3 * 4) < 128 <= 6 * (1 + 2 * 2 * 6)


# -- plain-Python reference: an entry is a tuple of s coefficients mod c --------------


def _layout(spec):
    return spec.factors[0].layout


def _red(x, c):
    """x mod c; over the integers (c = 0), x itself."""
    return x % c if c else x


def _mul(x, y, c):
    return tuple(_red(sum(x[i] * y[t - i] for i in range(t + 1)), c) for t in range(len(x)))


def _add(x, y, c):
    return tuple(_red(a + b, c) for a, b in zip(x, y))


def _scale(k, x, c):
    return tuple(_red(k * a, c) for a in x)


def _matmul(a, b, c):
    """a @ b, skipping the zero entries of a (the factors are sparse)."""
    s = len(a[0][0])
    zero = (0,) * s
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for k, x in enumerate(row):
            if any(x):
                acc = [_add(y, _mul(x, z, c), c) for y, z in zip(acc, b[k])]
        out.append(acc)
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _identity(n, s):
    one, zero = (1,) + (0,) * (s - 1), (0,) * s
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _entries(m):
    """A matrix block, or a vector block as one column, as nested tuples."""
    blk = m.blocks[0]
    if blk.ndim == 2:
        return [[tuple(col)] for col in blk.T.tolist()]
    return [[tuple(blk[:, i, j].tolist()) for j in range(blk.shape[2])] for i in range(blk.shape[1])]


def _inverse(x, spec):
    s, c = _layout(spec)
    if not c:
        return x  # the units of Z are +-1
    one = (1,) + (0,) * (s - 1)
    return next(u for u in _elements(s, c) if _mul(x, u, c) == one)


def _elements(s, c):
    out = [()]
    for _ in range(s):
        out = [e + (v,) for e in out for v in range(c)]
    return out


def _el(spec, x):
    s, c = _layout(spec)
    return spec.from_parts([x if s > 1 else x[0]])


def _random_blocks(spec, shape, rng, full=False):
    s, c = _layout(spec)
    if full:
        return np.full((s,) + shape, c - 1, dtype=_dtype((s, c)))
    return rng.integers(0, c, (s,) + shape).astype(_dtype((s, c)))


def _root_matrix(pattern, v, n, c):
    s = len(v)
    out = _identity(n, s)
    for src, dst, sign in zip(*(a.tolist() for a in pattern)):
        out[dst][src] = _scale(sign, v, c)
    return out


def _factor_matrix(rep, kind, alpha, v):
    """x, w and h from their definitions as products of root elements."""
    s, c = _layout(rep.ring)
    n = rep.n
    neg = tuple(-x for x in alpha)
    if kind == "x":
        return _root_matrix(rep.pattern(alpha), v, n, c)
    if kind == "w":
        inv = _scale(-1, _inverse(v, rep.ring), c)
        x = _root_matrix(rep.pattern(alpha), v, n, c)
        return _matmul(_matmul(x, _root_matrix(rep.pattern(neg), inv, n, c), c), x, c)
    minus_one = _scale(-1, (1,) + (0,) * (s - 1), c)
    return _matmul(_factor_matrix(rep, "w", alpha, v), _factor_matrix(rep, "w", alpha, minus_one), c)


def _unit(spec, rng):
    s, c = _layout(spec)
    while True:
        v = tuple(int(x) for x in rng.integers(0, c, s))
        if np.gcd(v[0], c) == 1:
            return v


@pytest.mark.parametrize("name", SIDES)
def test_moves_match_the_factor_matrices(name):
    """x, w and h moves, on rows and columns of a matrix and on a vector from
    either side, against the products of root elements that define them."""
    spec = named_ring(name)
    s, c = _layout(spec)
    rep = representation("b", None, spec)
    n = rep.n
    rng = np.random.default_rng(sum(map(ord, name)))
    for trial, kind in enumerate(["x", "w", "h", "x", "w", "h"]):
        alpha = rep.case.phi[int(rng.integers(len(rep.case.phi)))]
        v = _unit(spec, rng) if kind != "x" else tuple(int(x) for x in rng.integers(0, c, s))
        a = RMat(spec, n, [_random_blocks(spec, (n, n), rng, full=trial >= 3)])
        vec = RVec(spec, n, [_random_blocks(spec, (n,), rng, full=trial >= 3)])
        _check_moves(rep, kind, alpha, v, a, vec)


def _check_moves(rep, kind, alpha, v, a, vec):
    """The factor's move on rows and columns of a matrix and on a vector
    from either side, against its matrix built from root elements."""
    s, c = _layout(rep.ring)
    g, ref_a, ref_v = _factor_matrix(rep, kind, alpha, v), _entries(a), _entries(vec)
    move = rep.tables.move(kind, alpha)
    left, right, vleft, vright = a.copy(), a.copy(), vec.copy(), vec.copy()
    left.apply_x_left(move, _el(rep.ring, v))
    right.apply_x_right(move, _el(rep.ring, v))
    vleft.apply_x_left(move, _el(rep.ring, v))
    vright.apply_x_right(move, _el(rep.ring, v))
    assert _entries(left) == _matmul(g, ref_a, c), (kind, alpha, v)
    assert _entries(right) == _transpose(_matmul(_transpose(g), _transpose(ref_a), c)), (kind, alpha, v)
    assert _entries(vleft) == _matmul(g, ref_v, c), (kind, alpha, v)
    assert _entries(vright) == _matmul(_transpose(g), ref_v, c), (kind, alpha, v)
    for m in (left, right, vleft, vright):
        assert m.blocks[0].dtype == _dtype((s, c))


@pytest.mark.parametrize("name", ["f2t6", "f3t4", "f7t3", "z9", "int"])
def test_moves_with_many_slices_match_the_factor_matrices(name):
    """The line kernel moves every slice at once: x moves by t and t^2
    (slice 0 zero), by a value whose slice 0 is zero and whose higher slices
    are not, and by one with every slice nonzero; w and h moves, whose
    targets are also sources, by units with nonzero higher slices.  A
    source stack scaled by slice 0 before the higher slices read it, or a
    target written before it is read, gives a wrong entry here.  Over Z
    (object blocks) the values are exact integers and the units +-1."""
    spec = named_ring(name)
    s, c = _layout(spec)
    rep = representation("b", None, spec)
    n = rep.n
    rng = np.random.default_rng(8 + sum(map(ord, name)))
    if c:
        nonzero = lambda: int(rng.integers(1, c))
        blocks = lambda shape, full: _random_blocks(spec, shape, rng, full)
    else:
        nonzero = lambda: int(rng.choice([-1, 1]) * rng.integers(2, 10**6))
        blocks = lambda shape, full: rng.integers(-(10**6), 10**6, (s,) + shape).astype(object)
    if s > 1:
        rest = lambda: tuple(nonzero() for _ in range(s - 1))
        # t, t^2, a value whose slice 0 alone is zero, and one whose slice 0
        # is c - 1, not 1, so that scaling the sources by it shows
        xs = [tuple(int(i == k) for i in range(s)) for k in (1, 2)] + [(0,) + rest(), (c - 1,) + rest()]
        units = [_unit(spec, rng)[:1] + rest() for _ in range(2)]
    else:
        xs = [(nonzero(),), (nonzero(),)]
        units = [(1,), (_red(-1, c),), (2,)] if c else [(1,), (-1,)]
    for full, alpha in zip((False, True), rep.case.phi[5::30]):
        a = RMat(spec, n, [blocks((n, n), full)])
        vec = RVec(spec, n, [blocks((n,), full)])
        for v in xs:
            _check_moves(rep, "x", alpha, v, a, vec)
        for v in units:
            _check_moves(rep, "w", alpha, v, a, vec)
            _check_moves(rep, "h", alpha, v, a, vec)


@pytest.mark.parametrize("name", SIDES)
def test_products_and_sums_match_the_reference(name):
    spec = named_ring(name)
    s, c = _layout(spec)
    n = 27
    rng = np.random.default_rng(1 + sum(map(ord, name)))
    for full in (False, True):
        a = RMat(spec, n, [_random_blocks(spec, (n, n), rng, full)])
        b = RMat(spec, n, [_random_blocks(spec, (n, n), rng)])
        ref_a, ref_b = _entries(a), _entries(b)
        assert _entries(a * b) == _matmul(ref_a, ref_b, c)
        assert _entries(a * a) == _matmul(ref_a, ref_a, c)
        assert _entries(a + b) == [[_add(x, y, c) for x, y in zip(r, t)] for r, t in zip(ref_a, ref_b)]
        minus = [[_add(x, _scale(-1, y, c), c) for x, y in zip(r, t)] for r, t in zip(ref_a, ref_b)]
        assert _entries(a - b) == minus


@pytest.mark.parametrize("name", ["z8", "z7", "f5t2", "f5t3"])
def test_mul_vec_at_the_largest_dimension(name):
    """n = 512 over the largest int8 moduli: every slice sum of a
    matrix-vector product passes int8.  The product is ``pattern_images``
    of one atom with value zero, which leaves the vector as it is."""
    spec = named_ring(name)
    s, c = _layout(spec)
    n = 512
    rng = np.random.default_rng(2 + sum(map(ord, name)))
    one = np.array([0]), np.array([1]), np.array([1], dtype=np.int8), np.array([0])
    for full in (True, False):
        a = RMat(spec, n, [_random_blocks(spec, (n, n), rng, full)])
        v = RVec(spec, n, [_random_blocks(spec, (n,), rng, full)])
        got = pattern_images(a, v, one, [spec.zero])
        assert got.blocks[0].dtype == np.int8
        rows, col = a.blocks[0].transpose(1, 2, 0).tolist(), v.blocks[0].T.tolist()
        expected = []
        for row in rows:
            acc = [0] * s
            for x, y in zip(row, col):
                for t in range(s):
                    for i in range(t + 1):
                        acc[t] += x[i] * y[t - i]
            expected.append([tuple(z % c for z in acc)])
        assert _entries(got) == expected


@pytest.mark.parametrize("name", SIDES)
def test_inverses_of_group_elements(name):
    """``inv`` (field elimination, then Newton steps) of a word's matrix of
    case b, and of a product L U whose lower factor has every coefficient
    c - 1, is a two-sided inverse by the reference product."""
    spec = named_ring(name)
    s, c = _layout(spec)
    rep = representation("b", None, spec)
    n = rep.n
    rng = np.random.default_rng(3 + sum(map(ord, name)))
    atoms = []
    for _ in range(12):
        alpha = rep.case.phi[int(rng.integers(len(rep.case.phi)))]
        kind = ["x", "w", "h"][int(rng.integers(3))]
        atoms.append((kind, alpha, _el(spec, _unit(spec, rng))))
    g = rep.element_from_word(atoms).mat
    full = _random_blocks(spec, (n, n), rng, full=True)
    lower = np.tril(full, -1)
    upper = np.triu(_random_blocks(spec, (n, n), rng), 1)
    lower[0] += np.identity(n, dtype=lower.dtype)
    upper[0] += np.identity(n, dtype=upper.dtype)
    lu = RMat(spec, n, [lower]) * RMat(spec, n, [upper])
    ident = _identity(n, s)
    for m in (g, lu):
        inv = m.inv()
        assert inv.blocks[0].dtype == _dtype((s, c))
        assert _matmul(_entries(m), _entries(inv), c) == ident
        assert _matmul(_entries(inv), _entries(m), c) == ident


@pytest.mark.parametrize("name", SIDES)
def test_adjoint_inverts_words_of_a_second_type_case(name):
    spec = named_ring(name)
    s, c = _layout(spec)
    rep = representation("a", 6, spec)
    rng = np.random.default_rng(4 + sum(map(ord, name)))
    atoms = []
    for _ in range(10):
        alpha = rep.case.phi[int(rng.integers(len(rep.case.phi)))]
        atoms.append(("x", alpha, _el(spec, tuple(int(x) for x in rng.integers(0, c, s)))))
    g = rep.element_from_word(atoms).mat
    adj = rep.adjoint(g)
    assert adj.blocks[0].dtype == _dtype((s, c))
    ident = _identity(rep.n, s)
    assert _matmul(_entries(g), _entries(adj), c) == ident
    index, signs = rep.tables.adjoint
    ref = _entries(g)
    flat = [x for row in ref for x in row]
    gathered = [_scale(int(k), flat[int(i)], c) for i, k in zip(index, signs)]
    assert [x for row in _entries(adj) for x in row] == gathered


@pytest.mark.parametrize("name", SIDES)
def test_reduce_matches_the_reference(name):
    spec = named_ring(name)
    s, c = _layout(spec)
    f = spec.factors[0]
    n = 9
    rng = np.random.default_rng(5 + sum(map(ord, name)))
    m = RMat(spec, n, [_random_blocks(spec, (n, n), rng)])
    ref = _entries(m)
    for j in range(f.k + 1):
        q = m.reduce(Ideal(spec, (j,)))
        qs, qc = _layout(q.spec)
        assert q.blocks[0].dtype == _dtype((qs, qc))
        # the first qs slices mod the quotient's c (Z/1 at j = 0)
        assert _entries(q) == [[tuple(y % qc for y in x[:qs]) for x in row] for row in ref]


def _random_pattern(rng, n):
    order = rng.permutation(n)
    k = 1 + int(rng.integers(n // 2))
    return order[:k], order[k : 2 * k], rng.choice([-1, 1], k).astype(np.int8)


@pytest.mark.parametrize("name", SIDES)
def test_pattern_images_match_the_reference(name):
    spec = named_ring(name)
    s, c = _layout(spec)
    n = 27
    rng = np.random.default_rng(6 + sum(map(ord, name)))
    for full in (False, True):
        a = RMat(spec, n, [_random_blocks(spec, (n, n), rng, full)])
        v = RVec(spec, n, [_random_blocks(spec, (n,), rng, full)])
        patterns = [_random_pattern(rng, n) for _ in range(4)]
        values = [tuple(int(x) for x in rng.integers(0, c, s)) for _ in patterns]
        owner = np.repeat(np.arange(len(patterns)), [len(p[0]) for p in patterns])
        table = tuple(np.concatenate(parts) for parts in zip(*patterns)) + (owner,)
        got = pattern_images(a, v, table, [_el(spec, x) for x in values])
        assert got.blocks[0].dtype == _dtype((s, c))
        columns = _transpose(_entries(got))
        for k, (pattern, xi) in enumerate(zip(patterns, values)):
            x = _root_matrix(pattern, xi, n, c)
            expected = _matmul(_matmul(_entries(a), x, c), _entries(v), c)
            assert [[y] for y in columns[k]] == expected


@pytest.mark.parametrize("name", SIDES)
def test_evaluate_matches_the_reference(name):
    spec = named_ring(name)
    s, c = _layout(spec)
    rep = representation("b", None, spec)
    n = rep.n
    rng = np.random.default_rng(7 + sum(map(ord, name)))
    pairs = sorted({tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(60)})
    coeffs = tuple((i, j, int(rng.integers(-9, 10))) for i, j in pairs)
    form = QuadraticForm(wm=rep.wm, coeffs=coeffs)
    for full in (False, True):
        v = RVec(spec, n, [_random_blocks(spec, (n,), rng, full)])
        ref = [x[0] for x in _entries(v)]
        total = (0,) * s
        for i, j, k in coeffs:
            total = _add(total, _scale(k, _mul(ref[i], ref[j], c), c), c)
        assert form.evaluate(v, spec) == _el(spec, total)


# -- every constructor reads the rule ------------------------------------------------


LAYOUT_SPECS = ["z4", "z8", "z9", "z12", "f2t2", "f5t3", "f7t2", "int"]


@pytest.mark.parametrize("name", LAYOUT_SPECS)
def test_every_block_constructor_returns_the_rule_dtype(name):
    spec = named_ring(name)
    n = 6
    rng = SplitMix64(sum(map(ord, name)))

    def check(m, over=spec):
        assert [blk.dtype for blk in m.blocks] == [np.dtype(_dtype(f.layout)) for f in over.factors]

    a = RMat.identity(spec, n)
    for i in range(n):
        for j in range(n):
            if i < j or not spec.is_finite and i != j:
                a.set_entry(i, j, spec.el(rng.randrange(7) - 3))
    check(RMat.zeros(spec, n))
    check(a)
    check(RVec.zeros(spec, n))
    check(RVec.basis(spec, n, 2))
    check(a * a)
    check(a + a)
    check(a - a)
    check(a.transpose())
    check(a.copy())
    check(mat_col(a, 1))
    check(mat_row(a, 1))
    check(RMat.from_json(spec, a.to_json()))
    check(signed_gather(a, np.arange(n * n)[::-1], np.ones(n * n, dtype=np.int8)))
    if spec.is_finite:
        check(a.inv())
    else:
        check(RMat.identity(spec, n).inv())
    parts = [(0,), (8,), (9,), (12,)] if not spec.is_finite else [()]
    for f in spec.factors if spec.is_finite else ():
        parts = [p + (j,) for p in parts for j in range(f.k + 1)]
    for part in parts:
        q = a.reduce(Ideal(spec, part))
        check(q, q.spec)
    rep = representation("a", 6, spec)
    g = rep.element_from_word([("x", rep.case.phi[0], spec.el(1)), ("w", rep.case.phi[3], spec.el(-1))])
    check(g.mat)
    if spec.is_finite:
        check(rep.adjoint(g.mat))
    if name == "int":
        assert all(blk.dtype == object for blk in g.mat.blocks)


def test_block_dtypes_come_from_the_rule_alone():
    """In ``matrices`` only ``_dtype`` names a block dtype; a workspace (the
    ``_workspace`` function and its calls) names its own.  No ``astype``: a
    kernel builds its arrays in the block dtype instead of casting."""
    path = Path(matrices.__file__)
    tree = ast.parse(path.read_text(), str(path))
    exempt = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef) and node.name in ("_dtype", "_workspace")) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_workspace"
        ):
            exempt |= {id(sub) for sub in ast.walk(node)}
    dtype_names = re.compile(r"u?int(8|16|32|64)?|float(16|32|64)?|intp|object_|byte|short|longlong|double")
    offenders = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            if dtype_names.fullmatch(node.attr):
                offenders.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Name) and node.id == "object":
            offenders.append(f"line {node.lineno}: object")
        elif isinstance(node, ast.Attribute) and node.attr == "astype":
            offenders.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and isinstance(node.value, ast.Constant):
            offenders.append(f"line {node.lineno}: dtype={node.value.value!r}")
    assert not offenders, offenders
