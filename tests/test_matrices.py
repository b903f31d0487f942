import numpy as np
import pytest

from chevalley import matrices
from chevalley.errors import DomainError, NonUnitError, UnsupportedCaseError
from chevalley.matrices import RMat, RVec, _float_ok, _inv_mod_p, mat_col, mat_row, signed_entries
from chevalley.rings import Factor, Ideal, RingElem, RingSpec, named_ring
from chevalley.rng import SplitMix64


def _random_invertible(spec, n, rng):
    # product of elementary row operations is always invertible
    m = RMat.identity(spec, n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = RMat.identity(spec, n)
        e.set_entry(j, i, spec.el(rng.randrange(5) - 2))
        m = m * e
    return m


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec.zmod(8),
        RingSpec.zmod(12),
        RingSpec.poly(2, 2),
        RingSpec((Factor("zmod", 2, 2), Factor("poly", 3, 2))),
    ],
)
def test_inverse_roundtrip(spec):
    rng = SplitMix64(5)
    n = 6
    for _ in range(10):
        m = _random_invertible(spec, n, rng)
        inv = m.inv()
        assert (m * inv).is_identity()
        assert (inv * m).is_identity()


# a prime with (p - 1)^2 * 27 above 2^52 and below 2^63: at n = 27 its
# products leave the float64 path for the int64 one
BIG_P = 134217757


def _random_lu(spec, n, rng):
    """L U with L unit lower and U unit upper triangular, every coefficient
    slice random: invertible, with all slices in play."""
    lower, upper = [], []
    for f in spec.factors:
        s, c = f.layout
        draw = lambda: np.array([[[rng.randrange(c) for _ in range(n)] for _ in range(n)] for _ in range(s)])
        lo, up = np.tril(draw(), -1), np.triu(draw(), 1)
        lo[0] += np.identity(n, dtype=np.int64)
        up[0] += np.identity(n, dtype=np.int64)
        lower.append(lo)
        upper.append(up)
    return RMat(spec, n, lower) * RMat(spec, n, upper)


def _slice_inverse(m):
    """The inverse slice by slice, in exact Python integers: x_0 inverts the
    constant slice by the row loop (mod p^k over Z/p^k, mod p over
    F_p[t]/(t^k)), and slice t of a x = e gives x_t = -x_0 (a_1 x_(t-1) +
    ... + a_t x_0) mod p.  A zero-ring factor's block is zero."""
    blocks = []
    for f, blk in zip(m.spec.factors, m.blocks):
        s, c = f.layout
        if c == 1:
            blocks.append(np.zeros_like(blk))
            continue
        a = blk.astype(object)
        x = [_inv_zmod_reference(blk[0], f.p, f.k if s == 1 else 1, m.n).astype(object)]
        for t in range(1, s):
            acc = sum(a[i] @ x[t - i] for i in range(1, t + 1))
            x.append(-(x[0] @ acc) % c)
        blocks.append(np.array(x, dtype=np.int64))
    return blocks


# F_2[t]/(t^5) x Z/1: the quotient of F_2[t]/(t^5) x Z/9 by (0, 1), with a
# zero-ring factor
ZERO_RING_SPEC = Ideal(RingSpec((Factor("poly", 2, 5), Factor("zmod", 3, 2))), (5, 0)).quotient_spec()


@pytest.mark.parametrize(
    "spec,use_float",
    [
        (RingSpec.poly(2, 2), True),
        (RingSpec.poly(3, 3), True),
        (RingSpec.poly(2, 4), True),
        (RingSpec((Factor("poly", 2, 2), Factor("zmod", 3, 2), Factor("poly", 5, 3))), True),
        (RingSpec.poly(BIG_P, 2), False),
        (RingSpec.poly(BIG_P, 3), False),
        (RingSpec((Factor("poly", BIG_P, 2), Factor("zmod", 2, 3))), False),
        (RingSpec.poly(2, 5), True),
        (ZERO_RING_SPEC, True),
    ],
    ids=str,
)
def test_slice_inverse_matches_the_newton_lift(spec, use_float):
    """The Newton lift of ``inv`` gives the inverse that the slice recursion
    gives, with its products in float64 and in int64 (``BIG_P``); k = 4 and
    k = 5 take 2 and 3 Newton steps."""
    n = 27
    poly = next(f for f in spec.factors if f.kind == "poly")
    assert _float_ok(poly.layout, n) == use_float
    rng = SplitMix64(11)
    for _ in range(3):
        m = _random_lu(spec, n, rng)
        inv = m.inv()
        assert all(np.array_equal(a, b) for a, b in zip(inv.blocks, _slice_inverse(m)))
        assert (m * inv).is_identity() and (inv * m).is_identity()
    # a constant slice with a zero row is singular over F_p, whatever the
    # higher slices hold
    for blk in m.blocks:
        blk[0, 4] = 0
    with pytest.raises(NonUnitError):
        m.inv()


def test_non_invertible_raises():
    spec = RingSpec.zmod(4)
    m = RMat.identity(spec, 3)
    m.set_entry(0, 0, spec.el(2))
    with pytest.raises(NonUnitError):
        m.inv()


def test_integer_inverse_unsupported():
    spec = RingSpec.integers()
    m = RMat.identity(spec, 3)
    assert m.inv().is_identity()
    m.set_entry(0, 1, spec.el(1))
    with pytest.raises(UnsupportedCaseError):
        m.inv()


@pytest.mark.parametrize("name", ["z4", "z12", "f2t2", "int", "z4-zero"])
def test_is_identity_reads_every_slice_and_factor(name):
    # z4-zero: Z/4 x Z/1, whose second factor is the zero ring
    spec = Ideal(named_ring("z12"), (2, 0)).quotient_spec() if name == "z4-zero" else named_ring(name)
    assert RMat.identity(spec, 4).is_identity()
    assert not RMat.zeros(spec, 4).is_identity()
    t = spec.from_parts([(0, 1)]) if name == "f2t2" else None
    changes = [(1, 2, spec.el(1)), (2, 2, spec.el(0))]
    if t is None:
        changes.append((3, 3, spec.el(3)))
    else:
        changes += [(0, 0, spec.one + t), (0, 3, t)]
    if name == "z12":
        changes.append((1, 1, spec.el(4)))  # one in the Z/3 factor only
    for i, j, x in changes:
        m = RMat.identity(spec, 4)
        m.set_entry(i, j, x)
        assert not m.is_identity(), (i, j, x)


def test_entry_roundtrip_multi_factor():
    spec = RingSpec((Factor("zmod", 2, 3), Factor("poly", 3, 2)))
    m = RMat.zeros(spec, 2)
    x = spec.from_parts([5, (2, 1)])
    m.set_entry(0, 1, x)
    assert m.entry(0, 1) == x
    assert m.entry(1, 0) == spec.zero


def test_unreduced_entries_are_reduced_when_set():
    z4 = named_ring("z4")
    big = RingElem(z4, (2**30 + 1,))  # built directly, so not reduced
    m = RMat.identity(z4, 3)
    m.set_entry(0, 1, big)
    m.set_entry(1, 2, big)
    assert m.entry(0, 1) == z4.el(1)
    assert (m * m).entry(0, 2) == z4.el(1)
    f2t2 = named_ring("f2t2")
    v = RVec.zeros(f2t2, 2)
    v.set_entry(0, RingElem(f2t2, ((3, -1),)))
    assert v.entry(0) == f2t2.from_parts([(1, 1)])
    for bad in (RingElem(z4, (1.5,)), RingElem(z4, (True,)), RingElem(f2t2, ((1,),))):
        with pytest.raises(DomainError):
            m.set_entry(0, 0, bad)


def test_reduce_matrix():
    spec = RingSpec.zmod(8)
    ideal = Ideal.from_elems(spec, [spec.el(2)])
    m = RMat.identity(spec, 2)
    m.set_entry(0, 1, spec.el(6))
    q = m.reduce(ideal)
    assert q.spec.size == 2
    assert q.entry(0, 1) == q.spec.zero
    m.set_entry(0, 1, spec.el(5))
    assert m.reduce(ideal).entry(0, 1) == q.spec.one


def test_reduce_integers_to_modular():
    spec = RingSpec.integers()
    ideal = Ideal.from_elems(spec, [spec.el(6)])
    m = RMat.identity(spec, 2)
    m.set_entry(1, 0, spec.el(10))
    q = m.reduce(ideal)
    assert q.spec.size == 6
    assert q.entry(1, 0) == q.spec.el(10)
    assert q.entry(1, 0) == q.spec.el(4)


def test_matvec_and_slices():
    spec = RingSpec.zmod(9)
    m = RMat.identity(spec, 3)
    m.set_entry(0, 2, spec.el(4))
    assert mat_col(m, 2).entry(0) == spec.el(4)
    assert mat_row(m, 0).entry(2) == spec.el(4)


def test_json_roundtrip():
    spec = RingSpec((Factor("zmod", 2, 2), Factor("poly", 3, 2)))
    rng = SplitMix64(9)
    m = _random_invertible(spec, 4, rng)
    assert RMat.from_json(spec, m.to_json()) == m


def _inv_zmod_reference(a, p, k, n):
    """Gauss-Jordan mod p^k one row at a time: the same pivot rule (first unit
    on or below the diagonal) with a scalar loop over the rows."""
    m = p**k
    work = a.astype(np.int64) % m
    out = np.eye(n, dtype=np.int64)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r, col] % p != 0), None)
        if piv is None:
            raise NonUnitError("no unit pivot")
        work[[col, piv]] = work[[piv, col]]
        out[[col, piv]] = out[[piv, col]]
        inv_piv = pow(int(work[col, col]), -1, m)
        work[col] = (work[col] * inv_piv) % m
        out[col] = (out[col] * inv_piv) % m
        for r in range(n):
            if r != col and work[r, col] != 0:
                factor = int(work[r, col])
                work[r] = (work[r] - factor * work[col]) % m
                out[r] = (out[r] - factor * out[col]) % m
    return out


def _modular_slices(p, k, n, rng):
    """Invertible, random and singular n x n arrays mod p^k."""
    m = p**k
    spec = RingSpec((Factor("zmod", p, k),))
    out = []
    for _ in range(6):
        out.append(_random_invertible(spec, n, rng).blocks[0][0])
        out.append(np.array([[rng.randrange(m) for _ in range(n)] for _ in range(n)], dtype=np.int64))
        dup = _random_invertible(spec, n, rng).blocks[0][0].copy()
        dup[rng.randrange(n)] = (p * dup[rng.randrange(n)]) % m
        out.append(dup)
    return out


def _inverse_mod(a, p, k):
    """At k = 1 the field elimination alone; else ``RMat.inv`` over Z/p^k,
    the elimination mod p and its Newton steps."""
    if k == 1:
        out = np.empty_like(a)
        _inv_mod_p(a, p, out)
        return out
    m = RMat.zeros(RingSpec.zmod(p**k), len(a))
    m.blocks[0][0] = a
    return m.inv().blocks[0][0]


@pytest.mark.parametrize(
    "p,k",
    # k = 1: the field elimination that every factor runs on its constant
    # slice; k = 2..5: Z/p^k, with 1, 2, 2 and 3 Newton steps (Z/243 has
    # coefficients wider than the elimination's int8 workspace)
    [(2, 2), (2, 3), (3, 1), (3, 2), (2, 1), (5, 1), (2, 4), (2, 5), (3, 5)],
    ids=["z4", "z8", "z12-factor3-and-f3t3-slice", "z9", "f2t2-slice", "f5-slice", "z16", "z32", "z243"],
)
def test_vectorized_elimination_matches_the_row_loop(p, k):
    rng = SplitMix64(100 * p + k)
    singular = 0
    for n in (1, 5, 9):
        for a in _modular_slices(p, k, n, rng):
            try:
                expected = _inv_zmod_reference(a, p, k, n)
            except NonUnitError:
                singular += 1
                with pytest.raises(NonUnitError):
                    _inverse_mod(a, p, k)
                continue
            assert np.array_equal(_inverse_mod(a, p, k), expected)
    assert singular > 0


@pytest.mark.parametrize("name", ["z4", "z12", "f2t2", "int"])
def test_signed_entries_match_boxed_entries(name):
    spec = named_ring(name)
    rng = SplitMix64(7)
    n = 8
    m = RMat.zeros(spec, n)
    pool = list(spec.elements()) if spec.is_finite else [spec.el(v) for v in range(-3, 4)]
    for i in range(n):
        for j in range(n):
            if rng.randrange(3):
                m.set_entry(i, j, pool[rng.randrange(len(pool))])
    idx = np.array([5, 0, 3, 7, 2], dtype=np.intp)
    signs = np.array([1, -1, -1, 1, -1], dtype=np.int64)
    for line, entry in ((mat_row(m, 4), lambda j: m.entry(4, j)), (mat_col(m, 6), lambda i: m.entry(i, 6))):
        got = signed_entries(line, idx, signs)
        for pos, c, val in zip(idx, signs, got):
            ref = entry(int(pos)) if c > 0 else -entry(int(pos))
            assert val == (None if ref.is_zero() else ref)


def _workspace_buffers():
    return [buf for buf in matrices._scratch.__dict__.values() if isinstance(buf, np.ndarray)]


@pytest.mark.parametrize("name", ["z4", "f2t2", "f3t3"])
def test_float_products_and_inverses_never_alias_the_workspace(name):
    """Consecutive float products and inverses return fresh blocks: they
    share no memory with each other or with the thread's workspace."""
    spec = named_ring(name)
    rng = SplitMix64(len(name))
    mats = [_random_invertible(spec, 12, rng) for _ in range(4)]
    assert all(_float_ok(f.layout, 12) for f in spec.factors)
    results = [mats[0] * mats[1], mats[2] * mats[3], mats[0].inv(), mats[1].inv()]
    blocks = [blk for m in results for blk in m.blocks]
    buffers = _workspace_buffers()
    assert buffers
    for i, blk in enumerate(blocks):
        assert not any(np.shares_memory(blk, buf) for buf in buffers)
        assert not any(np.shares_memory(blk, other) for other in blocks[i + 1 :])
    assert results[0] == mats[0] * mats[1] and results[1] == mats[2] * mats[3]
    assert (mats[0] * results[2]).is_identity() and (results[3] * mats[1]).is_identity()


def test_concurrent_products_equal_the_serial_results():
    """Each thread has its own workspace: products and inverses computed in
    four threads at once, switching often, equal the serial results."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    jobs = []
    for name, n in (("f2t2", 40), ("z4", 40), ("f3t3", 24)):
        spec = named_ring(name)
        rng = SplitMix64(n + len(name))
        jobs += [(_random_invertible(spec, n, rng), _random_invertible(spec, n, rng)) for _ in range(3)]

    def work(pair):
        a, b = pair
        return [a * b, b * a, a.inv(), (a * b).inv()]

    serial = [work(pair) for pair in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                assert list(pool.map(work, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)
