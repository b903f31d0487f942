"""Ring scalars against a plain-Python reference.  A reference residue is a
Python integer mod p^k, or the coefficient tuple of an element of
F_p[t]/(t^k) with a schoolbook product truncated at t^k; a unit's inverse is
found by search.  Every element pair of each small ring is checked (a sampled
range over Z): sums, differences, negation, products, units and inverses, the
ideal generated by a pair, and the members of every ideal."""

from itertools import product
from math import gcd

import pytest

from chevalley.errors import DomainError, NonUnitError
from chevalley.rings import Factor, Ideal, RingSpec, named_ring

# name: (spec, its factors as ("zmod" | "poly", p, k))
RINGS = {
    "z8": (named_ring("z8"), [("zmod", 2, 3)]),
    "z9": (named_ring("z9"), [("zmod", 3, 2)]),
    "z12": (named_ring("z12"), [("zmod", 2, 2), ("zmod", 3, 1)]),
    "f2t3": (named_ring("f2t3"), [("poly", 2, 3)]),
    "f3t2": (named_ring("f3t2"), [("poly", 3, 2)]),
    "f5t1": (named_ring("f5t1"), [("poly", 5, 1)]),
    "z4xf3t2": (RingSpec((Factor("zmod", 2, 2), Factor("poly", 3, 2))), [("zmod", 2, 2), ("poly", 3, 2)]),
    # Z/12 / (4) = Z/4 x Z/1: a zero-ring factor
    "z12/(4)": (Ideal(named_ring("z12"), (2, 0)).quotient_spec(), [("zmod", 2, 2), ("zmod", 3, 0)]),
}

INTEGERS = list(range(-12, 13)) + [2**70, -(3**45)]


def _residues(f):
    kind, p, k = f
    return list(range(p**k)) if kind == "zmod" else list(product(range(p), repeat=k))


def _add(f, a, b):
    kind, p, k = f
    return (a + b) % p**k if kind == "zmod" else tuple((x + y) % p for x, y in zip(a, b))


def _neg(f, a):
    kind, p, k = f
    return -a % p**k if kind == "zmod" else tuple(-x % p for x in a)


def _mul(f, a, b):
    kind, p, k = f
    if kind == "zmod":
        return a * b % p**k
    out = [0] * k
    for i in range(k):
        for j in range(k - i):
            out[i + j] += a[i] * b[j]
    return tuple(c % p for c in out)


def _one(f):
    kind, p, k = f
    return 1 % p**k if kind == "zmod" else (1,) + (0,) * (k - 1)


def _inverse(f, a):
    found = [b for b in _residues(f) if _mul(f, a, b) == _one(f)]
    return found[0] if found else None


def _in_ideal(f, j, a):
    """a lies in (p^j) of Z/p^k, or in (t^j) of F_p[t]/(t^k)."""
    kind, p, k = f
    return a % p**j == 0 if kind == "zmod" else not any(a[:j])


def _generated(f, residues):
    """The exponent of the least ideal holding every residue."""
    return max(j for j in range(f[2] + 1) if all(_in_ideal(f, j, a) for a in residues))


@pytest.fixture(params=list(RINGS), scope="module")
def ring(request):
    spec, factors = RINGS[request.param]
    assert [(f.kind, f.p, f.k) for f in spec.factors] == factors
    refs = list(product(*map(_residues, factors)))
    return spec, factors, refs, [spec.from_parts(r) for r in refs]


def test_elements_in_order(ring):
    spec, _, refs, _ = ring
    assert [x.parts for x in spec.elements()] == refs
    assert spec.size == len(refs)


def test_arithmetic_of_every_pair(ring):
    spec, factors, refs, elems = ring
    for a, x in zip(refs, elems):
        assert (-x).parts == tuple(_neg(f, u) for f, u in zip(factors, a))
        for b, y in zip(refs, elems):
            assert (x + y).parts == tuple(_add(f, u, v) for f, u, v in zip(factors, a, b))
            assert (x - y).parts == tuple(_add(f, u, _neg(f, v)) for f, u, v in zip(factors, a, b))
            assert (x * y).parts == tuple(_mul(f, u, v) for f, u, v in zip(factors, a, b))


def test_units_and_inverses(ring):
    spec, factors, refs, elems = ring
    for a, x in zip(refs, elems):
        inverse = tuple(_inverse(f, u) for f, u in zip(factors, a))
        assert x.is_unit() == (None not in inverse)
        if None in inverse:
            with pytest.raises(NonUnitError):
                x.inv()
        else:
            assert x.inv().parts == inverse


def test_ideal_members_and_generated_ideals(ring):
    spec, factors, refs, elems = ring
    for parts in product(*(range(f[2] + 1) for f in factors)):
        ideal = Ideal(spec, parts)
        members = [a for a in refs if all(_in_ideal(f, j, u) for f, j, u in zip(factors, parts, a))]
        assert [x.parts for x in ideal.elements()] == members
        assert [a for a, x in zip(refs, elems) if x in ideal] == members
    assert Ideal.from_elems(spec, []).parts == tuple(f[2] for f in factors)
    for a, x in zip(refs, elems):
        for b, y in zip(refs, elems):
            expect = tuple(_generated(f, (u, v)) for f, u, v in zip(factors, a, b))
            assert Ideal.from_elems(spec, [x, y]).parts == expect


def test_integers_on_a_sampled_range():
    spec = named_ring("int")
    elems = [spec.el(a) for a in INTEGERS]
    for a, x in zip(INTEGERS, elems):
        assert (-x).parts == (-a,)
        assert x.is_unit() == (a in (1, -1))
        if a in (1, -1):
            assert x.inv().parts == (a,)
        else:
            with pytest.raises(NonUnitError):
                x.inv()
        for b, y in zip(INTEGERS, elems):
            assert (x + y).parts == (a + b,)
            assert (x - y).parts == (a - b,)
            assert (x * y).parts == (a * b,)
            assert Ideal.from_elems(spec, [x, y]).parts == (gcd(a, b),)
    for m in range(9):
        ideal = Ideal(spec, (m,))
        assert [x in ideal for x in elems] == [(a % m == 0 if m else a == 0) for a in INTEGERS]
        with pytest.raises(DomainError):
            next(ideal.elements())


def test_ideal_elements_enumerate_only_the_ideal():
    # (2^19) of Z/2^20 has two elements; filtering the ring would visit 2^20
    spec = named_ring("z1048576")
    assert [x.parts for x in Ideal(spec, (19,)).elements()] == [(0,), (2**19,)]
    spec = named_ring("f2t20")
    assert [x.parts for x in Ideal(spec, (19,)).elements()] == [((0,) * 20,), ((0,) * 19 + (1,),)]


def _least(members, holding):
    """The ideal with the fewest members among those holding every residue
    of ``holding``: the ideal the residues generate."""
    return min((i for i in members if members[i] >= holding), key=lambda i: len(members[i]))


def _reduced(f, j, a):
    """A residue of a chain factor in its quotient by (pi^j): a mod p^j, or
    the first j coefficients (the zero ring Z/1 once j = 0)."""
    kind, p, _ = f
    return a % p**j if kind == "zmod" else tuple(a[:j]) if j else 0


def _pi_power(f, j):
    """pi^j in a chain factor: p^j mod p^k, or the coefficients of t^j."""
    kind, p, k = f
    return p**j % p**k if kind == "zmod" else tuple(int(i == j) for i in range(k))


def _quotient_factor(f, j):
    kind, p, _ = f
    return (kind, p, j) if kind == "zmod" or j else ("zmod", p, 0)


def test_ideal_lattice_generators_and_quotients_against_member_sets(ring):
    """Sums, products, intersections, containment, generators and quotient
    maps of every pair of ideals, each against the set of its members."""
    spec, factors, refs, elems = ring
    members = {}
    for parts in product(*(range(f[2] + 1) for f in factors)):
        members[Ideal(spec, parts)] = frozenset(
            a for a in refs if all(_in_ideal(f, j, u) for f, j, u in zip(factors, parts, a))
        )
    for i, mi in members.items():
        g = i.generator()
        assert g.parts == tuple(map(_pi_power, factors, i.parts))
        assert frozenset(tuple(map(_mul, factors, g.parts, r)) for r in refs) == mi
        q = i.quotient_spec()
        assert [(f.kind, f.p, f.k) for f in q.factors] == [_quotient_factor(f, j) for f, j in zip(factors, i.parts)]
        for a, x in zip(refs, elems):
            image = i.reduce_elem(x)
            assert image.spec == q
            assert image.parts == tuple(_reduced(f, j, u) for f, j, u in zip(factors, i.parts, a))
        for j, mj in members.items():
            assert i + j == _least(members, frozenset(tuple(map(_add, factors, a, b)) for a in mi for b in mj))
            assert i * j == _least(members, frozenset(tuple(map(_mul, factors, a, b)) for a in mi for b in mj))
            assert members[i & j] == mi & mj
            assert (i <= j) == (mi <= mj)
            image = {tuple(_reduced(f, e, u) for f, e, u in zip(factors, i.parts, b)) for b in mj}
            assert {x.parts for x in i.reduce_ideal(j).elements()} == image


def _prime_powers(m):
    """The prime powers p^k exactly dividing m >= 2, found by trial."""
    return [p ** max(k for k in range(m.bit_length()) if m % p**k == 0)
            for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]


def test_integer_ideal_lattice_generators_and_quotients_against_member_sets():
    """As above over Z for the ideals (m), m in 0..12, with member sets taken
    on a window that holds every generator the operations reach (at most
    12 * 12), so that containment on the window is containment in Z."""
    spec = named_ring("int")
    window = range(-300, 301)
    members = {Ideal(spec, (m,)): frozenset(x for x in window if (x % m == 0 if m else x == 0)) for m in range(145)}
    small = [Ideal(spec, (m,)) for m in range(13)]
    for i in small:
        m = i.parts[0]
        g = i.generator()
        assert g.parts == (m,)
        assert frozenset(g.parts[0] * r for r in window) & members[Ideal.unit(spec)] == members[i]
        q = i.quotient_spec()
        moduli = [0] if m == 0 else [1] if m == 1 else _prime_powers(m)
        assert [f.layout[1] for f in q.factors] == moduli
        for x in range(-30, 31):
            image = i.reduce_elem(spec.el(x))
            assert image.spec == q
            assert image.parts == tuple(x % c if c else x for c in moduli)
        for j in small:
            mi, mj = members[i], members[j]
            near = [(a, b) for a in mi for b in mj if abs(a) <= 12 and abs(b) <= 12]
            assert i + j == _least(members, frozenset(a + b for a, b in near))
            assert i * j == _least(members, frozenset(a * b for a, b in near))
            assert members[i & j] == mi & mj
            assert (i <= j) == (mi <= mj)
            reduced = i.reduce_ideal(j)
            if m:
                image = {i.reduce_elem(spec.el(b)).parts for b in mj if abs(b) <= m * 12}
                assert {x.parts for x in reduced.elements()} == image
            else:
                assert reduced == j
