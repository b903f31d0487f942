import numpy as np
import pytest

from chevalley.errors import DomainError, NonUnitError, SpecMismatchError
from chevalley.rings import Factor, Ideal, RingElem, RingSpec, named_ring


def test_zmod_splits_into_prime_powers():
    spec = RingSpec.zmod(12)
    kinds = [(f.kind, f.p, f.k) for f in spec.factors]
    assert kinds == [("zmod", 2, 2), ("zmod", 3, 1)]
    assert spec.size == 12


def test_modular_addition():
    spec = RingSpec.zmod(12)
    assert spec.el(7) + spec.el(8) == spec.el(3)


def test_zero_absorbs():
    spec = RingSpec.zmod(12)
    for x in spec.elements():
        assert spec.zero * x == spec.zero


def test_poly_quotient_relation():
    spec = RingSpec.poly(2, 2)
    t = spec.from_parts([(0, 1)])
    assert t * t == spec.zero


def test_unit_and_inverse_in_z12():
    spec = RingSpec.zmod(12)
    five = spec.el(5)
    assert five.is_unit()
    assert five.inv() == five
    assert five * five.inv() == spec.one
    two = spec.el(2)
    assert not two.is_unit()
    with pytest.raises(NonUnitError):
        two.inv()


def test_poly_inverse():
    spec = RingSpec.poly(3, 2)
    x = spec.from_parts([(1, 1)])  # 1 + t
    assert x.is_unit()
    assert x.inv() == spec.from_parts([(1, -1)])
    assert x * x.inv() == spec.one


def test_integers_invert_only_units():
    spec = RingSpec.integers()
    assert spec.el(-1).inv() == spec.el(-1)
    with pytest.raises(NonUnitError):
        spec.el(2).inv()


def test_spec_mismatch_raises():
    a = RingSpec.zmod(4).el(1)
    b = RingSpec.zmod(8).el(1)
    with pytest.raises(SpecMismatchError):
        a + b


def test_ideal_from_single_generator_in_z12():
    spec = RingSpec.zmod(12)
    ideal = Ideal.from_elems(spec, [spec.el(8)])
    # 8 has valuation 2 at the prime 2 and is a unit at 3
    assert ideal == Ideal(spec, (2, 0))
    gen = ideal.generator()
    assert gen == spec.el(4)


def test_ideal_product_in_z12():
    spec = RingSpec.zmod(12)
    two = Ideal.from_elems(spec, [spec.el(2)])
    three = Ideal.from_elems(spec, [spec.el(3)])
    assert (two * three).generator() == spec.el(6)


@pytest.mark.parametrize("name", ["z4", "z12", "f2t2", "f3t2"])
def test_ideal_products_come_from_the_spec_table(name):
    """Every product of two ideals equals the ideal of the product of their
    generators, and a repeated product is the one instance kept in the
    spec's table."""
    spec = named_ring(name)
    parts = [()]
    for f in spec.factors:
        parts = [p + (j,) for p in parts for j in range(f.k + 1)]
    ideals = [Ideal(spec, p) for p in parts]
    first = {(a, b): a * b for a in ideals for b in ideals}
    assert len(spec.ideal_products) == len(ideals) ** 2
    for (a, b), product in first.items():
        assert product == Ideal.from_elems(spec, [a.generator() * b.generator()])
        assert a * b is product
        assert Ideal(spec, a.parts) * Ideal(spec, b.parts) is product
        assert a.square() is a * a


def test_integer_ideal_products_are_not_tabled():
    spec = RingSpec.integers()
    four, six = Ideal(spec, (4,)), Ideal(spec, (6,))
    assert spec.ideal_products is None
    assert four * six == Ideal(spec, (24,)) and four * six is not four * six


@pytest.mark.parametrize("name", ["z4", "z12", "f2t2", "f3t2"])
def test_ideal_containment_comes_from_the_spec_table(name):
    """a <= b exactly when every element of a lies in b; each pair is
    decided once and kept in the spec's table.  Over Z there is no table."""
    spec = named_ring(name)
    parts = [()]
    for f in spec.factors:
        parts = [p + (j,) for p in parts for j in range(f.k + 1)]
    ideals = [Ideal(spec, p) for p in parts]
    for a in ideals:
        for b in ideals:
            assert (a <= b) == b.contains(a) == all(x in b for x in a.elements())
    assert len(spec.ideal_containments) == len(ideals) ** 2
    integers = RingSpec.integers()
    assert integers.ideal_containments is None
    assert Ideal(integers, (4,)) <= Ideal(integers, (2,)) and not Ideal(integers, (2,)) <= Ideal(integers, (4,))


def test_intersection_square_in_z4():
    spec = RingSpec.zmod(4)
    two = Ideal.from_elems(spec, [spec.el(2)])
    zero = Ideal.zero(spec)
    assert ((two & zero) * (two & zero)).is_zero()


def test_quotient_map_examples():
    z4 = RingSpec.zmod(4)
    two = Ideal.from_elems(z4, [z4.el(2)])
    image = two.reduce_elem(z4.el(3))
    assert image.spec.size == 2
    assert image == image.spec.el(1)

    zero = Ideal.zero(z4)
    assert zero.reduce_elem(z4.el(3)).parts == z4.el(3).parts

    unit = Ideal.unit(z4)
    q = unit.quotient_spec()
    assert q.size == 1
    assert unit.reduce_elem(z4.el(3)) == q.zero == q.one


@pytest.mark.parametrize(
    "spec",
    [RingSpec.zmod(12), RingSpec.poly(2, 3), RingSpec((Factor("zmod", 2, 2), Factor("poly", 3, 2)))],
)
def test_every_ideal_reached_from_its_generator(spec):
    from itertools import product

    ranges = [range(f.k + 1) for f in spec.factors]
    for parts in product(*ranges):
        ideal = Ideal(spec, parts)
        assert Ideal.from_elems(spec, [ideal.generator()]) == ideal


@pytest.mark.parametrize("n, j", [(12, 2), (8, 2), (9, 3)])
def test_quotient_map_is_a_ring_homomorphism(n, j):
    spec = RingSpec.zmod(n)
    ideal = Ideal.from_elems(spec, [spec.el(j)])
    elements = list(spec.elements())
    for x in elements:
        for y in elements:
            assert ideal.reduce_elem(x + y) == ideal.reduce_elem(x) + ideal.reduce_elem(y)
            assert ideal.reduce_elem(x * y) == ideal.reduce_elem(x) * ideal.reduce_elem(y)


def test_ideal_containments():
    from itertools import product

    spec = RingSpec((Factor("zmod", 2, 3), Factor("zmod", 3, 1)))
    ideals = [Ideal(spec, parts) for parts in product(range(4), range(2))]
    for i in ideals:
        assert i.contains(i.square())
        for j in ideals:
            assert (i * j).contains(((i & j) * (i & j)))


def test_ideal_element_membership():
    spec = RingSpec.zmod(8)
    ideal = Ideal.from_elems(spec, [spec.el(4)])
    assert spec.el(4) in ideal
    assert spec.el(0) in ideal
    assert spec.el(2) not in ideal
    assert list(v.parts[0] for v in ideal.elements()) == [0, 4]


def test_integer_ideal_arithmetic():
    spec = RingSpec.integers()
    four = Ideal.from_elems(spec, [spec.el(4)])
    six = Ideal.from_elems(spec, [spec.el(6)])
    assert (four + six) == Ideal.from_elems(spec, [spec.el(2)])
    assert (four & six) == Ideal.from_elems(spec, [spec.el(12)])
    assert (four * six) == Ideal.from_elems(spec, [spec.el(24)])
    assert spec.el(8) in four
    assert spec.el(2) not in four
    q = four.quotient_spec()
    assert q.size == 4


def test_named_rings():
    assert named_ring("z8").describe() == "Z/8"
    assert named_ring("f2t2").describe() == "F2[t]/(t^2)"
    assert named_ring("int").describe() == "Z"
    with pytest.raises(DomainError):
        named_ring("bogus")


def test_serialization_roundtrip():
    spec = RingSpec((Factor("zmod", 2, 2), Factor("poly", 3, 2)))
    assert RingSpec.from_json(spec.to_json()) == spec
    x = spec.from_parts([3, (1, 2)])
    assert RingElem.from_json(spec, x.to_json()) == x
    ideal = Ideal(spec, (1, 1))
    assert Ideal.from_json(spec, ideal.to_json()) == ideal


def test_ring_and_ideal_json_refuse_non_integers():
    for factor in ({"kind": "zmod", "p": 2.5, "k": 2}, {"kind": "zmod", "p": "3", "k": 1}, {"kind": "zmod", "p": 3, "k": True}):
        with pytest.raises(DomainError):
            RingSpec.from_json({"factors": [factor]})
    for p, k in ((2.5, 2), (np.int64(2), 2.0), (3, True)):
        with pytest.raises(DomainError):
            Factor("zmod", p, k)
    assert Factor("zmod", np.int64(2), np.int64(2)).p.__class__ is int
    z4 = named_ring("z4")
    for bad in ([1.7], ["1"], [True]):
        with pytest.raises(DomainError):
            Ideal.from_json(z4, bad)
    with pytest.raises(DomainError):
        RingElem.from_json(z4, [True])


def test_ideal_parts_must_be_integers():
    z4 = named_ring("z4")
    for bad in ((True,), (1.5,), ("1",), (np.float64(1.0),)):
        with pytest.raises(DomainError):
            Ideal(z4, bad)
    ideal = Ideal(z4, (np.int64(1),))
    assert ideal == Ideal(z4, (1,)) and type(ideal.parts[0]) is int
    assert ideal.to_json() == [1]


def test_ideal_needs_one_part_per_factor():
    # z12 has two factors; one part would leave the factor Z/3 unnamed
    z12 = named_ring("z12")
    for parts in ([1], [1, 0, 0], []):
        with pytest.raises(DomainError):
            Ideal.from_json(z12, parts)
    with pytest.raises(DomainError):
        Ideal(named_ring("int"), (2, 3))


def test_integer_factor_takes_no_p_or_k():
    for p, k in ((5, 3), (2, 0), (0, 1)):
        with pytest.raises(DomainError):
            Factor("int", p, k)
    with pytest.raises(DomainError):
        RingSpec.from_json({"factors": [{"kind": "int", "p": 5, "k": 3}]})
    assert RingSpec((Factor("int"),)) == RingSpec.integers()


def test_ideal_from_elems_reads_an_iterator_once():
    z12 = named_ring("z12")
    two = [z12.el(2)]
    assert Ideal.from_elems(z12, iter(two)) == Ideal.from_elems(z12, two) == Ideal(z12, (1, 0))
    z = named_ring("int")
    assert Ideal.from_elems(z, (z.el(v) for v in (-4, 6))) == Ideal(z, (2,))


@pytest.mark.parametrize("name", ["z4", "z12", "f2t2", "int"])
def test_zero_and_unit_ideals_are_one_instance_per_spec(name):
    spec = named_ring(name)
    zero, unit = Ideal.zero(spec), Ideal.unit(spec)
    assert Ideal.zero(spec) is zero and Ideal.unit(spec) is unit
    assert zero.is_zero() and not zero.is_unit_ideal()
    assert unit.is_unit_ideal() and not unit.is_zero()
    assert Ideal(spec, zero.parts).is_zero() and Ideal(spec, unit.parts).is_unit_ideal()
    nonunits = (v for v in spec.elements() if not v.is_zero() and not v.is_unit()) if spec.is_finite else iter([spec.el(2)])
    proper = Ideal.from_elems(spec, [next(nonunits)])
    assert not proper.is_zero() and not proper.is_unit_ideal()
