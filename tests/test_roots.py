import pytest

from chevalley.errors import DomainError
from chevalley.roots import build_case, height, orbit_decomposition, partner_root, weyl_orbit

CASES = [("a", 5), ("a", 6), ("b", None), ("c", None)]
ALL_CASES = [("a", l) for l in range(5, 11)] + [("b", None), ("c", None)]

# root counts by exhaustive enumeration: |Phi| = 2l(l-1) for case a
EXPECTED = {
    ("a", 5): (40, 20, 10),
    ("a", 6): (60, 30, 15),
    ("b", None): (72, 40, 16),
    ("c", None): (126, 72, 27),
}


@pytest.mark.parametrize("tag,l", CASES)
def test_counts(tag, l):
    case = build_case(tag, l)
    phi, delta, omega = EXPECTED[(tag, l)]
    assert len(case.phi) == phi
    assert len(case.delta) == delta
    assert len(case.omega_plus) == len(case.omega_minus) == omega


@pytest.mark.parametrize("tag,l", CASES)
def test_root_system_closure(tag, l):
    case = build_case(tag, l)
    roots = set(case.phi)
    for alpha in case.phi:
        assert tuple(-x for x in alpha) in roots
        assert case.pairing(alpha, alpha) == 2
        for beta in case.delta[:10]:
            assert case.reflect(alpha, beta) in roots


@pytest.mark.parametrize("tag,l", CASES)
def test_max_root_coefficients(tag, l):
    case = build_case(tag, l)
    assert case.max_root[case.alpha1_index] == 1
    assert case.max_root[case.alpha2_index] == 2
    # maximal in the height order
    assert all(height(r) <= height(case.max_root) for r in case.phi)


def test_rank_bounds():
    with pytest.raises(DomainError):
        build_case("a", 4)
    with pytest.raises(DomainError):
        build_case("a", 11)
    with pytest.raises(DomainError):
        build_case("b", 7)
    with pytest.raises(DomainError):
        build_case("z")


def test_crossed_and_neighbour_are_adjacent():
    for tag, l in CASES:
        case = build_case(tag, l)
        assert case.cartan[case.alpha1_index][case.alpha2_index] == -1


def test_case_c_sum_of_marked_roots_is_a_root():
    case = build_case("c")
    assert case.root_add(case.alpha1, case.alpha2) is not None


def test_self_reflection():
    case = build_case("b")
    assert case.reflect(case.alpha1, case.alpha1) == tuple(-x for x in case.alpha1)


def test_sum_membership_matches_pairing():
    case = build_case("b")
    for alpha in case.phi[:30]:
        for beta in case.phi[:30]:
            if alpha == beta or alpha == tuple(-x for x in beta):
                continue
            s = case.root_add(alpha, beta)
            if case.pairing(alpha, beta) == -1:
                assert s is not None
            else:
                assert s is None


@pytest.mark.parametrize("tag,l", CASES)
def test_two_orbits_outside(tag, l):
    case = build_case(tag, l)
    outside = [r for r in case.phi if r not in set(case.delta)]
    orbits = orbit_decomposition(case, outside, case.delta)
    assert {frozenset(o) for o in orbits} == {
        frozenset(case.omega_plus),
        frozenset(case.omega_minus),
    }


def test_trivial_orbit():
    case = build_case("b")
    assert weyl_orbit(case, case.alpha1, []) == frozenset({case.alpha1})


def test_partner_of_crossed_root():
    for tag, l in CASES:
        case = build_case(tag, l)
        # the neighbour works for the crossed root and its negative
        assert case.root_add(case.alpha1, case.alpha2) is not None
        neg1 = tuple(-x for x in case.alpha1)
        neg2 = tuple(-x for x in case.alpha2)
        assert case.root_add(neg1, neg2) is not None
        alpha = partner_root(case, case.alpha1)
        assert alpha in set(case.delta)
        assert case.root_add(alpha, case.alpha1) is not None


def test_partner_of_max_root_scans_negatives():
    case = build_case("c")
    alpha = partner_root(case, case.max_root)
    assert case.root_add(alpha, case.max_root) is not None
    assert case.pairing(case.max_root, tuple(-x for x in alpha)) == 1


def test_partner_requires_outside_root():
    case = build_case("b")
    with pytest.raises(DomainError):
        partner_root(case, case.alpha2)


def test_subsystem_component_structures():
    # the doubly crossed subsystem and its distinguished component
    sizes = {
        ("a", 5): (8, 6),  # A_2 x A_1 with the A_2 part kept
        ("b", None): (20, 20),  # A_4
        ("c", None): (40, 40),  # D_5
    }
    for (tag, l), (dp, dpp) in sizes.items():
        case = build_case(tag, l)
        assert len(case.delta_prime) == dp
        assert len(case.delta_dprime) == dpp


# -- the tables against a plain-Python reference -------------------------------------


def _reference_pairing(cartan, alpha, beta) -> int:
    """The Cartan pairing as a double sum over the Cartan matrix."""
    return sum(x * sum(cartan[i][j] * y for j, y in enumerate(beta)) for i, x in enumerate(alpha))


@pytest.mark.parametrize("tag,l", ALL_CASES)
def test_tables_match_the_plain_reference(tag, l):
    """``fund`` is the Cartan image, ``pairings`` the double sum,
    ``reflections`` alpha - (alpha, beta) beta on tuples, and ``root_add``
    the tuple sum when it is a root, for every pair of roots."""
    case = build_case(tag, l)
    cartan, phi, roots = case.cartan, case.phi, set(case.phi)
    for i, alpha in enumerate(phi):
        image = tuple(sum(cartan[k][j] * alpha[j] for j in range(case.l)) for k in range(case.l))
        assert tuple(case.fund[i].tolist()) == image == case.root_fund_coords(alpha)
        for j, beta in enumerate(phi):
            p = _reference_pairing(cartan, alpha, beta)
            assert case.pairings[i, j] == p == case.pairing(alpha, beta)
            reflected = tuple(a - p * b for a, b in zip(alpha, beta))
            assert phi[case.reflections[i, j]] == reflected == case.reflect(alpha, beta)
            s = tuple(a + b for a, b in zip(alpha, beta))
            assert case.root_add(alpha, beta) == (s if s in roots else None)


@pytest.mark.parametrize("tag,l", ALL_CASES)
def test_root_arithmetic_refuses_a_non_root(tag, l):
    case = build_case(tag, l)
    alpha = case.max_root
    # a list is unhashable: refused like the tuples, never a TypeError
    for bad in ((0,) * case.l, tuple(2 * x for x in alpha), alpha[1:], alpha + (0,), list(alpha)):
        assert not case.is_root(bad)
        for op in (case.pairing, case.reflect, case.root_add):
            with pytest.raises(DomainError):
                op(bad, alpha)
            with pytest.raises(DomainError):
                op(alpha, bad)
        with pytest.raises(DomainError):
            case.root_fund_coords(bad)
        with pytest.raises(DomainError):
            weyl_orbit(case, bad, case.delta)
