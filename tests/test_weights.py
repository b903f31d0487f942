import re
from collections import deque

import pytest

from chevalley.errors import DomainError
from chevalley.roots import build_case
from chevalley.weights import build_weights, default_module, pairing_wr, sigma_split

CASES = [("a", 5), ("a", 6), ("b", None), ("c", None)]

EXPECTED = {
    ("a", 5): (16, (1, 10, 5), "first"),
    ("a", 6): (32, (1, 15, 15, 1), "second"),
    ("b", None): (27, (1, 16, 10), "first"),
    ("c", None): (56, (1, 27, 27, 1), "second"),
}


@pytest.mark.parametrize("tag,l", CASES)
def test_dimensions_and_components(tag, l):
    wm = default_module(tag, l)
    dim, comps, kind = EXPECTED[(tag, l)]
    assert wm.dim == dim
    assert wm.component_sizes() == comps
    assert wm.kind == kind
    assert wm.components[0] == (wm.lam0,)


def test_second_type_bottom_component():
    for tag, l in (("a", 6), ("c", None)):
        wm = default_module(tag, l)
        assert wm.components[-1] == (wm.minus(wm.lam0),)
        for lam in wm.weights:
            assert tuple(-x for x in lam) in wm.weight_set


def test_top_weight_does_not_shift_up():
    wm = default_module("b")
    assert wm.shift(wm.lam0, wm.case.alpha1) is None


def test_top_weight_shifts_down_by_upper_orbit():
    for tag, l in CASES:
        wm = default_module(tag, l)
        for alpha in wm.case.omega_plus:
            assert wm.shift(wm.lam0, tuple(-x for x in alpha)) is not None


def test_shift_roundtrip():
    wm = default_module("b")
    case = wm.case
    for lam in wm.weights:
        for alpha in case.phi[:20]:
            down = wm.shift(lam, tuple(-x for x in alpha))
            if down is not None:
                assert wm.shift(down, alpha) == lam


def test_distance_basics():
    wm = default_module("c")
    for lam in wm.weights[:10]:
        assert wm.distance(lam, lam) == 0
    for lam in wm.weights[:10]:
        for mu in wm.weights[:10]:
            if lam != mu:
                is_root = wm.root_between(lam, mu) is not None
                assert (wm.distance(lam, mu) == 1) == is_root


def _bfs_distances(wm):
    """Reference distances: a breadth-first search from every weight over the
    edges of the weight graph."""
    nbrs = [[wm.idx(mu) for mu in wm.neighbors(lam)] for lam in wm.weights]
    rows = []
    for start in range(wm.dim):
        dist = [-1] * wm.dim
        dist[start] = 0
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        rows.append(dist)
    return rows


@pytest.mark.parametrize("tag,l", [("b", None), ("c", None)] + [("a", l) for l in range(5, 11)])
def test_gram_distances_match_the_graph_search(tag, l):
    wm = default_module(tag, l)
    assert wm.distances.tolist() == _bfs_distances(wm)
    lam, mu = wm.weights[0], wm.weights[-1]
    assert type(wm.distance(lam, mu)) is int


@pytest.mark.parametrize("tag,l", [("b", None), ("c", None)] + [("a", l) for l in range(5, 11)])
def test_neighbors_follow_the_definition(tag, l):
    """neighbors(lam) lists lam - alpha for the roots alpha of Phi, in
    ``case.phi`` order, that give a weight."""
    wm = default_module(tag, l)
    funds = [wm.case.root_fund_coords(alpha) for alpha in wm.case.phi]
    for lam in wm.weights:
        shifted = (tuple(x - y for x, y in zip(lam, fund)) for fund in funds)
        assert wm.neighbors(lam) == tuple(mu for mu in shifted if mu in wm.weight_set)


def test_a_non_weight_raises_domain_error():
    wm = default_module("b")
    bad = (9,) * 6
    lookups = [
        wm.idx,
        wm.component_of,
        wm.neighbors,
        lambda lam: wm.distance(lam, wm.lam0),
        lambda lam: wm.distance(wm.lam0, lam),
    ]
    for lookup in lookups:
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            lookup(bad)
    lam = wm.weights[5]
    assert wm.idx(lam) == 5 and wm.component_of(lam) == 1 and wm.distance(lam, lam) == 0


def test_case_c_diameter():
    wm = default_module("c")
    assert wm.distance(wm.lam0, wm.minus(wm.lam0)) == 3


@pytest.mark.parametrize("tag,l", CASES)
def test_component_neighbours_exhaustive(tag, l):
    wm = default_module(tag, l)
    for lam1 in wm.lambda1:
        mu = wm.neighbor_in_component(lam1)
        assert wm.component_of(mu) == 1 and wm.distance(lam1, mu) == 1
        for nu in wm.lambda1:
            if wm.distance(lam1, nu) == 1:
                tri = wm.neighbor_in_component(lam1, nu)
                assert tri not in (lam1, nu)
                assert wm.distance(tri, lam1) == 1 and wm.distance(tri, nu) == 1


def test_component_neighbour_preconditions():
    wm = default_module("b")
    with pytest.raises(DomainError):
        wm.neighbor_in_component(wm.lam0)
    lam1 = wm.lambda1[0]
    far = next(nu for nu in wm.lambda1 if wm.distance(lam1, nu) > 1)
    with pytest.raises(DomainError):
        wm.neighbor_in_component(lam1, far)


@pytest.mark.parametrize("tag,l", CASES)
def test_sigma_split_structure(tag, l):
    wm = default_module(tag, l)
    case = wm.case
    for lam1 in wm.lambda1:
        split = sigma_split(wm, lam1)
        assert split.minus == (wm.root_between(lam1, wm.lam0),)
        assert split.zero
        assert set(split.plus) <= set(case.omega_plus)
        assert set(split.zero) <= set(case.delta)
        for alpha in split.all_roots:
            assert wm.shift(lam1, tuple(-x for x in alpha)) is not None


def test_sigma_split_middle_size_matches_inner_orbit():
    wm = default_module("b")
    case = wm.case
    analog = sum(1 for r in case.delta if r[case.alpha2_index] == 1)
    for lam1 in wm.lambda1:
        assert len(sigma_split(wm, lam1).zero) == analog


def test_sigma_split_rejects_other_components():
    wm = default_module("b")
    with pytest.raises(DomainError):
        sigma_split(wm, wm.lam0)


def test_weyl_word_to_top():
    wm = default_module("c")
    for lam in wm.weights[::7]:
        word = wm.simple_word_to_top(lam)
        cur = lam
        for i in reversed(word):
            cur = wm.reflect(cur, wm.case.simple_roots[i])
        assert cur == wm.lam0


def test_weight_root_pairing_is_minuscule():
    wm = default_module("c")
    for lam in wm.weights:
        for alpha in wm.case.phi[:40]:
            assert pairing_wr(lam, alpha) in (-1, 0, 1)


def test_canonical_order_starts_at_top():
    for tag, l in CASES:
        case = build_case(tag, l)
        wm = build_weights(case)
        assert wm.weights[0] == wm.lam0
        # component order refines the weight order
        for i in range(len(wm.components) - 1):
            assert all(wm.component_of(w) == i for w in wm.components[i])


def test_cases_and_modules_are_keyed_by_identity():
    assert build_case("c") is build_case("c", 7) is build_case("c", None)
    wm = build_weights(build_case("c"))
    assert build_weights(build_case("c")) is wm
    assert default_module("c") is wm
    # the hash is the object's identity, not a hash over every weight
    assert hash(wm) == object.__hash__(wm)
    assert hash(wm.case) == object.__hash__(wm.case)
    assert wm.weight_set is wm.weight_set
