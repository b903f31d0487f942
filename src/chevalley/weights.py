"""Weights of the basic minuscule module and their combinatorics.

Weights are stored in fundamental-weight coordinates, so that the pairing of a
weight with a root is a plain dot product against the root's simple-root
coefficients, and adding a root means adding its Cartan-matrix image.

The weight set is the full Weyl orbit of the fundamental weight dual to the
crossed vertex.  Cutting the diagram edges labelled by the crossed simple root
breaks the diagram into totally ordered components; their index equals the
crossed-root coefficient of (top weight - weight) in the root lattice.

The weight graph joins two weights that differ by a root.  Its distance is
d(lam, mu) = q - (lam, mu) for the form with (alpha, alpha) = 2, where
q = (lam, lam) is common to the orbit; in fundamental-weight coordinates the
form is C^-1, kept as the integer matrix den * C^-1.  This is exact for a
minuscule module: an edge changes the pairing with lam by (lam, alpha) in
{-1, 0, 1}, so d >= q - (lam, mu); and the nonzero root-lattice vector
lam - mu pairs to 2 with some root alpha (no minuscule weight lies in the root
lattice), so mu + alpha is a weight one step closer to lam.

The weights are found and ordered with arrays: the orbit spreads by all
simple reflections of a frontier at once, and every depth (top - lam in
simple-root coordinates) is one integer product with den * C^-1, the matrix
the distances use too.  The shift table holds, for each root, the weights it
shifts and their images as index arrays, found by one sorted-key lookup; the
root patterns of ``rep_tables`` and the neighbour lists are read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .roots import EmbeddingCase, Root, _fraction_rref, _irreducible_components, build_case, height

Weight = tuple[int, ...]


def pairing_wr(lam: Weight, alpha: Root) -> int:
    """Pairing of a weight (fundamental coordinates) with a root (simple-root
    coordinates)."""
    return sum(x * y for x, y in zip(lam, alpha))


@dataclass(frozen=True, eq=False)
class WeightModule:
    """The weights of the basic module of one embedding case.

    Modules compare and hash by identity, so that the tables cached per module
    are keyed without hashing every weight.  Build them only through
    ``build_weights``, which returns one object per case.
    """

    case: EmbeddingCase
    weights: tuple[Weight, ...]  # canonical order, highest weight first
    lam0: Weight
    components: tuple[tuple[Weight, ...], ...]
    kind: str  # "first" or "second"

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def index(self) -> dict:
        return _index_of(self)

    @cached_property
    def weight_set(self) -> frozenset:
        return frozenset(self.weights)

    @cached_property
    def distances(self) -> np.ndarray:
        """Weight-graph distances by the Gram formula, indexed like weights."""
        den, gram = _gram(self.case)
        w = np.array(self.weights, dtype=np.int64)
        num = (w @ gram) @ w.T
        num = num[0, 0] - num  # weights[0] is the top weight
        if num.diagonal().any() or (num % den).any():
            raise InternalConsistencyError("weights do not share one norm in the root lattice")
        return num // den

    def component_of(self, lam: Weight) -> int:
        try:
            return _component_map_of(self)[lam]
        except KeyError:
            raise _not_a_weight(self, lam) from None

    def idx(self, lam: Weight) -> int:
        try:
            return self.index[lam]
        except KeyError:
            raise _not_a_weight(self, lam) from None

    # -- shifts and distance -------------------------------------------------

    def shift(self, lam: Weight, alpha: Root) -> Weight | None:
        """lam + alpha when that is again a weight, else None."""
        fund = self.case.root_fund_coords(alpha)
        s = tuple(x + y for x, y in zip(lam, fund))
        return s if s in self.weight_set else None

    def distance(self, lam: Weight, mu: Weight) -> int:
        return int(self.distances[self.idx(lam), self.idx(mu)])

    def root_between(self, lam: Weight, mu: Weight) -> Root | None:
        """lam - mu as a root, when it is one."""
        return _fund_to_root_of(self).get(tuple(x - y for x, y in zip(lam, mu)))

    def neighbors(self, lam: Weight) -> tuple[Weight, ...]:
        """Weights at distance one in the weight graph."""
        try:
            return _neighbors_of(self)[lam]
        except KeyError:
            raise _not_a_weight(self, lam) from None

    def minus(self, lam: Weight) -> Weight:
        neg = tuple(-x for x in lam)
        if neg not in self.weight_set:
            raise DomainError("negated weight lies outside the module")
        return neg

    # -- component structure ---------------------------------------------------

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @property
    def lambda1(self) -> tuple[Weight, ...]:
        return self.components[1]

    def neighbor_in_component(self, lam1: Weight, nu: Weight | None = None) -> Weight:
        """A weight of the same component at distance one from lam1 (and from
        nu when given)."""
        comp = self.component_of(lam1)
        if comp != 1:
            # the statement is used for the first non-trivial component only
            raise DomainError("weight must lie in the first non-trivial component")
        if nu is not None:
            if self.component_of(nu) != 1 or self.distance(lam1, nu) != 1:
                raise DomainError("second weight must be a component neighbour of the first")
        for mu in self.neighbors(lam1):
            if self.component_of(mu) != comp:
                continue
            if nu is None or self.distance(mu, nu) == 1:
                return mu
        raise InternalConsistencyError("no in-component neighbour found")

    # -- Weyl words -------------------------------------------------------------

    def simple_word_to_top(self, lam: Weight) -> tuple[int, ...]:
        """Indices i_1, ..., i_m of simple reflections with
        w_{i_1} ... w_{i_m} (lam) = top weight, raising at every step."""
        word = []
        cur = lam
        guard = 4 * self.dim
        while cur != self.lam0:
            for i, alpha in enumerate(self.case.simple_roots):
                if pairing_wr(cur, alpha) == -1:
                    cur = self.reflect(cur, alpha)
                    word.append(i)
                    break
            else:
                raise InternalConsistencyError("stuck below the top weight")
            guard -= 1
            if guard < 0:
                raise InternalConsistencyError("raising loop did not terminate")
        return tuple(reversed(word))

    def reflect(self, lam: Weight, alpha: Root) -> Weight:
        """Image of a weight under the reflection in a root."""
        n = pairing_wr(lam, alpha)
        return tuple(x - n * y for x, y in zip(lam, self.case.root_fund_coords(alpha)))


def _not_a_weight(wm: WeightModule, lam) -> DomainError:
    return DomainError(f"{lam!r} is not a weight of {wm.case.describe()}")


@lru_cache(maxsize=None)
def _index_of(wm: WeightModule) -> dict:
    return {w: i for i, w in enumerate(wm.weights)}


@lru_cache(maxsize=None)
def _component_map_of(wm: WeightModule) -> dict:
    return {w: i for i, comp in enumerate(wm.components) for w in comp}


@lru_cache(maxsize=None)
def _fund_to_root_of(wm: WeightModule) -> dict:
    return {tuple(f): r for f, r in zip(wm.case.fund.tolist(), wm.case.phi)}


@lru_cache(maxsize=None)
def _gram(case: EmbeddingCase) -> tuple[int, np.ndarray]:
    """(den, den * C^-1): the form in fundamental-weight coordinates, and the
    map from them to simple-root coordinates, as one integer matrix."""
    l = case.l
    augmented = [list(row) + [int(i == k) for k in range(l)] for i, row in enumerate(case.cartan)]
    inv = [row[l:] for row in _fraction_rref(augmented)[0]]
    den = lcm(*(x.denominator for row in inv for x in row))
    return den, np.array([[int(x * den) for x in row] for row in inv], dtype=np.int64)


@lru_cache(maxsize=None)
def shift_table(wm: WeightModule) -> dict:
    """For each root of Phi, the index arrays (srcs, dsts) of the weights lam
    with lam + root again a weight and of those sums, srcs ascending.  A
    weight's key is its coordinates as digits in base ``base`` from ``low``,
    with room for a root on either side: key(lam + root) is key(lam) plus the
    root's offset, with no carry, so all sums are looked up at once."""
    case = wm.case
    table = np.array(wm.weights, dtype=np.int64)
    fund = case.fund
    pad = int(np.abs(fund).max())
    low, base = int(table.min()) - pad, int(table.max() - table.min()) + 2 * pad + 1
    if base**case.l >= 2**63:
        raise InternalConsistencyError("weight coordinates too wide for int64 keys")
    radix = base ** np.arange(case.l, dtype=np.int64)
    keys = (table - low) @ radix
    order = np.argsort(keys)
    sorted_keys = keys[order]
    moved_keys = keys + (fund @ radix)[:, None]  # (root, weight)
    pos = np.minimum(np.searchsorted(sorted_keys, moved_keys), wm.dim - 1)
    hits = sorted_keys[pos] == moved_keys
    return {r: (np.flatnonzero(hit), order[p[hit]]) for r, hit, p in zip(case.phi, hits, pos)}


@lru_cache(maxsize=None)
def _neighbors_of(wm: WeightModule) -> dict:
    """lam - alpha for alpha in ``case.phi`` order: the shift table of -alpha,
    concatenated in that order and stably sorted by source weight."""
    table = shift_table(wm)
    srcs, dsts = (np.concatenate(a) for a in zip(*(table[tuple(-x for x in r)] for r in wm.case.phi)))
    order = np.argsort(srcs, kind="stable")
    cuts = np.cumsum(np.bincount(srcs, minlength=wm.dim))[:-1]
    ws = wm.weights
    return {lam: tuple(ws[j] for j in part) for lam, part in zip(ws, np.split(dsts[order], cuts))}


@lru_cache(maxsize=None)
def build_weights(case: EmbeddingCase) -> WeightModule:
    """Weights of the basic module as the Weyl orbit of the top weight."""
    top = tuple(1 if i == case.alpha1_index else 0 for i in range(case.l))
    # the reflection in simple root i moves lam by -lam_i times that root
    simple = case.fund[[case.index[a] for a in case.simple_roots]]
    orbit = {top: None}
    frontier = [top]
    while frontier:
        f = np.array(frontier, dtype=np.int64)
        moved = (f[:, None, :] - f[:, :, None] * simple).reshape(-1, case.l)
        frontier = [mu for mu in dict.fromkeys(map(tuple, moved.tolist())) if mu not in orbit]
        orbit.update(dict.fromkeys(frontier))

    # depth data: top - lam in simple-root coordinates
    den, gram = _gram(case)
    num = (np.array(top) - np.array(list(orbit), dtype=np.int64)) @ gram.T
    if (num % den).any():
        raise InternalConsistencyError("weight differs from the top weight outside the root lattice")
    if (num < 0).any():
        raise InternalConsistencyError("weight above the top weight")
    depth = dict(zip(orbit, (num // den).tolist()))

    weights = sorted(orbit, key=lambda lam: (sum(depth[lam]), depth[lam]))
    if weights[0] != top:
        raise InternalConsistencyError("top weight is not minimal in the canonical order")

    # components: constant crossed-root coefficient of (top - lam)
    comp_key = [depth[lam][case.alpha1_index] for lam in weights]
    components = tuple(
        tuple(lam for lam, k in zip(weights, comp_key) if k == i) for i in range(max(comp_key) + 1)
    )
    if any(not c for c in components):
        raise InternalConsistencyError("empty diagram component")
    if components[0] != (top,):
        raise InternalConsistencyError("top component is not a singleton")

    singletons = sum(1 for c in components if len(c) == 1)
    bottom = components[-1]
    neg_top = tuple(-x for x in top)
    if len(bottom) == 1 and bottom[0] == neg_top:
        kind = "second"
        if singletons != 2:
            raise InternalConsistencyError("second-type module needs exactly two singletons")
    else:
        kind = "first"
        if singletons != 1:
            raise InternalConsistencyError("first-type module needs exactly one singleton")
    if kind != case.kind:
        raise InternalConsistencyError("module symmetry disagrees with the case parity rule")

    return WeightModule(case=case, weights=tuple(weights), lam0=top, components=components, kind=kind)


# -- shift-root decomposition ---------------------------------------------------


@dataclass(frozen=True)
class ShiftRootSplit:
    """Roots alpha with lam1 - alpha still a weight, split by orbit, together
    with the reflected subsystem through the connecting root."""

    lam1: Weight
    minus: tuple[Root, ...]  # the single root pointing up to the top weight
    zero: tuple[Root, ...]  # roots inside the subsystem
    plus: tuple[Root, ...]  # roots in the upper orbit
    reflected_delta: tuple[Root, ...]  # image of the subsystem under the connecting reflection
    overlap: tuple[Root, ...]  # delta cap reflected_delta
    core: tuple[Root, ...]  # the non-A_1 component of the overlap

    @property
    def all_roots(self) -> tuple[Root, ...]:
        return self.minus + self.zero + self.plus


@lru_cache(maxsize=None)
def sigma_split(wm: WeightModule, lam1: Weight) -> ShiftRootSplit:
    """Decompose the roots that shift lam1 inside the module."""
    case = wm.case
    if wm.component_of(lam1) != 1:
        raise DomainError("weight must lie in the first non-trivial component")

    sigma = [alpha for alpha in case.phi if wm.shift(lam1, tuple(-c for c in alpha)) is not None]
    c = case.alpha1_index  # Delta and the two orbits split Phi by this coefficient
    minus = tuple(a for a in sigma if a[c] == -1)
    zero = tuple(a for a in sigma if a[c] == 0)
    plus = tuple(a for a in sigma if a[c] == 1)

    connecting = wm.root_between(wm.lam0, lam1)
    if connecting is None:
        raise InternalConsistencyError("top weight is not adjacent to the component")
    reflected = tuple(sorted((case.reflect(d, connecting) for d in case.delta), key=lambda r: (height(r), r)))
    overlap = [r for r in reflected if r[c] == 0]

    pos = [case.index[r] for r in overlap]
    comps = _irreducible_components(case.pairings[np.ix_(pos, pos)])
    non_a1 = [c for c in comps if len(c) > 2]
    if len(non_a1) != 1:
        raise InternalConsistencyError("expected a unique non-A_1 component in the overlap")

    return ShiftRootSplit(
        lam1=lam1,
        minus=minus,
        zero=zero,
        plus=plus,
        reflected_delta=reflected,
        overlap=tuple(overlap),
        core=tuple(overlap[k] for k in non_a1[0]),
    )


def default_module(tag: str, l: int | None = None) -> WeightModule:
    return build_weights(build_case(tag, l))
