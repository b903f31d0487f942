"""Root systems D_l, E_6, E_7 and the three fixed subsystem embeddings.

Roots are integer coefficient vectors over the simple roots, numbered in the
Bourbaki convention.  Each embedding case crosses out one vertex of the Dynkin
diagram; the crossed vertex carries coefficient one in the maximal root and its
neighbour carries coefficient two.  The three cases are

* ``a``: D_l with A_{l-1} inside (cross alpha_l, neighbour alpha_{l-2}), l >= 5,
* ``b``: E_6 with D_5 inside (cross alpha_1, neighbour alpha_3),
* ``c``: E_7 with E_6 inside (cross alpha_7, neighbour alpha_6).

All systems here are simply laced, so the Cartan pairing is symmetric.  Each
case keeps two tables indexed like ``phi``: ``pairings = fund @ phi^T``, with
``fund = phi @ C`` the roots in the fundamental-weight basis, and
``reflections[i, j]``, the index of phi[i] - (phi[i], phi[j]) phi[j], found by
one sorted lookup of linear keys: a root's coefficients (each in [-4, 4]) read
as balanced base-9 digits, so distinct roots have distinct keys.  The negation
of phi[i] is ``reflections[i, i]``, and phi[i] + phi[j] is a root exactly when
their pairing is -1, and then it is ``reflections[i, j]``.  Readers find roots
through ``index``, so a non-root raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InternalConsistencyError

Root = tuple[int, ...]

MAX_RANK_A = 10  # dense matrices grow as 2^(l-1) in case a


def _adjacency(tag: str, l: int) -> list[tuple[int, int]]:
    """Dynkin diagram edges as 0-based vertex pairs, Bourbaki numbering."""
    if tag == "a":  # D_l: chain 1..l-1 with l attached to l-2
        edges = [(i, i + 1) for i in range(l - 2)]
        edges.append((l - 3, l - 1))
        return edges
    if tag == "b":  # E_6: chain 1-3-4-5-6 with 2 attached to 4
        return [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
    if tag == "c":  # E_7: chain 1-3-4-5-6-7 with 2 attached to 4
        return [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]
    raise DomainError(f"unknown case tag {tag!r}")


def _cartan(tag: str, l: int) -> tuple[tuple[int, ...], ...]:
    mat = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j in _adjacency(tag, l):
        mat[i][j] = -1
        mat[j][i] = -1
    return tuple(tuple(row) for row in mat)


def height(alpha: Root) -> int:
    return sum(alpha)


@dataclass(frozen=True, eq=False)
class EmbeddingCase:
    """A root system with its crossed vertex and orbit decomposition.

    Cases compare and hash by identity, so that the many tables cached per
    case are keyed without hashing the root system.  Build them only through
    ``build_case``, which returns one object per case.
    """

    tag: str
    l: int
    cartan: tuple[tuple[int, ...], ...]
    alpha1_index: int  # crossed vertex
    alpha2_index: int  # its neighbour
    phi: tuple[Root, ...]
    delta: tuple[Root, ...]
    delta_prime: tuple[Root, ...]
    delta_dprime: tuple[Root, ...]
    omega_plus: tuple[Root, ...]
    omega_minus: tuple[Root, ...]
    max_root: Root

    # -- root arithmetic: the tables, read through ``index`` -----------------

    @cached_property
    def index(self) -> dict:
        """Position of each root in ``phi``."""
        return {r: i for i, r in enumerate(self.phi)}

    def idx(self, alpha: Root) -> int:
        try:
            return self.index[alpha]
        except (KeyError, TypeError):
            raise DomainError(f"{alpha!r} is not a root of {self.describe()}") from None

    @cached_property
    def fund(self) -> np.ndarray:
        """The roots in the fundamental-weight basis, indexed like ``phi``."""
        return np.array(self.phi, dtype=np.int64) @ np.array(self.cartan, dtype=np.int64)

    @cached_property
    def pairings(self) -> np.ndarray:
        return self.fund @ np.array(self.phi, dtype=np.int64).T

    @cached_property
    def reflections(self) -> np.ndarray:
        """reflections[i, j]: the index of phi[i] - (phi[i], phi[j]) phi[j]."""
        keys = np.array(self.phi, dtype=np.int64) @ 9 ** np.arange(self.l, dtype=np.int64)
        images = keys[:, None] - self.pairings * keys  # keys are linear
        order = np.argsort(keys)
        found = order[np.minimum(np.searchsorted(keys[order], images), len(keys) - 1)]
        if (keys[found] != images).any():
            raise InternalConsistencyError("a reflection image is not a root")
        return found

    def pairing(self, alpha: Root, beta: Root) -> int:
        return int(self.pairings[self.idx(alpha), self.idx(beta)])

    def is_root(self, v) -> bool:
        """False for anything that is not a root, an unhashable value too."""
        try:
            return v in self.index
        except TypeError:
            return False

    def root_add(self, alpha: Root, beta: Root) -> Root | None:
        i, j = self.idx(alpha), self.idx(beta)
        return self.phi[self.reflections[i, j]] if self.pairings[i, j] == -1 else None

    def reflect(self, alpha: Root, beta: Root) -> Root:
        """Image of alpha under the reflection with respect to beta."""
        return self.phi[self.reflections[self.idx(alpha), self.idx(beta)]]

    @property
    def alpha1(self) -> Root:
        return tuple(1 if i == self.alpha1_index else 0 for i in range(self.l))

    @property
    def alpha2(self) -> Root:
        return tuple(1 if i == self.alpha2_index else 0 for i in range(self.l))

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(tuple(1 if i == j else 0 for j in range(self.l)) for i in range(self.l))

    @property
    def kind(self) -> str:
        """``first`` or ``second`` according to the symmetry of the module."""
        if self.tag == "a":
            return "second" if self.l % 2 == 0 else "first"
        return "first" if self.tag == "b" else "second"

    def root_fund_coords(self, alpha: Root) -> tuple[int, ...]:
        """Coordinates of a root in the fundamental-weight basis."""
        return tuple(self.fund[self.idx(alpha)].tolist())

    def describe(self) -> str:
        names = {"a": f"D_{self.l}", "b": "E_6", "c": "E_7"}
        sub = {"a": f"A_{self.l - 1}", "b": "D_5", "c": "E_6"}
        return f"case {self.tag}: {names[self.tag]} over {sub[self.tag]}"


def _fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q by exact Gauss-Jordan elimination:
    the rows (nonzero rows first) and the pivot column of each nonzero row."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        mat[r] = [v / pivot for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def _enumerate_roots(cartan) -> list[Root]:
    """Positive roots by closure under adding simple roots, then negatives."""
    l = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(l)) for i in range(l)]
    positive = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for gamma in frontier:
            # the pairings of gamma with every simple root: one Cartan product
            row = [sum(x * a for x, a in zip(gamma, col)) for col in zip(*cartan)]
            for alpha, p in zip(simple, row):
                if p == -1:
                    s = tuple(x + y for x, y in zip(gamma, alpha))
                    if s not in positive:
                        positive.add(s)
                        nxt.append(s)
        frontier = nxt
    roots = list(positive) + [tuple(-x for x in r) for r in positive]
    roots.sort(key=lambda r: (height(r), r))
    return roots


def _irreducible_components(pairings: np.ndarray) -> list[list[int]]:
    """Split a closed subsystem into irreducible components (non-orthogonality
    classes), given its pairing matrix: the positions of each component, in
    ascending order."""
    remaining = set(range(len(pairings)))
    comps = []
    while remaining:
        comp = {min(remaining)}
        frontier = list(comp)
        while frontier:
            new = set(np.flatnonzero(pairings[frontier].any(axis=0)).tolist()) - comp
            comp |= new
            frontier = list(new)
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def build_case(tag: str, l: int | None = None) -> EmbeddingCase:
    """Construct one of the three embedding cases.

    Case ``a`` needs an explicit rank (5 <= l <= 10); cases ``b`` and ``c``
    have fixed ranks 6 and 7.  Every spelling of a case (``("c",)``,
    ``("c", 7)``, ``("c", None)``) returns the same object.  A rank that is
    not None or an int (``"6"``, ``6.0``) raises ``DomainError``.
    """
    if not (l is None or isinstance(l, int)):
        raise DomainError(f"case rank must be an integer, got {l!r}")
    if tag == "a":
        if l is None or not 5 <= l <= MAX_RANK_A:
            raise DomainError(f"case a needs 5 <= l <= {MAX_RANK_A}, got {l}")
    elif tag == "b":
        if l not in (None, 6):
            raise DomainError("case b has rank 6")
        l = 6
    elif tag == "c":
        if l not in (None, 7):
            raise DomainError("case c has rank 7")
        l = 7
    else:
        raise DomainError(f"unknown case tag {tag!r}")
    return _build_case(tag, l)


@lru_cache(maxsize=None)
def _build_case(tag: str, l: int) -> EmbeddingCase:
    crossed, neighbour = {"a": (l - 1, l - 3), "b": (0, 2), "c": (6, 5)}[tag]

    cartan = _cartan(tag, l)
    phi = _enumerate_roots(cartan)

    delta = tuple(r for r in phi if r[crossed] == 0)
    omega_plus = tuple(r for r in phi if r[crossed] == 1)
    omega_minus = tuple(r for r in phi if r[crossed] == -1)
    if len(delta) + len(omega_plus) + len(omega_minus) != len(phi):
        raise InternalConsistencyError("crossed vertex has coefficient beyond 1 in some root")

    delta_prime = tuple(r for r in delta if r[neighbour] == 0)
    dp = np.array(delta_prime, dtype=np.int64)
    comps = _irreducible_components(dp @ np.array(cartan, dtype=np.int64) @ dp.T)
    if tag == "a":
        non_a1 = [c for c in comps if len(c) > 2]
        if len(non_a1) != 1:
            raise InternalConsistencyError("expected a unique component distinct from A_1")
        dprime = tuple(delta_prime[k] for k in non_a1[0])
    else:
        if len(comps) != 1:
            raise InternalConsistencyError("expected an irreducible subsystem")
        dprime = delta_prime

    max_root = phi[-1]
    if max_root[crossed] != 1 or max_root[neighbour] != 2:
        raise InternalConsistencyError("maximal root coefficients do not match the embedding")

    return EmbeddingCase(
        tag=tag,
        l=l,
        cartan=cartan,
        alpha1_index=crossed,
        alpha2_index=neighbour,
        phi=tuple(phi),
        delta=delta,
        delta_prime=delta_prime,
        delta_dprime=dprime,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        max_root=max_root,
    )


def weyl_orbit(case: EmbeddingCase, seed: Root, generators) -> frozenset:
    """Closure of a root under reflections in the given roots."""
    images = case.reflections[:, [case.idx(g) for g in generators]]
    orbit = {case.idx(seed)}
    frontier = list(orbit)
    while frontier:
        new = set(images[frontier].ravel().tolist()) - orbit
        orbit |= new
        frontier = list(new)
    return frozenset(case.phi[i] for i in orbit)


def orbit_decomposition(case: EmbeddingCase, seeds, generators) -> list[frozenset]:
    """Distinct reflection orbits of the seed set."""
    seen = set()
    orbits = []
    for s in seeds:
        if s not in seen:
            orb = weyl_orbit(case, s, generators)
            orbits.append(orb)
            seen |= orb
    return orbits


def partner_root(case: EmbeddingCase, beta: Root) -> Root:
    """First root of the subsystem (canonical order) whose sum with beta is a root."""
    if case.is_root(beta) and beta[case.alpha1_index] != 0:
        for alpha in case.delta:
            if case.root_add(alpha, beta) is not None:
                return alpha
        raise InternalConsistencyError(f"no subsystem partner for {beta}")
    raise DomainError("partner_root needs a root outside the subsystem")
